"""Convergence tables: the largest numeric-against-exact partial error of
seeded fields at each step of a central difference, and the ratios between
successive steps, held to the second order of the stencil.  It loads the
fields and the operators only; no suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .diffops import max_partial_errors
from .fields import random_event, random_field, random_plane_wave
from .harness import NOISE_FLOOR, SEED, ConfigError, case_rng, check_seed

__all__ = ["ConvergenceRow", "run_convergence", "convergence_ok"]


@dataclass
class ConvergenceRow:
    h: float
    max_error: float
    ratio: Optional[float]  # error(h_i)/error(h_{i+1}); None below the noise floor


def run_convergence(field_kind: str, steps, seed: int = SEED, fields=None) -> List[ConvergenceRow]:
    """Max numeric-vs-exact derivative error per step, with step-to-step ratios.

    ``fields`` overrides the default seeded draws (three fields of the chosen
    kind); ratios are reported as not-applicable below the 1e-12 noise floor.
    """
    if field_kind not in ("poly", "planewave"):
        raise ConfigError(f"unknown field kind {field_kind!r}")
    steps = [float(s) for s in steps]
    if len(steps) < 2:
        raise ConfigError("need at least two steps")
    if not all(0 < s < math.inf for s in steps) or any(
        a <= b for a, b in zip(steps, steps[1:])
    ):
        raise ConfigError("steps must be finite, positive and strictly decreasing")
    check_seed(seed)
    rng = case_rng(seed, "convergence", 0)
    if fields is None:
        family = random_field if field_kind == "poly" else random_plane_wave
        fields = [family(rng) for _ in range(3)]
    points = [random_event(rng).data for _ in range(20)]
    try:  # overflow reads as a NaN error, which fails the table
        with np.errstate(all="ignore"):
            errors = max_partial_errors(fields, points, steps)
    except ValueError as exc:  # a step that does not move the stencil
        raise ConfigError(str(exc)) from None
    rows = []
    for i, h in enumerate(steps):
        ratio = None
        if i + 1 < len(steps) and errors[i] >= NOISE_FLOOR and errors[i + 1] >= NOISE_FLOOR:
            ratio = errors[i] / errors[i + 1]
        rows.append(ConvergenceRow(h=h, max_error=errors[i], ratio=ratio))
    return rows


def convergence_ok(rows: List[ConvergenceRow]) -> bool:
    """Each defined ratio must sit within 20% of the second-order prediction.

    Close steps put 1 (no convergence) inside that band, so when the first and
    last errors are above the 1e-12 noise floor, the order fitted between them
    must also be 2 +- 0.1.  A non-finite error fails the table.
    """
    if not all(math.isfinite(r.max_error) for r in rows):
        return False
    for cur, nxt in zip(rows, rows[1:]):
        if cur.ratio is None:
            continue
        predicted = (cur.h / nxt.h) ** 2
        if not 0.8 * predicted <= cur.ratio <= 1.2 * predicted:
            return False
    if len(rows) < 2:
        return True
    first, last = rows[0], rows[-1]
    if min(first.max_error, last.max_error) >= NOISE_FLOOR:
        order = math.log(first.max_error / last.max_error) / math.log(first.h / last.h)
        return abs(order - 2.0) <= 0.1
    return True
