"""Seeded verification suites with deterministic JSON reports.

Every case gets its own random substream derived from
``SeedSequence([seed, crc32(suite), case_index])``, so adding cases never
perturbs existing ones and ``check all`` reproduces the per-suite residuals
bit for bit.  A case reads its substream through one ``tape.Tape`` and draws
a block of samples as stacked arrays, taking the stream as drawing one
sample after another would, and one loop (``_blocked``) runs the blocks in
sample order; a value case that runs once is one block of one sample.  A
floor case (``_floor``) runs its witness once.
Residuals are max-abs
over the value components; cases that pin a *floor* under a witness instead
report the deficit ``max(0, floor - value)`` against a zero threshold so that
``pass == residual <= threshold`` holds uniformly.

This module is the suites' core: the configuration, the reports, the
``Worst`` tracker, ``_rel`` and the case runs.  Each suite's cases live in
their own module (``suite_algebra``, ``suite_diffop``, ``suite_transforms``,
``suite_wave``, ``suite_maxwell``), which ``_SUITE_BUILDERS`` imports on
first use, so a run compiles and loads only the suites it runs; the
convergence tables are in ``convergence``.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from dataclasses import dataclass, field as dc_field
from functools import partial
from importlib import import_module
from typing import Callable, List, Optional

import numpy as np

__all__ = [
    "ConfigError",
    "SUITE_NAMES",
    "SuiteConfig",
    "CaseReport",
    "SuiteReport",
    "case_rng",
    "run_suite",
    "report_to_json",
]

SUITE_NAMES = ("algebra", "diffop", "transforms", "wave", "maxwell")

NOISE_FLOOR = 1e-12  # convergence errors below this are rounding, not truncation


class ConfigError(ValueError):
    """Invalid suite configuration or command-line arguments."""


@dataclass
class SuiteConfig:
    suite: str
    seed: int = 42
    samples: int = 50
    tol_exact: float = 1e-10
    tol_numeric: float = 1e-5
    h: float = 1e-5

    def __post_init__(self):
        if self.suite not in SUITE_NAMES + ("all",):
            raise ConfigError(f"unknown suite {self.suite!r}")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        # below the smallest normal float a scaled threshold can underflow to 0
        if not all(sys.float_info.min <= v < math.inf
                   for v in (self.tol_exact, self.tol_numeric, self.h)):
            raise ConfigError("tolerances and step must be finite and at least 2.2e-308")
        scales = (self.tol_exact / 1e-10, self.tol_numeric / 1e-5)  # see Case.threshold
        if not all(math.isfinite(s) for s in scales):
            raise ConfigError("tolerances too large: scaled thresholds must stay finite")
        if self.seed < 0:
            raise ConfigError("seed must be a natural number")


@dataclass
class CaseReport:
    name: str
    residual: float
    threshold: float
    passed: bool
    components: Optional[np.ndarray] = None


@dataclass
class SuiteReport:
    suite: str
    seed: int
    samples: int
    tol_exact: float
    tol_numeric: float
    h: float
    cases: List[CaseReport] = dc_field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.passed)


def case_rng(seed: int, suite: str, index: int) -> np.random.Generator:
    """Per-case substream: PCG64 seeded from (seed, crc32(suite), case index)."""
    ss = np.random.SeedSequence([seed, zlib.crc32(suite.encode("utf-8")), index])
    return np.random.default_rng(ss)


class Worst:
    """Track the largest residual seen and the components attaining it.

    A non-finite sample (NaN or inf) sticks: the case then fails.
    """

    def __init__(self):
        self.value = 0.0
        self.components = np.zeros(4, np.complex128)

    def offer(self, diff) -> None:
        """Offer one difference array, or a 2-D stack of them, one per row.

        A stack counts exactly as its rows offered in turn: the last row at
        the maximum is kept, and a NaN row sticks.
        """
        rows = np.atleast_2d(np.asarray(diff, dtype=np.complex128))
        m = np.abs(rows).max(axis=1)
        if not len(m):
            return
        top = float(m.max())  # NaN if any row is NaN
        if top != top:  # the last NaN row takes over
            best = np.flatnonzero(m != m)[-1]
        elif top >= self.value:  # False once a NaN is held
            best = np.flatnonzero(m == top)[-1]  # the last row at the maximum
        else:
            return
        self.value, self.components = float(m[best]), rows[best].copy()

    def floor_deficit(self, value: float, floor: float, components=None) -> None:
        self.offer(np.array([np.maximum(0.0, floor - value)], np.complex128))
        if components is not None:
            self.components = np.asarray(components, dtype=np.complex128)


def _rel(lhs, rhs) -> np.ndarray:
    """Scale-guarded relative difference: (lhs-rhs) / max(1, |lhs|, |rhs|).

    On 2-D stacks the scale is taken per row.  fmax skips NaN as the
    builtin max does.
    """
    lhs = np.atleast_1d(np.asarray(lhs, dtype=np.complex128))
    rhs = np.atleast_1d(np.asarray(rhs, dtype=np.complex128))
    scale = np.fmax(np.abs(lhs).max(axis=-1, keepdims=True),
                    np.abs(rhs).max(axis=-1, keepdims=True))
    return (lhs - rhs) / np.fmax(1.0, scale)


@dataclass(frozen=True)
class Case:
    name: str
    kind: str  # "exact" | "numeric" | "fixed": which tolerance flag scales it
    base_threshold: float
    run: Callable[[np.random.Generator, SuiteConfig], Worst]
    # substream index to share; numeric reruns of an exact case set this so
    # both modes see identical draws
    substream: Optional[int] = None

    def threshold(self, cfg: SuiteConfig) -> float:
        if self.kind == "exact":
            return self.base_threshold * (cfg.tol_exact / 1e-10)
        if self.kind == "numeric":
            return self.base_threshold * (cfg.tol_numeric / 1e-5)
        return self.base_threshold


#: Samples per block of a ``_blocked`` case: small enough that a block's
#: stacks stay in cache and the peak memory does not grow with --samples.
BLOCK = 256
#: Samples per block of the diffop and maxwell cases, whose rows carry
#: fields: a block's temporaries stay within what one sample took.
ROWS = 16


def _blocked(count, block, rows=BLOCK):
    """A case run that draws samples 0..count(cfg)-1 in blocks of ``BLOCK``,
    or of ``rows`` if fewer.

    ``block(tape, start, n, cfg)`` draws samples ``start``..``start + n - 1``
    from the case's tape as stacked arrays and returns their differences as
    one stack, each sample's rows in turn, samples in order.
    """
    # here, not at the top: the suites load tape anyway, and convergence need not
    from .tape import Tape

    def run(rng, cfg):
        w, tape = Worst(), Tape(rng)
        total, size = count(cfg), min(BLOCK, rows)
        for start in range(0, total, size):
            w.offer(block(tape, start, min(size, total - start), cfg))
        return w

    return run


def _floor(witness, floor: float):
    """A floor-deficit case run: ``witness(rng)`` returns the gap array."""
    def run(rng, cfg):
        w = Worst()
        gap = witness(rng)
        w.floor_deficit(float(np.max(np.abs(gap))), floor, gap)
        return w

    return run


def _times(k: int):
    """Sample count: k draws per ``--samples``."""
    return lambda cfg: k * cfg.samples


def _fifth(cfg) -> int:
    return max(1, cfg.samples // 5)


def _once(cfg) -> int:
    return 1


def _cases(suite: str) -> List[Case]:
    """The cases of a suite, from its own module, which loads on the first call."""
    return import_module(f".suite_{suite}", __package__).cases()


#: Each suite's builder: a zero-argument callable that returns its cases.
_SUITE_BUILDERS = {name: partial(_cases, name) for name in SUITE_NAMES}


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    """Run the selected suite (or all, in the fixed order) deterministically."""
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    report = SuiteReport(
        suite=cfg.suite,
        seed=cfg.seed,
        samples=cfg.samples,
        tol_exact=cfg.tol_exact,
        tol_numeric=cfg.tol_numeric,
        h=cfg.h,
    )
    # every suite's module compiles before any case allocates its arrays,
    # which keeps the peak RSS of check all down (README, Peak memory)
    suites = [(sname, _SUITE_BUILDERS[sname]()) for sname in names]
    for sname, cases in suites:
        for idx, case in enumerate(cases):
            sub = idx if case.substream is None else case.substream
            name = f"{sname}/{case.name}"
            try:  # overflow reads as a non-finite residual, which fails the case
                with np.errstate(all="ignore"):
                    worst = case.run(case_rng(cfg.seed, sname, sub), cfg)
                residual, components = worst.value, worst.components
            except Exception as exc:  # a crashed case fails; the rest still run
                print(f"error: {name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                residual, components = math.nan, np.zeros(0, np.complex128)
            thr = case.threshold(cfg)
            report.cases.append(
                CaseReport(
                    name=name,
                    residual=residual,
                    threshold=thr,
                    passed=math.isfinite(residual) and residual <= thr,
                    components=components,
                )
            )
    return report


def _finite_or_null(x) -> Optional[float]:
    x = float(x)
    return x if math.isfinite(x) else None


def report_to_json(rep: SuiteReport, verbose: bool = False) -> str:
    """Schema-fixed, newline-terminated JSON; byte-identical for equal inputs.

    Non-finite numbers are written as ``null``, so the output is strict JSON.
    """
    cases = []
    for c in rep.cases:
        entry = {
            "name": c.name,
            "residual": _finite_or_null(c.residual),
            "threshold": _finite_or_null(c.threshold),
            "pass": bool(c.passed),
        }
        if verbose and c.components is not None:
            entry["components"] = [
                [_finite_or_null(z.real), _finite_or_null(z.imag)]
                for z in np.atleast_1d(c.components)
            ]
        cases.append(entry)
    obj = {
        "suite": rep.suite,
        "seed": rep.seed,
        "samples": rep.samples,
        "tolerances": {
            "exact": float(rep.tol_exact),
            "numeric": float(rep.tol_numeric),
            "step": float(rep.h),
        },
        "cases": cases,
        "passed": rep.passed,
        "failed": rep.failed,
    }
    return json.dumps(obj, allow_nan=False) + "\n"
