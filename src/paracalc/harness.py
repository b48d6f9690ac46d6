"""Seeded verification suites with deterministic JSON reports.

Every case gets its own random substream derived from
``SeedSequence([seed, crc32(suite), case_index])``, so adding cases never
perturbs existing ones and ``check all`` reproduces the per-suite residuals
bit for bit.  A sampled case is one row, ``_blocked(count, items, sides,
rows)``, and ``_blocked`` does the rest: it draws the samples in blocks
from one ``tape.Tape``, as drawing them one after another would, compares
the pairs that ``sides`` returns and offers each sample's rows to
``Worst``, samples in order.  A floor case (``_floor``) runs its witness
once and reports the deficit ``max(0, floor - value)`` against a zero
threshold, so ``pass == residual <= threshold`` holds uniformly.

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
import numbers
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

#: The run defaults of the CLI, SuiteConfig and run_convergence; Case.threshold's scale bases.
SEED, SAMPLES, TOL_EXACT, TOL_NUMERIC, STEP = 42, 50, 1e-10, 1e-5, 1e-5


class ConfigError(ValueError):
    """Invalid suite configuration or command-line arguments."""


def check_seed(seed) -> None:
    """The seed rule of the suites and the convergence tables: an integer >= 0."""
    if not isinstance(seed, numbers.Integral):
        raise ConfigError("seed must be an integer")
    if seed < 0:
        raise ConfigError("seed must be a natural number")


@dataclass
class SuiteConfig:
    suite: str
    seed: int = SEED
    samples: int = SAMPLES
    tol_exact: float = TOL_EXACT
    tol_numeric: float = TOL_NUMERIC
    h: float = STEP

    def __post_init__(self):
        if self.suite not in SUITE_NAMES + ("all",):
            raise ConfigError(f"unknown suite {self.suite!r}")
        if not isinstance(self.samples, numbers.Integral):
            raise ConfigError("samples must be an integer")
        if self.samples < 1:
            raise ConfigError("samples must be >= 1")
        # below the smallest normal float a scaled threshold can underflow to 0
        if not all(sys.float_info.min <= v < math.inf
                   for v in (self.tol_exact, self.tol_numeric, self.h)):
            raise ConfigError("tolerances and step must be finite and at least 2.2e-308")
        scales = (self.tol_exact / TOL_EXACT, self.tol_numeric / TOL_NUMERIC)  # Case.threshold
        if not all(math.isfinite(s) for s in scales):
            raise ConfigError("tolerances too large: scaled thresholds must stay finite")
        check_seed(self.seed)


@dataclass
class CaseReport:
    name: str
    residual: float
    threshold: float
    passed: bool
    components: Optional[np.ndarray] = None


@dataclass
class SuiteReport:
    config: SuiteConfig
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
            return self.base_threshold * (cfg.tol_exact / TOL_EXACT)
        if self.kind == "numeric":
            return self.base_threshold * (cfg.tol_numeric / TOL_NUMERIC)
        return self.base_threshold


#: Samples per block of a ``_blocked`` case: small enough that a block's
#: stacks stay in cache and the peak memory does not grow with --samples.
BLOCK = 256
#: Samples per block of the diffop and maxwell cases, whose rows carry
#: fields: a block's temporaries stay within what one sample took.
ROWS = 16


def _blocked(count, items, sides, rows=BLOCK, compare=_rel):
    """A sampled case's run: samples 0..count(cfg)-1, each drawn as the tape
    layout ``items`` (none: no draw), in blocks of ``BLOCK``, or of ``rows``
    if fewer.  ``sides(*draws, cfg)`` gets a block's draws, one stack per
    item, and returns the identity's ``(lhs, rhs)`` pairs, each compared by
    ``compare``, or the difference itself as an array.  Each sample's rows
    are offered in turn, pair by pair.
    """
    # here, not at the top: the suites load tape anyway, and convergence need not
    from .tape import Tape, draw

    def run(rng, cfg):
        w, tape = Worst(), Tape(rng)
        total, size = count(cfg), min(BLOCK, rows)
        for start in range(0, total, size):
            n = min(size, total - start)
            out = sides(*(draw(tape, start, n, *items) if items else ()), cfg)
            if not isinstance(out, np.ndarray):
                diffs = [compare(lhs, rhs) for lhs, rhs in out]
                out = np.stack(diffs, axis=-2).reshape(-1, diffs[0].shape[-1])
            w.offer(out)
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
    report = SuiteReport(cfg)
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
    cfg = rep.config
    obj = {
        "suite": cfg.suite,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "tolerances": {
            "exact": float(cfg.tol_exact),
            "numeric": float(cfg.tol_numeric),
            "step": float(cfg.h),
        },
        "cases": cases,
        "passed": rep.passed,
        "failed": rep.failed,
    }
    return json.dumps(obj, allow_nan=False) + "\n"
