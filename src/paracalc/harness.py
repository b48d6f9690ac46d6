"""Seeded verification suites with deterministic JSON reports.

Every case gets its own random substream derived from
``SeedSequence([seed, crc32(suite), case_index])``, so adding cases never
perturbs existing ones and ``check all`` reproduces the per-suite residuals
bit for bit.  A case is a per-sample draw that one loop (``_sampled``) runs
in index order, or a draw of a block of samples as stacked arrays, which
``_blocked`` runs block by block in the same order.  Residuals are max-abs
over the value components; cases that pin a *floor* under a witness instead
report the deficit ``max(0, floor - value)`` against a zero threshold so that
``pass == residual <= threshold`` holds uniformly.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from dataclasses import dataclass, field as dc_field
from typing import Callable, List, Optional

import numpy as np

from . import kernels
from .kernels import cmul, pv_mul_rows
from .algebra import (
    Event,
    IDENTITY,
    Paravector,
    act_left,
    act_right,
    conjugate_rotate,
    det_rows,
    inverse,
    inverse_rows,
    left_matrix,
    mul,
    reverse,
    reverse_rows,
)
from .diffops import (
    EXACT,
    Numeric,
    assemble_grad,
    additivity_sides,
    box4,
    bundle,
    div4,
    div4_field,
    grad4,
    grad4_field,
    leibniz_sides,
    max_partial_errors,
    product_rule_failure_witness,
    scalar_order_gap,
)
from .electromag import (
    PhysConstants,
    PotentialField,
    em_field_from_potential,
    em_from_potential,
    lorenz_gauge_potential,
    plane_wave_potential,
    source_field_from_em,
    sources_from_em,
    wave_sides,
)
from .fields import (
    Field,
    central_difference,
    null_plane_wave,
    random_event,
    random_field,
    random_orthogonal,
    random_paravector,
    random_paravectors,
    random_plane_wave,
    random_scalar_field,
)
from .transforms import (
    InvarianceForm,
    TransformCase,
    div_left_transport_sides,
    div_right_transport_sides,
    form_point,
    form_value,
    grad_left_transport_sides,
    grad_right_transport_sides,
    observer_rotation_sides,
    right_factor_sides,
    transformed_field_values,
    transformed_wave_field,
    wave_invariance_sides,
)

__all__ = [
    "ConfigError",
    "SUITE_NAMES",
    "SuiteConfig",
    "CaseReport",
    "SuiteReport",
    "ConvergenceRow",
    "case_rng",
    "run_suite",
    "run_convergence",
    "convergence_ok",
    "report_to_json",
    "PRODUCT_RULE_WITNESS_FLOOR",
    "ORDER_GAP_WITNESS_FLOOR",
]

SUITE_NAMES = ("algebra", "diffop", "transforms", "wave", "maxwell")

# Regression pins from the first verified run of the stored witness inputs;
# the measured values are exactly 2.0.
PRODUCT_RULE_WITNESS_FLOOR = 1.9
ORDER_GAP_WITNESS_FLOOR = 1.9
NONCOMMUTATIVITY_FLOOR = 1.0
VALUE_SPLIT_FLOOR = 1e-3
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
        best = None
        for k, m in enumerate(np.abs(rows).max(axis=1).tolist()):
            if m >= self.value or math.isnan(m):
                self.value, best = m, k
        if best is not None:
            self.components = rows[best].copy()

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


def _sampled(count, sample):
    """A case run that draws samples 0..count(cfg)-1 in order.

    ``sample(rng, i, cfg)`` draws sample ``i`` and returns its difference
    arrays; each is offered to the case's ``Worst`` in the order returned.
    """
    def run(rng, cfg):
        w = Worst()
        for i in range(count(cfg)):
            for diff in sample(rng, i, cfg):
                w.offer(diff)
        return w

    return run


#: Samples per block of a ``_blocked`` case: small enough that a block's
#: stacks stay in cache and the peak memory does not grow with --samples.
BLOCK = 256


def _blocked(count, block):
    """A case run that draws samples 0..count(cfg)-1 in blocks of ``BLOCK``.

    ``block(rng, n)`` draws the next ``n`` samples as stacked arrays and
    returns their differences as one stack, rows in the order ``_sampled``
    would offer them; the draws take the stream in sample order.
    """
    def run(rng, cfg):
        w = Worst()
        total = count(cfg)
        for start in range(0, total, BLOCK):
            w.offer(block(rng, min(BLOCK, total - start)))
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


# ---------------------------------------------------------------------------
# algebra suite
# ---------------------------------------------------------------------------

def _algebra_cases() -> List[Case]:
    # The first four cases draw a block of samples at once: the draws are
    # rows of stacks, taken from the stream in the per-sample order.
    def draws(rng, n, k):
        """k paravectors per sample, as k (n, 4) stacks."""
        return random_paravectors(rng, k * n).reshape(n, k, 4).transpose(1, 0, 2)

    def associativity(rng, n):
        a, b, c = draws(rng, n, 3)
        return _rel(pv_mul_rows(pv_mul_rows(a, b), c), pv_mul_rows(a, pv_mul_rows(b, c)))

    def reversion(rng, n):
        a, b = draws(rng, n, 2)
        return _rel(reverse_rows(pv_mul_rows(a, b)),
                    pv_mul_rows(reverse_rows(b), reverse_rows(a)))

    def det_mult(rng, n):
        a, b = draws(rng, n, 2)
        # det(a) * det(b) is a product of Python complexes
        return _rel(det_rows(pv_mul_rows(a, b))[:, None],
                    cmul(det_rows(a), det_rows(b))[:, None])

    def inverse_identity(rng, n):
        (a,) = draws(rng, n, 1)
        inv = inverse_rows(a)
        both = np.stack([pv_mul_rows(a, inv), pv_mul_rows(inv, a)], axis=1)
        return both.reshape(-1, 4) - IDENTITY.data  # a a^-1, then a^-1 a, per sample

    def orthogonal_unit(rng, i, cfg):
        lam = random_orthogonal(rng)
        return [mul(lam, reverse(lam)).data - IDENTITY.data]

    def action_consistency(rng, i, cfg):
        g, x = random_paravector(rng), random_event(rng)
        return [act_left(g, x).data - kernels.pv_mul(g.data, x.data),
                act_right(x, g).data - kernels.pv_mul(x.data, g.data)]

    def left_action_expansion(rng, i, cfg):
        got = act_left(Paravector(1.0, (0.0, 0.0, 1.0)), Event(0.0, (1.0, 1.0, 0.0)))
        pure_time = act_left(Paravector(2.0 + 1.0j, (0.5j, 1.0, -2.0)), Event(1.0))
        return [got.data - np.array([0.0, 1.0 - 1.0j, 1.0 + 1.0j, 0.0]),
                pure_time.data - np.array([2.0 + 1.0j, 0.5j, 1.0, -2.0])]

    def right_action_expansion(rng, i, cfg):
        got = act_right(Event(0.0, (1.0, 1.0, 0.0)), Paravector(1.0, (0.0, 0.0, 1.0)))
        return [got.data - np.array([0.0, 1.0 + 1.0j, 1.0 - 1.0j, 0.0])]

    def noncommutativity(rng):
        a = Paravector(1.0, (1.0, 0.0, 0.0))
        b = Paravector(1.0, (0.0, 1.0, 0.0))
        return mul(a, b).data - mul(b, a).data

    def rotation_round_trip(rng, i, cfg):
        lam = random_orthogonal(rng)
        x = random_event(rng)
        back = conjugate_rotate(reverse(lam), conjugate_rotate(lam, x))
        return [back.data - x.data]

    return [
        Case("associativity", "exact", 1e-12, _blocked(_times(20), associativity)),
        Case("reversion-antiautomorphism", "exact", 1e-12, _blocked(_times(20), reversion)),
        Case("det-multiplicativity", "exact", 1e-12, _blocked(_times(20), det_mult)),
        Case("inverse-identity", "exact", 1e-10, _blocked(_times(20), inverse_identity)),
        Case("orthogonal-unit", "exact", 1e-10, _sampled(_times(1), orthogonal_unit)),
        Case("action-matches-product", "fixed", 0.0,
             _sampled(_times(1), action_consistency)),
        Case("left-action-expansion", "fixed", 0.0, _sampled(_once, left_action_expansion)),
        Case("right-action-expansion", "fixed", 0.0, _sampled(_once, right_action_expansion)),
        Case("noncommutativity-floor-deficit", "fixed", 0.0,
             _floor(noncommutativity, NONCOMMUTATIVITY_FLOOR)),
        Case("rotation-round-trip", "exact", 1e-10, _sampled(_times(1), rotation_round_trip)),
    ]


# ---------------------------------------------------------------------------
# diffop suite
# ---------------------------------------------------------------------------

def _sample_field(rng, index: int, degree: int = 3, scale: float = 1.0):
    if index % 2 == 0:
        return random_field(rng, degree=degree, scale=scale)
    return random_plane_wave(rng, scale=scale)


def _stencil_norm(f, x, h: float) -> float:
    """Max component magnitude of f over the +-h stencil points."""
    m = 0.0
    for c in range(4):
        for sgn in (1.0, -1.0):
            xs = x.copy()
            xs[c] += sgn * h
            m = max(m, float(np.max(np.abs(f._value(xs)))))
    return m


def _diffop_cases() -> List[Case]:
    def assembly_oracle(rng, i, cfg):
        # div4/grad4 assemble a bundle of partials; the oracle is the field
        # construction sum_k E_k (d_k A), evaluated by paravector products.
        f = _sample_field(rng, i)
        X = random_event(rng)
        return [_rel(div4(f, X).data, div4_field(f).at(X).data),
                _rel(grad4(f, X).data, grad4_field(f).at(X).data)]

    def numeric_agreement(rng, i, cfg):
        f = _sample_field(rng, i)
        X = random_event(rng)
        loc = _stencil_norm(f, X.data, cfg.h)
        err = (bundle(f, X, Numeric(cfg.h)) - bundle(f, X, EXACT)) / (1.0 + loc)
        return list(err.T)  # one difference per coordinate

    def factorization_exact(rng, i, cfg):
        f = _sample_field(rng, i)
        X = random_event(rng)
        b = box4(f, X).data
        return [_rel(grad4(div4_field(f), X).data, b),
                _rel(div4(grad4_field(f), X).data, b)]

    def factorization_numeric(rng, i, cfg):
        # A fixed step, not cfg.h: a nested second difference loses ~eps/h^2
        # to rounding (numeric box4 is off by ~1e-8 relative at 1e-4, ~2e-6
        # at 1e-5, ~1e-2 at 1e-7), and both sides here nest the same way, so
        # at small steps they agree as rounding noise and the check is empty.
        h = 1e-4
        f = _sample_field(rng, i)
        X = random_event(rng)
        b = box4(f, X, Numeric(h)).data

        def div_fn(xd):
            return div4(f, Event.from_data(xd), Numeric(h)).data

        dgrad = np.empty((4, 4), np.complex128)
        for c in range(4):
            dgrad[:, c] = central_difference(div_fn, X.data, c, h)
        return [_rel(assemble_grad(dgrad), b)]

    def null_wave_box(rng, i, cfg):
        f = null_plane_wave(rng)
        X = random_event(rng)
        return [box4(f, X).data]

    def additivity(rng, i, cfg):
        f = random_field(rng)
        g = _sample_field(rng, i)
        X = random_event(rng)
        lhs, rhs = additivity_sides(f, g, X)
        return [_rel(lhs.data, rhs.data)]

    def leibniz(rng, i, cfg):
        rho = random_scalar_field(rng)
        f = _sample_field(rng, i)
        X = random_event(rng)
        lhs, rhs = leibniz_sides(rho, f, X)
        return [_rel(lhs.data, rhs.data)]

    def product_rule_gap(rng):
        f = Field.monomial((0, 1, 0, 0), Paravector(0.0, (1.0, 0.0, 0.0)))
        g = Field.monomial((0, 0, 1, 0), Paravector(0.0, (0.0, 1.0, 0.0)))
        return product_rule_failure_witness(f, g, Event(0.0, (1.0, 1.0, 1.0))).data

    def order_gap(rng):
        rho = Field.monomial((0, 1, 0, 0), IDENTITY)
        a = Paravector(0.0, (0.0, 1.0, 0.0))
        return scalar_order_gap(rho, a, Event(0.0, (1.0, 1.0, 1.0))).data

    def convergence_band(rng, i, cfg):
        f = _sample_field(rng, i)
        pts = [random_event(rng).data for _ in range(10)]
        errs = max_partial_errors([f], pts, (1e-3, 5e-4))
        if errs[1] < NOISE_FLOOR:
            return []
        ratio = errs[0] / errs[1]
        return [[np.max([0.0, 3.2 - ratio, ratio - 4.8])]]

    return [
        Case("assembly-matches-oracle", "exact", 1e-12, _sampled(_times(2), assembly_oracle)),
        Case("numeric-agreement", "numeric", 1e-7, _sampled(_times(2), numeric_agreement)),
        Case("factorization-exact", "exact", 1e-12, _sampled(_times(1), factorization_exact)),
        Case("factorization-numeric", "numeric", 1e-4, _sampled(_fifth, factorization_numeric)),
        Case("null-plane-wave-box", "exact", 1e-12, _sampled(_times(1), null_wave_box)),
        Case("additivity", "exact", 1e-12, _sampled(_times(2), additivity)),
        Case("scalar-product-rule", "exact", 1e-12, _sampled(_times(2), leibniz)),
        Case("product-rule-failure-floor-deficit", "fixed", 0.0,
             _floor(product_rule_gap, PRODUCT_RULE_WITNESS_FLOOR)),
        Case("ordering-witness-floor-deficit", "fixed", 0.0,
             _floor(order_gap, ORDER_GAP_WITNESS_FLOOR)),
        Case("convergence-band-deficit", "fixed", 0.0,
             _sampled(lambda cfg: 6, convergence_band)),
    ]


# ---------------------------------------------------------------------------
# transforms suite
# ---------------------------------------------------------------------------

def _singular_paravector(rng) -> Paravector:
    # [s; s*u] with u.u = 1 has det = 0 exactly.
    s = 1.0 + 0.5j
    return Paravector(s, (s, 0.0, 0.0))


def _transport_case(sides_fn, mode_of):
    def sample(rng, i, cfg):
        g = random_paravector(rng)
        f = _sample_field(rng, i)
        X = random_event(rng)
        lhs, rhs = sides_fn(TransformCase(g, f, X, mode_of(cfg)))
        return [_rel(lhs.data, rhs.data)]

    return _sampled(_times(1), sample)


def _right_factor_case(mode_of, singular: bool):
    def sample(rng, i, cfg):
        g = _singular_paravector(rng) if singular else random_paravector(rng)
        f = _sample_field(rng, i)
        X = random_event(rng)
        sides = right_factor_sides(f, g, X, mode_of(cfg))
        return [_rel(lhs.data, rhs.data) for lhs, rhs in sides]

    return _sampled(_fifth if singular else _times(1), sample)


def _transforms_cases() -> List[Case]:
    exact = lambda cfg: EXACT
    numeric = lambda cfg: Numeric(cfg.h)

    def rotation(rng, i, cfg):
        lam = random_orthogonal(rng)
        f = _sample_field(rng, i)
        Xp = conjugate_rotate(lam, random_event(rng))
        lhs, rhs = observer_rotation_sides(f, lam, Xp)
        return [_rel(lhs.data, rhs.data)]

    def group_composition(rng, i, cfg):
        g1 = random_paravector(rng)
        g2 = random_paravector(rng)
        f = _sample_field(rng, i)
        inner = f.pullback(left_matrix(inverse(g1)))
        twice = inner.pullback(left_matrix(inverse(g2)))
        once = f.pullback(left_matrix(inverse(mul(g2, g1))))
        X = random_event(rng)
        return [_rel(twice._value(X.data), once._value(X.data))]

    return [
        Case("div-left-transport-exact", "exact", 1e-10,
             _transport_case(div_left_transport_sides, exact)),
        Case("grad-left-transport-exact", "exact", 1e-10,
             _transport_case(grad_left_transport_sides, exact)),
        Case("div-right-transport-exact", "exact", 1e-10,
             _transport_case(div_right_transport_sides, exact)),
        Case("grad-right-transport-exact", "exact", 1e-10,
             _transport_case(grad_right_transport_sides, exact)),
        Case("right-factor-exact", "exact", 1e-10, _right_factor_case(exact, False)),
        Case("right-factor-singular-exact", "exact", 1e-10,
             _right_factor_case(exact, True)),
        Case("observer-rotation-exact", "exact", 1e-10, _sampled(_times(1), rotation)),
        Case("pullback-group-composition", "exact", 1e-10,
             _sampled(_times(1), group_composition)),
        Case("div-left-transport-numeric", "numeric", 1e-5,
             _transport_case(div_left_transport_sides, numeric), substream=0),
        Case("grad-left-transport-numeric", "numeric", 1e-5,
             _transport_case(grad_left_transport_sides, numeric), substream=1),
        Case("div-right-transport-numeric", "numeric", 1e-5,
             _transport_case(div_right_transport_sides, numeric), substream=2),
        Case("grad-right-transport-numeric", "numeric", 1e-5,
             _transport_case(grad_right_transport_sides, numeric), substream=3),
        Case("right-factor-numeric", "numeric", 1e-5,
             _right_factor_case(numeric, False), substream=4),
    ]


# ---------------------------------------------------------------------------
# wave suite
# ---------------------------------------------------------------------------

def _wave_form_case(form: InvarianceForm):
    def sample(rng, i, cfg):
        lam = random_orthogonal(rng)
        f = random_field(rng)
        Xp = form_point(form, lam, random_event(rng))
        lhs, rhs = wave_invariance_sides(form, f, lam, Xp)
        return [_rel(lhs.data, rhs.data)]

    return _sampled(_times(1), sample)


def _wave_cases() -> List[Case]:
    def value_split(rng):
        best = 0.0
        best_gap = np.zeros(4, np.complex128)
        for i in range(10):
            lam = random_orthogonal(rng)
            if float(np.max(np.abs(lam.v))) < 0.1:
                continue  # scalar-like draws do not witness the split
            f = random_field(rng)
            Xp = random_event(rng)
            vals = transformed_field_values(f, lam, Xp)
            gap = vals.covariant.data - vals.contravariant.data
            m = float(np.max(np.abs(gap)))
            if m > best:
                best, best_gap = m, gap
        return best_gap

    def value_laws(rng, i, cfg):
        # each form's moved field at X' against its value law at the pre-image
        lam = random_orthogonal(rng)
        f = random_field(rng)
        Xp = random_event(rng)
        rlam = reverse(lam)
        return [_rel(transformed_wave_field(form, f, lam).at(Xp).data,
                     form_value(form, lam, f.at(form_point(form, rlam, Xp))).data)
                for form in InvarianceForm]

    return [
        Case("form1-right-invariant", "exact", 1e-9, _wave_form_case(InvarianceForm.FORM1)),
        Case("form2-right-contravariant", "exact", 1e-9, _wave_form_case(InvarianceForm.FORM2)),
        Case("form3-left-covariant", "exact", 1e-9, _wave_form_case(InvarianceForm.FORM3)),
        Case("form4-left-invariant", "exact", 1e-9, _wave_form_case(InvarianceForm.FORM4)),
        Case("covariant-contravariant-split-deficit", "fixed", 0.0,
             _floor(value_split, VALUE_SPLIT_FLOOR)),
        Case("form-value-structure", "exact", 1e-10, _sampled(_once, value_laws)),
    ]


# ---------------------------------------------------------------------------
# maxwell suite
# ---------------------------------------------------------------------------

def _maxwell_event(rng) -> Event:
    r = rng.uniform(-2.0, 2.0, size=3)
    t = complex(rng.uniform(-2.0, 2.0), rng.uniform(-0.1, 0.1))
    return Event(t, r)


def _random_wave_potential(rng, k: PhysConstants):
    kvec = rng.uniform(-1.0, 1.0, size=3)
    while np.linalg.norm(kvec) < 0.3:
        kvec = rng.uniform(-1.0, 1.0, size=3)
    raw = rng.uniform(-1.0, 1.0, size=3)
    pol = raw - (raw @ kvec) / (kvec @ kvec) * kvec
    while np.linalg.norm(pol) < 0.2:
        raw = rng.uniform(-1.0, 1.0, size=3)
        pol = raw - (raw @ kvec) / (kvec @ kvec) * kvec
    amp = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return plane_wave_potential(kvec, pol, amp, k)


def _plane_wave_case(constants: PhysConstants, field: str):
    def sample(rng, i, cfg):
        pot = _random_wave_potential(rng, constants)
        X = _maxwell_event(rng)
        if field == "gauge":
            return [[em_from_potential(pot, X, constants).scalar]]
        emf = em_field_from_potential(pot, constants)
        src = sources_from_em(emf, X, constants)
        return [np.concatenate([[src.rho_over_eps], src.j_term])]

    return _sampled(_times(2), sample)


def _maxwell_cases() -> List[Case]:
    k1 = PhysConstants()
    k2 = PhysConstants(c=2.0)

    def polynomial_gauge(rng, i, cfg):
        pot = lorenz_gauge_potential(rng)
        X = _maxwell_event(rng)
        return [[em_from_potential(pot, X, k1).scalar]]

    def factorization_chain(rng, i, cfg):
        pot = lorenz_gauge_potential(rng)
        src = source_field_from_em(em_field_from_potential(pot, k1))
        X = _maxwell_event(rng)
        lhs, rhs = wave_sides(pot, src, X, k1)
        return [_rel(lhs.data, rhs.data)]

    def gauss_slice(rng, i, cfg):
        phi = random_scalar_field(rng, degree=3, scale=1.0)
        spatial = phi.exps[:, 0] == 0  # drop time dependence
        pot = PotentialField(Field(phi.exps[spatial], phi.coeffs[spatial].real))
        X = Event(0.0, rng.uniform(-2.0, 2.0, size=3))
        src = sources_from_em(em_field_from_potential(pot, k1), X, k1, Numeric(cfg.h))

        def e_field(xd):
            # exact E values routed through the point operator, so the
            # only numerics in the oracle are the three differences below
            return em_from_potential(pot, Event.from_data(xd), k1).F.real

        div_e = 0.0
        for c in (1, 2, 3):
            div_e += central_difference(e_field, X.data, c, cfg.h)[c - 1]
        return [[src.rho_over_eps.real - div_e]]

    def static_gradient(rng, i, cfg):
        pot = PotentialField(Field.monomial((0, 1, 0, 0), Paravector(1.0)))
        val = em_from_potential(pot, Event(0.3, (0.7, -1.1, 0.4)), k1)
        return [np.concatenate([[val.scalar], val.F - np.array([-1.0, 0.0, 0.0])])]

    return [
        Case("plane-wave-gauge-scalar", "exact", 1e-12, _plane_wave_case(k1, "gauge")),
        Case("plane-wave-sources", "exact", 1e-10, _plane_wave_case(k1, "sources")),
        Case("polynomial-gauge-scalar", "exact", 1e-12, _sampled(_times(1), polynomial_gauge)),
        Case("factorization-chain", "exact", 1e-9, _sampled(_times(1), factorization_chain)),
        Case("gauss-law-slice", "numeric", 1e-6, _sampled(_times(1), gauss_slice)),
        Case("c2-plane-wave-gauge-scalar", "exact", 1e-12, _plane_wave_case(k2, "gauge")),
        Case("c2-plane-wave-sources", "exact", 1e-10, _plane_wave_case(k2, "sources")),
        Case("static-gradient-value", "fixed", 0.0, _sampled(_once, static_gradient)),
    ]


_SUITE_BUILDERS = {
    "algebra": _algebra_cases,
    "diffop": _diffop_cases,
    "transforms": _transforms_cases,
    "wave": _wave_cases,
    "maxwell": _maxwell_cases,
}


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
    for sname in names:
        for idx, case in enumerate(_SUITE_BUILDERS[sname]()):
            sub = idx if case.substream is None else case.substream
            name = f"{sname}/{case.name}"
            try:
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


# ---------------------------------------------------------------------------
# convergence tables
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceRow:
    h: float
    max_error: float
    ratio: Optional[float]  # error(h_i)/error(h_{i+1}); None below the noise floor


def run_convergence(field_kind: str, steps, seed: int = 42, fields=None) -> List[ConvergenceRow]:
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
    if seed < 0:
        raise ConfigError("seed must be a natural number")
    rng = case_rng(seed, "convergence", 0)
    if fields is None:
        draw = random_field if field_kind == "poly" else random_plane_wave
        fields = [draw(rng) for _ in range(3)]
    points = [random_event(rng).data for _ in range(20)]
    try:
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
