"""The space-time operators: 4-divergence, 4-gradient, and the wave operator.

Acting on a field A = [phi; Phi]:

    div4  A = [ dphi/dt + div Phi ; dPhi/dt + grad phi + i curl Phi ]
    grad4 A = [ dphi/dt - div Phi ; dPhi/dt - grad phi - i curl Phi ]
    box4  A = (d^2/dt^2 - laplacian) A   componentwise

Each operator runs in exact mode (closed-form partials of the field) or
numeric mode (central differences with a caller-chosen step).  The module also
provides the two sides of additivity and of the scalar product rule,
and the two documented failure witnesses of the product rule.
``central_differences`` differences a stack of points along every coordinate
at once, and ``max_partial_errors`` measures those numeric partials against
the exact ones, step by step (the convergence tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from . import kernels
from .algebra import BASIS, Event, Paravector
from .fields import Field, central_difference

__all__ = [
    "Exact",
    "Numeric",
    "DiffMode",
    "EXACT",
    "bundle",
    "assemble_div",
    "assemble_grad",
    "div4",
    "grad4",
    "box4",
    "div4_field",
    "grad4_field",
    "additivity_sides",
    "leibniz_sides",
    "product_rule_failure_witness",
    "scalar_order_gap",
]


@dataclass(frozen=True)
class Exact:
    """Differentiate through the closed-form field derivatives."""


@dataclass(frozen=True)
class Numeric:
    """Differentiate by central differences with a finite step h > 0."""

    h: float

    def __post_init__(self):
        if not 0 < self.h < np.inf:
            raise ValueError("step h must be positive and finite")


DiffMode = Union[Exact, Numeric]

EXACT = Exact()


def bundle(f: Field, X: Event, mode: DiffMode) -> np.ndarray:
    """All 16 first partials at X: d[component, coordinate], complex128.

    Rows are (phi, Phi_x, Phi_y, Phi_z); columns are (t, x, y, z).
    """
    d = np.empty((4, 4), np.complex128)
    x = X.data
    if isinstance(mode, Exact):
        for c in range(4):
            d[:, c] = f.partial(c)._value(x)
    else:
        for c in range(4):
            d[:, c] = central_difference(f._value, x, c, mode.h)
    return d


def assemble_div(d: np.ndarray) -> np.ndarray:
    """Combine a bundle into the 4-divergence value: [dt phi + div ; ...]."""
    out = np.empty(4, np.complex128)
    out[0] = d[0, 0] + d[1, 1] + d[2, 2] + d[3, 3]
    out[1] = d[1, 0] + d[0, 1] + 1j * (d[3, 2] - d[2, 3])
    out[2] = d[2, 0] + d[0, 2] + 1j * (d[1, 3] - d[3, 1])
    out[3] = d[3, 0] + d[0, 3] + 1j * (d[2, 1] - d[1, 2])
    return out


def assemble_grad(d: np.ndarray) -> np.ndarray:
    """Combine a bundle into the 4-gradient value (nabla terms negated)."""
    out = np.empty(4, np.complex128)
    out[0] = d[0, 0] - (d[1, 1] + d[2, 2] + d[3, 3])
    out[1] = d[1, 0] - d[0, 1] - 1j * (d[3, 2] - d[2, 3])
    out[2] = d[2, 0] - d[0, 2] - 1j * (d[1, 3] - d[3, 1])
    out[3] = d[3, 0] - d[0, 3] - 1j * (d[2, 1] - d[1, 2])
    return out


def div4(f: Field, X: Event, mode: DiffMode = EXACT) -> Paravector:
    """4-divergence of the field at X."""
    return Paravector.from_data(assemble_div(bundle(f, X, mode)))


def grad4(f: Field, X: Event, mode: DiffMode = EXACT) -> Paravector:
    """4-gradient (the reversed operator: every nabla term enters negated)."""
    return Paravector.from_data(assemble_grad(bundle(f, X, mode)))


def _second_partials(f: Field, X: Event, mode: DiffMode) -> np.ndarray:
    """d2[component, coordinate]: repeated partial along each coordinate."""
    d2 = np.empty((4, 4), np.complex128)
    x = X.data
    if isinstance(mode, Exact):
        for c in range(4):
            d2[:, c] = f.partial(c).partial(c)._value(x)
    else:
        h = mode.h
        for c in range(4):
            def once(xd, _c=c):
                return central_difference(f._value, xd, _c, h)

            d2[:, c] = central_difference(once, x, c, h)
    return d2


def box4(f: Field, X: Event, mode: DiffMode = EXACT) -> Paravector:
    """Componentwise wave operator; numeric mode nests the same-step differences."""
    d2 = _second_partials(f, X, mode)
    return Paravector.from_data(d2[:, 0] - d2[:, 1] - d2[:, 2] - d2[:, 3])


# -- operators as field constructions ----------------------------------------
#
# Summing E_k * (d_k A) over the unit paravectors E_k reproduces the operator
# value at every point, and the sum is again a Field.

_NEG_SPATIAL = (
    Paravector(0.0, (-1.0, 0.0, 0.0)),
    Paravector(0.0, (0.0, -1.0, 0.0)),
    Paravector(0.0, (0.0, 0.0, -1.0)),
)


def div4_field(f: Field) -> Field:
    return Field.sum(*(f.partial(c).left_mul(BASIS[c]) for c in range(4)))


def grad4_field(f: Field) -> Field:
    factors = (BASIS[0],) + _NEG_SPATIAL
    return Field.sum(*(f.partial(c).left_mul(factors[c]) for c in range(4)))


# -- identity sides and witnesses -------------------------------------------

def additivity_sides(
    f: Field, g: Field, X: Event, mode: DiffMode = EXACT
) -> Tuple[Paravector, Paravector]:
    """div4(f + g) and div4(f) + div4(g), equal for analytic additive fields."""
    both = div4(Field.sum(f, g), X, mode)
    return both, Paravector.from_data(div4(f, X, mode).data + div4(g, X, mode).data)


def leibniz_sides(
    rho: Field, f: Field, X: Event, mode: DiffMode = EXACT
) -> Tuple[Paravector, Paravector]:
    """div4[rho f] and (d rho) f + rho div4(f), equal by the scalar product rule.

    rho is a scalar polynomial (zero vector part), so (d rho) = [drho/dt; grad
    rho] is div4(rho).  The (d rho) factor multiplies on the left, which is
    the only order for which the rule is valid; see scalar_order_gap.
    """
    lhs = div4(f.scalar_mul(rho), X, mode)
    drho = div4(rho, X, mode)
    fv = f._value(X.data)
    rv = rho._value(X.data)[0]
    rhs = kernels.pv_mul(drho.data, fv) + rv * div4(f, X, mode).data
    return lhs, Paravector.from_data(rhs)


def product_rule_failure_witness(f: Field, g: Field, X: Event) -> Paravector:
    """div4[f g] - (div4 f) g - f (div4 g) with pointwise paravector products.

    Unlike the scalar case this residual is generically nonzero; the suites pin
    a floor under a stored witness pair rather than a tolerance above it.
    div4[f g] is computed from the componentwise (complex-bilinear) product
    rule, which does hold per coordinate partial.
    """
    x = X.data
    fv = f._value(x)
    gv = g._value(x)
    d = np.empty((4, 4), np.complex128)
    for c in range(4):
        dfc = f.partial(c)._value(x)
        dgc = g.partial(c)._value(x)
        d[:, c] = kernels.pv_mul(dfc, gv) + kernels.pv_mul(fv, dgc)
    lhs = assemble_div(d)
    rhs = kernels.pv_mul(div4(f, X).data, gv) + kernels.pv_mul(fv, div4(g, X).data)
    return Paravector.from_data(lhs - rhs)


def scalar_order_gap(rho: Field, a: Paravector, X: Event) -> Paravector:
    """(d rho) A - A (d rho): the cost of reordering the scalar product rule."""
    drho = div4(rho, X)
    return Paravector.from_data(
        kernels.pv_mul(drho.data, a.data) - kernels.pv_mul(a.data, drho.data)
    )


def central_differences(value_fn, xs: np.ndarray, h: float) -> np.ndarray:
    """central_difference at each point of an (n, 4) stack along each coordinate.

    Row 4 p + c is central_difference(value_fn, xs[p], c, h), bit for bit.
    value_fn is called once, on a stack of 8 n rows: each point with one
    coordinate moved by +h, then the same with -h.  The copies are shifted in
    that coordinate only, as central_difference shifts them, so no -0.0 in
    another coordinate turns into +0.0.  Raises ValueError as
    central_difference does, for the first point and coordinate, in that
    order, that the step does not move.
    """
    c = np.arange(4)  # copy c of a point moves its coordinate c
    stencil = np.broadcast_to(xs[:, None, :], (2, len(xs), 4, 4)).copy()
    stencil[0][:, c, c] += h
    stencil[1][:, c, c] -= h
    still = (stencil[:, :, c, c] == xs).any(axis=0)
    if still.any():
        p, c = np.argwhere(still)[0]
        raise ValueError(f"step {h!r} does not move coordinate {c} from {complex(xs[p, c])!r}")
    v = value_fn(stencil.reshape(-1, 4))
    half = len(v) // 2
    return (v[:half] - v[half:]) / (2.0 * h)


def max_partial_errors(fields, points, steps) -> list[float]:
    """Per step h, max |central difference - exact partial| over fields x points x coordinates.

    The exact partials do not depend on h, so each is evaluated once, on the
    stack of points.  Each step differences each field once, on the stack
    (``central_differences``), so memory does not grow with the step count.
    NaN propagates, so an overflowing step cannot read as a zero error.
    """
    pts = np.array(points, dtype=np.complex128).reshape(-1, 4)
    # rows in central_differences' order: point, then coordinate
    exact = [np.stack([f.partial(c)._value(pts) for c in range(4)], axis=1).reshape(-1, 4)
             for f in fields]
    errors = []
    for h in steps:
        worst = 0.0
        for f, value in zip(fields, exact):
            num = central_differences(f._value, pts, h)
            worst = float(np.maximum(worst, np.max(np.abs(num - value))))
        errors.append(worst)
    return errors
