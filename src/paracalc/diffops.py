"""The space-time operators: 4-divergence, 4-gradient, and the wave operator.

Acting on a field A = [phi; Phi]:

    div4  A = [ dphi/dt + div Phi ; dPhi/dt + grad phi + i curl Phi ]
    grad4 A = [ dphi/dt - div Phi ; dPhi/dt - grad phi - i curl Phi ]
    box4  A = (d^2/dt^2 - laplacian) A   componentwise

Each operator runs in exact mode (the closed-form partial fields of
``Field.partial``, evaluated at the point) or numeric mode (central
differences with a caller-chosen step).  Blocks, one field per row as arrays,
take their exact partials from ``kernels.jets`` instead, which takes a block
whole.  The module also provides the two documented failure witnesses of
the product rule, each built from one bundle per field.
``central_differences`` is the one numeric stencil, the independent oracle for
the closed-form partials: it differences points (..., 4) along every
coordinate at once, as 8 copies (..., 8, 4) each, and returns
d[..., component, coordinate], the layout of ``bundle`` and the jets.
``max_partial_errors`` measures those numeric partials against the exact
ones for each step, in passes of steps (the convergence tables) sized by
the sweep's own budget, ``_SWEEP_BUDGET``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from . import kernels
from .algebra import Event, Paravector, left_matrix, mul
from .fields import Field

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
    "block_bundle",
    "block_pullback",
    "block_times",
    "block_partial",
    "block_div4_field",
    "block_grad4_field",
    "block_scalar_mul",
    "product_rule_failure_witness",
    "scalar_order_gap",
    "central_differences",
    "moved_partials",
    "max_partial_errors",
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

    Rows are (phi, Phi_x, Phi_y, Phi_z); columns are (t, x, y, z).  Exact
    mode evaluates the four partial fields of ``Field.partial`` at X in one
    ``Field._values`` call.
    """
    if isinstance(mode, Numeric):
        return central_differences(f._value, X.data, mode.h)
    return np.stack(Field._values([f.partial(c) for c in range(4)], X.data), axis=-1)


def assemble_div(d: np.ndarray) -> np.ndarray:
    """Combine a bundle (..., 4, 4) into the 4-divergence value: [dt phi + div ; ...]."""
    out = np.empty(d.shape[:-1], np.complex128)
    out[..., 0] = d[..., 0, 0] + d[..., 1, 1] + d[..., 2, 2] + d[..., 3, 3]
    out[..., 1] = d[..., 1, 0] + d[..., 0, 1] + 1j * (d[..., 3, 2] - d[..., 2, 3])
    out[..., 2] = d[..., 2, 0] + d[..., 0, 2] + 1j * (d[..., 1, 3] - d[..., 3, 1])
    out[..., 3] = d[..., 3, 0] + d[..., 0, 3] + 1j * (d[..., 2, 1] - d[..., 1, 2])
    return out


def assemble_grad(d: np.ndarray) -> np.ndarray:
    """Combine a bundle (..., 4, 4) into the 4-gradient value (nabla terms negated)."""
    out = np.empty(d.shape[:-1], np.complex128)
    out[..., 0] = d[..., 0, 0] - (d[..., 1, 1] + d[..., 2, 2] + d[..., 3, 3])
    out[..., 1] = d[..., 1, 0] - d[..., 0, 1] - 1j * (d[..., 3, 2] - d[..., 2, 3])
    out[..., 2] = d[..., 2, 0] - d[..., 0, 2] - 1j * (d[..., 1, 3] - d[..., 3, 1])
    out[..., 3] = d[..., 3, 0] - d[..., 0, 3] - 1j * (d[..., 2, 1] - d[..., 1, 2])
    return out


def assemble_box(d2: np.ndarray) -> np.ndarray:
    """Combine repeated second partials (..., 4, 4) into the wave operator's value."""
    return d2[..., 0] - d2[..., 1] - d2[..., 2] - d2[..., 3]


def div4(f: Field, X: Event, mode: DiffMode = EXACT) -> Paravector:
    """4-divergence of the field at X."""
    return Paravector.from_data(assemble_div(bundle(f, X, mode)))


def grad4(f: Field, X: Event, mode: DiffMode = EXACT) -> Paravector:
    """4-gradient (the reversed operator: every nabla term enters negated)."""
    return Paravector.from_data(assemble_grad(bundle(f, X, mode)))


def _second_partials(f: Field, X: Event, mode: DiffMode) -> np.ndarray:
    """d2[component, coordinate]: repeated partial along each coordinate.

    Numeric mode checks that the step moves each coordinate of X before it
    checks the inner stencils, so a step that fails both names the former.
    """
    if isinstance(mode, Numeric):
        def firsts(xs):  # the outer stencil's copies, each differenced along its own move
            return moved_partials(central_differences(f._value, xs, mode.h))

        return central_differences(firsts, X.data, mode.h)
    return np.stack(Field._values([f.partial(c).partial(c) for c in range(4)], X.data), axis=-1)


def box4(f: Field, X: Event, mode: DiffMode = EXACT) -> Paravector:
    """Componentwise wave operator; numeric mode nests the same-step differences."""
    return Paravector.from_data(assemble_box(_second_partials(f, X, mode)))


# -- blocks: one field per row ------------------------------------------------
#
# A block holds n fields P(M X) e^{k.X}, one per row, as arrays over one
# exponent table, every monomial of degree <= 3: (m, k, c) with frames
# m (n, 4, 4), phases k (n, 4) and coefficients c (n, 35, 4).  None stands
# for identity frames and for no phase.  A dense polynomial fills c; a plane
# wave is the constant row of c (row 0) with its phase.  A constant factor on
# the values, such as left_matrix(h) for h A, multiplies the coefficient rows
# (block_times), as Field._times does.  The table is
# kernels._degree_exponents(3).


def block_bundle(f, xs: np.ndarray, mode: DiffMode = EXACT) -> np.ndarray:
    """The first partials d[p, component, coordinate] of row p's field at xs[p].

    Numeric mode differences the block's stencil (n, 8, 4), row p's copies
    its jets' points, in one ``central_differences`` call, so a step that
    does not move it names the first point it leaves in place.
    """
    if not isinstance(mode, Numeric):
        return kernels.jets(f, xs, 1)[1]
    return central_differences(lambda pts: kernels.jets(f, pts, 0)[0], xs, mode.h)


def block_pullback(f, maps: np.ndarray):
    """Row p's field pulled back along maps[p] (n, 4, 4): frame m A, phase A^T k."""
    m, k, c = f
    return (maps if m is None else kernels.cdot("...ij,...jk->...ik", m, maps),
            None if k is None else kernels.cdot("...i,...ij->...j", k, maps), c)


def block_times(f, matrices: np.ndarray):
    """Row p's values times matrices[p] (n, 4, 4), such as left_matrix(h) for h A:
    each coefficient row times its matrix, as Field._times multiplies it, one
    component at a time, so no temporary outgrows the coefficients."""
    m, k, c = f
    out = np.empty_like(c)
    for i in range(4):
        out[..., i] = (c * matrices[:, None, i]).sum(axis=-1)
    return m, k, out


def block_partial(f, c: int):
    """The partial along coordinate c of every row of the block f, on its table.

    Field._partial's rule on the table's rows: each coefficient times its
    exponent j moves to the row lowered along j, and a phase adds k_c times
    the row.  An unframed row lowers along c; a frame M takes
    sum_j M[j, c] d_j P (M X), so the frame stays.
    """
    m, k, coeffs = f
    out = np.zeros_like(coeffs) if k is None else k[:, c, None, None] * coeffs
    rows, weight = kernels.lowering(kernels.TABLE_DEGREE[coeffs.shape[-2]], 5)
    for j in (c,) if m is None else range(4):
        src = np.flatnonzero(weight[1 + j])  # slot 1 + j is d_j
        low = coeffs[:, src] * weight[1 + j, src, None]
        out[:, rows[1 + j, src]] += low if m is None else m[:, j, c, None, None] * low
    return m, k, out


def _operator_field(f, signs):
    """sum_c E_c (d_c A) on a block, E_c the unit paravectors times signs[c].

    Component i of E_c A is one component of A times +-1 or +-i, so each
    term is exact, and the terms add in the order of c, as Field.sum adds
    the four partial fields.
    """
    m, k, coeffs = f
    units = left_matrix(np.diag(np.array(signs, np.complex128)))  # column j is E_c e_j
    source = np.abs(units).argmax(axis=-1)  # [c, i]: the component of A in (E_c A)_i
    out = np.zeros_like(coeffs)
    for c in range(4):
        d = block_partial(f, c)[2]
        for i, j in enumerate(source[c]):
            out[..., i] += units[c, i, j] * d[..., j]
    return m, k, out


def block_div4_field(f):
    """div4 of every row of the block f as a block: sum_c E_c d_c A from
    block_partial, the lowered rows, never from jets."""
    return _operator_field(f, (1, 1, 1, 1))


def block_grad4_field(f):
    """grad4 of every row of the block f as a block (the nabla terms negated)."""
    return _operator_field(f, (1, -1, -1, -1))


def block_scalar_mul(rho: np.ndarray, f):
    """rho f for the scalars rho (n, 35) and the unframed block f, on the
    degree-6 table: row p's product P_rho P_f, with f's phase.

    Term i of rho times term t of f lands on the row of e_i + e_t, a fixed
    table built on first use.  For each i those rows are distinct, so the
    products add onto each row in order of rho's terms, as Field.scalar_mul
    adds them, and every operation is elementwise.
    """
    m, k, coeffs = f
    if m is not None:
        raise ValueError("block_scalar_mul takes unframed rows")
    out = np.zeros((len(coeffs), len(kernels._degree_exponents(6)), 4), np.complex128)
    for i, to in enumerate(_product_rows()):
        out[:, to] += rho[:, i, None, None] * coeffs
    return None, k, out


@functools.cache
def _product_rows() -> np.ndarray:
    """[i, t]: the row of e_i + e_t on the degree-6 table, for the terms i
    and t of the degree-3 table."""
    low = kernels._degree_exponents(3)
    rows = kernels.table_rows(6, low[:, None] + low[None, :])
    rows.flags.writeable = False
    return rows


# -- witnesses ---------------------------------------------------------------

def product_rule_failure_witness(f: Field, g: Field, X: Event) -> Paravector:
    """div4[f g] - (div4 f) g - f (div4 g) with pointwise paravector products.

    Unlike the scalar case this residual is generically nonzero; the suites pin
    a floor under a stored witness pair rather than a tolerance above it.
    div4[f g] is computed from the componentwise (complex-bilinear) product
    rule, which does hold per coordinate partial; div4 f and div4 g come from
    the same bundles.
    """
    fv, gv = Field._values((f, g), X.data)
    df, dg = bundle(f, X, EXACT), bundle(g, X, EXACT)
    # each column's (d_c f) g and f (d_c g), then (div4 f) g and f (div4 g): one product
    p = kernels.pv_mul_rows(np.vstack([df.T, [fv] * 4, assemble_div(df), fv]),
                            np.vstack([[gv] * 4, dg.T, gv, assemble_div(dg)]))
    return Paravector.from_data(assemble_div((p[:4] + p[4:8]).T) - (p[8] + p[9]))


def scalar_order_gap(rho: Field, a: Paravector, X: Event) -> Paravector:
    """(d rho) A - A (d rho): the cost of reordering the scalar product rule."""
    drho = div4(rho, X)
    return Paravector.from_data(mul(drho, a).data - mul(a, drho).data)


def central_differences(value_fn, xs: np.ndarray, h: float) -> np.ndarray:
    """d[..., component, coordinate] = (value(x + h e_c) - value(x - h e_c)) / 2h
    at each point x of a stack xs (..., 4), a single point (4,) included.

    Each point is differenced along the real axis of coordinate c, which
    recovers the complex partial because every field is holomorphic per
    coordinate.  value_fn is called once, on each point's 8 copies
    (..., 8, 4) of ``_stencil``, and returns their values (..., 8, W).
    Raises ValueError for the first point and coordinate, in C order, where
    x[c] +- h rounds back to x[c]: such a stencil differences nothing and
    would read every derivative as zero.
    """
    return _differences(value_fn(_stencil(xs, [h])[0]), h)


def _differences(v: np.ndarray, h) -> np.ndarray:
    """d[..., component, coordinate] from the values v (..., 8, W) of a stencil at step h."""
    return np.swapaxes(v[..., :4, :] - v[..., 4:, :], -1, -2) / (2.0 * h)


def moved_partials(d: np.ndarray) -> np.ndarray:
    """d[..., r, :, r % 4] (..., 8, W) of differences d (..., 8, W, 4) at a
    stencil's copies r: each copy's partials along the coordinate it moves."""
    return np.swapaxes(d, -1, -2)[..., np.arange(8), np.arange(8) % 4, :]


def _stencil(xs: np.ndarray, steps) -> np.ndarray:
    """central_differences' points for each step, (steps, ..., 8, 4): copy c
    of each point has its coordinate c moved by +h, and copy 4 + c by -h.

    The copies are shifted in that coordinate only, so no -0.0 in another
    coordinate turns into +0.0.  Checked step by step, in order: the first
    step that leaves a coordinate of a point where it was raises ValueError,
    naming its first such point and coordinate, in C order.
    """
    c = np.arange(4)  # copies c and 4 + c of a point move its coordinate c
    h = np.reshape(np.array(steps, dtype=np.float64), (-1,) + (1,) * xs.ndim)
    stencil = np.broadcast_to(xs[..., None, :], h.shape[:1] + xs.shape[:-1] + (8, 4)).copy()
    stencil[..., c, c] += h
    stencil[..., 4 + c, c] -= h
    still = (stencil[..., c, c] == xs) | (stencil[..., 4 + c, c] == xs)
    for step, moved in zip(steps, still):
        if moved.any():
            at = tuple(np.argwhere(moved)[0])
            raise ValueError(f"step {step!r} does not move coordinate {at[-1]} from {complex(xs[at])!r}")
    return stencil


_SWEEP_BUDGET = 12288  # doubles in a pass of max_partial_errors (96 KB), apart from the jets'


def max_partial_errors(fields, points, steps) -> list[float]:
    """Per step h, max |central difference - exact partial| over fields x points x coordinates.

    The exact partials do not depend on h, so each is evaluated once, on the
    stack of points: every field's four ``Field.partial`` fields in one
    ``Field._values`` call.  The steps run in passes of consecutive steps: a pass
    builds one stencil for its steps (``_stencil``, checked step by step, in
    order) and evaluates every field on it in one ``Field._values`` call, so
    polynomials on one exponent table share their monomials.  A stencil row
    takes 8 doubles, and 2 per term of the largest group for its monomials;
    a pass takes as many steps as fit in ``_SWEEP_BUDGET`` doubles, at
    least one: one step of three dense cubics at 20 points, seven of plane
    waves.  So memory does not grow with the step count.  NaN propagates, so
    an overflowing step cannot read as a zero error.
    """
    pts = np.array(points, dtype=np.complex128).reshape(-1, 4)
    exact = Field._values([f.partial(c) for f in fields for c in range(4)], pts)
    exact = np.moveaxis(np.reshape(exact, (len(fields), 4, len(pts), 4)), 1, -1)  # d[f, p, i, c]
    terms = max((len(g[2]) for f in fields for g in f._groups), default=0)
    size = max(1, _SWEEP_BUDGET // max(1, 8 * len(pts) * (8 + 2 * terms)))
    return [e for i in range(0, len(steps), size)
            for e in _pass_errors(fields, pts, exact, steps[i:i + size])]


def _pass_errors(fields, pts, exact, steps) -> list[float]:
    """max_partial_errors of one pass of steps: one stencil, one evaluation."""
    stencil = _stencil(pts, steps)
    v = np.reshape(Field._values(fields, stencil), (len(fields),) + stencil.shape)
    num = _differences(v, np.array(steps, dtype=np.float64)[:, None, None, None])
    return np.abs(num - exact[:, None]).max(axis=(0, 2, 3, 4), initial=0.0).tolist()
