"""Residual evaluators for the operator identities, on blocks.

Each evaluator takes a block of samples and returns the two sides of one
identity as (n, 4) rows: row p at the drawn point X_p and at its derived
point X'_p.  Paravectors and events are (n, 4) rows, fields a block of
``diffops`` (one field per row over the degree-3 exponent table), and one
sample is a block of one.  Each side of a block is evaluated in one stacked
call, the left side first, numeric sides through ``central_differences``.
Identities covered:

* the operators' own identities (the diffop suite): div4 and grad4 against
  sum_k E_k d_k A, the factorization box4 = grad4 div4 = div4 grad4 (exact
  and numeric), additivity and the scalar product rule.  The oracle fields
  (diffops.block_div4_field, block_grad4_field) come from the lowered rows
  and are only evaluated, so each exact-mode pair sets them against the
  jets: two independent derivative codes;

* transport (transport_sides), one rule for div4 with the factor g and grad4
  with the factor g~, which multiplies the moved field (its coefficient rows,
  diffops.block_times) for div4 on a left map and for grad4 on a right map,
  and the operator's value otherwise:
    left map X' = g X:    div4 A|X  = div4' [g A(g^-1 X')]
                          grad4 A|X = g~ * grad4' [A(g^-1 X')]
    right map X' = X g:   div4 A|X  = g * div4' [A(X' g^-1)]
                          grad4 A|X = grad4' [g~ A(X' g^-1)]
* constant right factor: div4[A g] = [div4 A] g (and the grad4 twin), valid
  for every g including singular ones;
* observer rotation X' = L X L~ for orthogonal L (det = 1);
* the four wave-operator invariance forms for orthogonal L, two of which keep
  field values untouched and two of which transform them co-/contra-variantly.
  FORM_ACTIONS gives each form its side and its factor as a function of L;
  form_value, the one value law, takes the field's values (or box4's) at the
  form's pre-image of X', times that factor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .algebra import (
    SingularParavector,
    det_rows,
    inverse_rows,
    left_matrix,
    reverse_rows,
    right_matrix,
)
from .diffops import (
    EXACT,
    DiffMode,
    assemble_box,
    assemble_div,
    assemble_grad,
    block_bundle,
    block_div4_field,
    block_grad4_field,
    block_pullback,
    block_scalar_mul,
    block_times,
    central_differences,
    div4,
    grad4,
    moved_partials,
)
from .kernels import cdot, jets, pv_mul_rows

__all__ = [
    "block_assembly_sides",
    "block_factorization_sides",
    "block_factorization_numeric_sides",
    "block_additivity_sides",
    "block_leibniz_sides",
    "block_numeric_partials",
    "NotOrthogonal",
    "ORTHOGONALITY_TOL",
    "require_orthogonal",
    "transport_sides",
    "right_factor_sides",
    "observer_rotation_sides",
    "pullback_composition_sides",
    "InvarianceForm",
    "FORM_ACTIONS",
    "form_point",
    "form_value",
    "transformed_wave_field",
    "form_value_sides",
    "wave_invariance_sides",
    "TransformedValues",
    "transformed_field_values",
]

ORTHOGONALITY_TOL = 1e-10

Rows = np.ndarray


class NotOrthogonal(ValueError):
    """The transformation paravector does not satisfy det = 1."""


def require_orthogonal(lam: Rows, tol: float = ORTHOGONALITY_TOL) -> None:
    """Refuse a block whose paravectors do not all have det = 1 to within tol, or NaN."""
    gap = np.abs(det_rows(lam) - 1.0)
    if not (gap <= tol).all():
        raise NotOrthogonal(f"|det - 1| = {gap[~(gap <= tol)][0]:.3e} exceeds {tol:.1e}")


def _finite(values: Rows) -> Rows:
    """Operator values, refused as a Paravector refuses them when not finite."""
    if not np.isfinite(values).all():
        raise ValueError("components must be finite")
    return values


# -- the operators' own identities ---------------------------------------------

def block_assembly_sides(f, xs: np.ndarray):
    """(div4 A, the value of sum_k E_k d_k A) and the same pair for grad4."""
    d = jets(f, xs, 1)[1]
    return ((assemble_div(d), jets(block_div4_field(f), xs, 0)[0]),
            (assemble_grad(d), jets(block_grad4_field(f), xs, 0)[0]))


def block_factorization_sides(f, xs: np.ndarray):
    """box4 A, and the values of grad4 div4 A and of div4 grad4 A built from
    the lowered rows: the wave operator factors both ways."""
    return (assemble_box(jets(f, xs, 2)[2]),
            jets(block_grad4_field(block_div4_field(f)), xs, 0)[0],
            jets(block_div4_field(block_grad4_field(f)), xs, 0)[0])


def block_factorization_numeric_sides(f, xs: np.ndarray, h: float):
    """grad4 of numeric div4 A, and numeric box4 A, both at step h.

    Numeric box4 and the numeric div4 that grad4 differences nest the same
    two stencils, so one nested stencil gives both: the outer stencil's value
    function differences the inner one and returns, at each of its points,
    the derivative along the coordinate that point moves (for box4) beside
    div4 (for grad4).
    """
    def firsts(pts):  # the outer stencil (n, 8, 4)
        d = central_differences(lambda q: jets(f, q, 0)[0], pts, h)
        return np.concatenate([moved_partials(d), assemble_div(d)], axis=-1)

    d = central_differences(firsts, xs, h)  # d[p, column, coordinate]
    return assemble_grad(d[:, 4:]), assemble_box(d[:, :4])


def block_additivity_sides(f, g, xs: np.ndarray):
    """div4(f + g) and div4 f + div4 g for the unframed blocks f, with no
    phase, and g.  Where g has no phase the rows add on the table; where it
    has one, f + g is two groups whose jets add, as in Field.sum."""
    _, k, cg = g
    wave = k.any(axis=1)[:, None, None]
    both = (jets((None, None, f[2] + np.where(wave, 0, cg)), xs, 1)[1]
            + jets((None, k, np.where(wave, cg, 0)), xs, 1)[1])
    return assemble_div(both), (assemble_div(jets(f, xs, 1)[1])
                                + assemble_div(jets(g, xs, 1)[1]))


def block_leibniz_sides(rho: np.ndarray, f, xs: np.ndarray):
    """div4[rho f] and (d rho) f + rho div4 f for the scalars rho (n, 35) on the
    degree-3 table and the unframed block f, equal by the scalar product rule.

    rho is scalar, so (d rho) = [drho/dt; grad rho] is div4 rho.  The (d rho)
    factor multiplies on the left, the only order for which the rule holds;
    see diffops.scalar_order_gap.  The product rho f takes 13 KB a row on the
    degree-6 table, so it is built and differentiated 4 rows at a time."""
    scalar = np.zeros(rho.shape + (4,), np.complex128)
    scalar[..., 0] = rho
    rv, drho = jets((None, None, scalar), xs, 1)
    fv, df = jets(f, xs, 1)
    parts = []
    for i in range(0, len(xs), 4):
        rows = tuple(None if a is None else a[i:i + 4] for a in f)
        parts.append(assemble_div(jets(block_scalar_mul(rho[i:i + 4], rows), xs[i:i + 4], 1)[1]))
    lhs = np.concatenate(parts)
    return lhs, pv_mul_rows(assemble_div(drho), fv) + rv[:, :1] * assemble_div(df)


def block_numeric_partials(f, xs: np.ndarray, *steps: float):
    """At each point xs[p, j] of an (n, k, 4) stack, row p's numeric partials
    for each step, then its exact ones (jets), all as d[p, j, component,
    coordinate], and per row the largest component magnitude over the stencil
    points differenced (a point with a NaN value skipped)."""
    values = []

    def value_fn(pts):
        values.append(jets(f, pts, 0)[0])
        return values[-1]

    nums = [central_differences(value_fn, xs, h) for h in steps]
    loc = np.fmax(np.abs(np.array(values)).max(axis=-1), 0.0).max(axis=(0, 2, 3))
    return (*nums, jets(f, xs, 1)[1], loc)


# -- transport, rotation and wave invariance ---------------------------------

def transport_sides(
    op, right: bool, g: Rows, f, xs: Rows, mode: DiffMode = EXACT
) -> Tuple[Rows, Rows]:
    """op A at X, and op' at X' = X g (``right``) or X' = g X of A moved there.

    ``op`` is div4, with the factor g, or grad4, with the factor g~; the
    module docstring says where the factor goes.  g needs |det g| >= 0.1, so
    that its inverse is well conditioned.
    """
    if op is not div4 and op is not grad4:
        raise ValueError("transport_sides takes div4 or grad4")
    d = det_rows(g)
    if (np.hypot(d.real, d.imag) < 0.1).any():  # hypot is abs() of a complex
        raise SingularParavector(
            "transport cases require |det| >= 0.1 for well-conditioned inverses"
        )
    factor = g if op is div4 else reverse_rows(g)
    inside = (op is div4) != right  # the factor multiplies the moved values
    xp = pv_mul_rows(xs, g) if right else pv_mul_rows(g, xs)
    moved = block_pullback(f, (right_matrix if right else left_matrix)(inverse_rows(g)))
    if inside:
        moved = block_times(moved, left_matrix(factor))
    assemble = assemble_div if op is div4 else assemble_grad
    d = block_bundle(f, xs, mode), block_bundle(moved, xp, mode)
    lhs, rhs = (_finite(assemble(side)) for side in d)
    return lhs, rhs if inside else pv_mul_rows(factor, rhs)


def right_factor_sides(
    f, g: Rows, xs: Rows, mode: DiffMode = EXACT
) -> Tuple[Tuple[Rows, Rows], Tuple[Rows, Rows]]:
    """(div4[A g], [div4 A] g) and (grad4[A g], [grad4 A] g).

    Needs no inverse, so it holds for singular g as well.
    """
    d = block_bundle(block_times(f, right_matrix(g)), xs, mode), block_bundle(f, xs, mode)
    return tuple((_finite(assemble(d[0])), pv_mul_rows(_finite(assemble(d[1])), g))
                 for assemble in (assemble_div, assemble_grad))


def observer_rotation_sides(f, lam: Rows, xps: Rows) -> Tuple[Rows, Rows]:
    """div4'[L A(L~ X' L) L~] at X', and L [B(L~ X' L)] L~ with B = div4 A.

    X' is the rotated-frame point (X' = L X L~ for the drawn X); the pre-image
    L~ X' L recovers X because det L = 1.
    """
    require_orthogonal(lam)
    rlam = reverse_rows(lam)
    to_pre = cdot("...ij,...jk->...ik", right_matrix(lam), left_matrix(rlam))  # X -> L~ X L
    moved = block_times(block_pullback(f, to_pre), left_matrix(lam))
    moved = block_times(moved, right_matrix(rlam))
    pre = pv_mul_rows(pv_mul_rows(rlam, xps), lam)
    d = block_bundle(moved, xps), block_bundle(f, pre)
    lhs, b = (_finite(assemble_div(side)) for side in d)
    return lhs, pv_mul_rows(pv_mul_rows(lam, b), rlam)


def pullback_composition_sides(g1: Rows, g2: Rows, f, xs: Rows) -> Tuple[Rows, Rows]:
    """A pulled back along X -> g1^-1 X, then along X -> g2^-1 X, and A pulled
    back once along X -> (g2 g1)^-1 X, both at X."""
    twice = block_pullback(block_pullback(f, left_matrix(inverse_rows(g1))),
                           left_matrix(inverse_rows(g2)))
    once = block_pullback(f, left_matrix(inverse_rows(pv_mul_rows(g2, g1))))
    return jets(twice, xs, 0)[0], jets(once, xs, 0)[0]


class InvarianceForm(enum.IntEnum):
    """The four wave-operator invariance constructions.

    FORM1: right map, values untouched      box4' A(X' L~)       = B(X' L~)
    FORM2: right map, contravariant values  box4'[L~ A(X' L~)]   = L~ B(X' L~)
    FORM3: left map, covariant values       box4'[L A(L~ X')]    = L  B(L~ X')
    FORM4: left map, values untouched       box4' A(L~ X')       = B(L~ X')
    """

    FORM1 = 1
    FORM2 = 2
    FORM3 = 3
    FORM4 = 4


#: form -> (whether it maps on the right, X' = X L rather than X' = L X;
#: the factor that multiplies its values on the left, as a function of L, or None)
FORM_ACTIONS = {
    InvarianceForm.FORM1: (True, None),
    InvarianceForm.FORM2: (True, reverse_rows),
    InvarianceForm.FORM3: (False, lambda lam: lam),
    InvarianceForm.FORM4: (False, None),
}


def form_point(form: InvarianceForm, g: Rows, xs: Rows) -> Rows:
    """X g for forms 1 and 2, g X for forms 3 and 4, row by row.

    With g = L it maps X to X'; with g = L~ it maps X' back to X.
    """
    return pv_mul_rows(xs, g) if FORM_ACTIONS[form][0] else pv_mul_rows(g, xs)


def form_value(form: InvarianceForm, lam: Rows, xps: Rows, value) -> Rows:
    """The form's value law at X': ``value`` (the field's values, or box4's,
    at points) at the pre-image of X', times the form's factor."""
    factor = FORM_ACTIONS[form][1]
    values = value(form_point(form, reverse_rows(lam), xps))
    return values if factor is None else pv_mul_rows(factor(lam), values)


def transformed_wave_field(form: InvarianceForm, f, lam: Rows):
    """The primed-frame fields whose box4 the selected form takes: each row
    pulled back to the pre-image of X', its values times the form's factor."""
    right, factor = FORM_ACTIONS[InvarianceForm(form)]
    moved = block_pullback(f, (right_matrix if right else left_matrix)(reverse_rows(lam)))
    return moved if factor is None else block_times(moved, left_matrix(factor(lam)))


def form_value_sides(form: InvarianceForm, f, lam: Rows, xps: Rows) -> Tuple[Rows, Rows]:
    """The form's moved fields at X', and its value law there."""
    return (jets(transformed_wave_field(form, f, lam), xps, 0)[0],
            form_value(form, lam, xps, lambda pre: jets(f, pre, 0)[0]))


def wave_invariance_sides(form: InvarianceForm, f, lam: Rows, xps: Rows) -> Tuple[Rows, Rows]:
    """The two sides of the selected invariance form at the primed points X':
    box4' of its moved fields, and its value law on B = box4 A."""
    require_orthogonal(lam)
    lhs = _finite(assemble_box(jets(transformed_wave_field(form, f, lam), xps, 2)[2]))
    return lhs, form_value(form, lam, xps, lambda pre: _finite(assemble_box(jets(f, pre, 2)[2])))


@dataclass(frozen=True)
class TransformedValues:
    """The three candidate value-transformation laws at the pre-image points, as rows."""

    invariant: Rows
    covariant: Rows
    contravariant: Rows


def transformed_field_values(f, lam: Rows, xps: Rows) -> TransformedValues:
    """A' = A, A' = L A and A' = L~ A at the pre-image of X': the value laws
    of forms 4, 3 and 2.

    The invariant and covariant laws read the field at the left-map pre-image
    L~ X'; the contravariant law reads it at the right-map pre-image X' L~.
    """
    require_orthogonal(lam)
    return TransformedValues(*(form_value(form, lam, xps, lambda pre: jets(f, pre, 0)[0])
                               for form in (InvarianceForm.FORM4, InvarianceForm.FORM3,
                                            InvarianceForm.FORM2)))
