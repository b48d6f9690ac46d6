"""Residual evaluators for the operator transport identities.

Each evaluator computes the two sides of one identity at corresponding points
X and X' (X drawn, X' derived) and returns them as a pair of field values.
Identities covered:

* transport (transport_sides), one rule for div4 with the factor g and grad4
  with the factor g~, which multiplies the moved field's values for div4 on a
  left map and for grad4 on a right map, and the operator's value otherwise:
    left map X' = g X:    div4 A|X  = div4' [g A(g^-1 X')]
                          grad4 A|X = g~ * grad4' [A(g^-1 X')]
    right map X' = X g:   div4 A|X  = g * div4' [A(X' g^-1)]
                          grad4 A|X = grad4' [g~ A(X' g^-1)]
* constant right factor: div4[A g] = [div4 A] g (and the grad4 twin), valid
  for every g including singular ones;
* observer rotation X' = L X L~ for orthogonal L (det = 1);
* the four wave-operator invariance forms for orthogonal L, two of which keep
  field values untouched and two of which transform them co-/contra-variantly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from .algebra import (
    Event,
    Paravector,
    SingularParavector,
    act_left,
    act_right,
    conjugate_rotate,
    det,
    inverse,
    left_matrix,
    mul,
    reverse,
    right_matrix,
)
from .diffops import DiffMode, EXACT, box4, div4, grad4
from .fields import Field

__all__ = [
    "NotOrthogonal",
    "ORTHOGONALITY_TOL",
    "require_orthogonal",
    "transport_sides",
    "right_factor_sides",
    "observer_rotation_sides",
    "InvarianceForm",
    "FORM_ACTIONS",
    "form_point",
    "form_value",
    "transformed_wave_field",
    "wave_invariance_sides",
    "TransformedValues",
    "transformed_field_values",
]

ORTHOGONALITY_TOL = 1e-10


class NotOrthogonal(ValueError):
    """The transformation paravector does not satisfy det = 1."""


def require_orthogonal(lam: Paravector, tol: float = ORTHOGONALITY_TOL) -> None:
    gap = abs(det(lam) - 1.0)
    if gap > tol:
        raise NotOrthogonal(f"|det - 1| = {gap:.3e} exceeds {tol:.1e}")


def transport_sides(
    op, right: bool, g: Paravector, f: Field, X: Event, mode: DiffMode = EXACT
) -> Tuple[Paravector, Paravector]:
    """op A at X, and op' at X' = X g (``right``) or X' = g X of A moved there.

    ``op`` is div4, with the factor g, or grad4, with the factor g~; the
    module docstring says where the factor goes.  g needs |det g| >= 0.1, so
    that its inverse is well conditioned.
    """
    if op is not div4 and op is not grad4:
        raise ValueError("transport_sides takes div4 or grad4")
    if abs(det(g)) < 0.1:
        raise SingularParavector(
            "transport cases require |det| >= 0.1 for well-conditioned inverses"
        )
    factor = g if op is div4 else reverse(g)
    inside = (op is div4) != right  # the factor multiplies the moved values
    xp = act_right(X, g) if right else act_left(g, X)
    moved = f.pullback((right_matrix if right else left_matrix)(inverse(g)))
    if inside:
        moved = moved.left_mul(factor)
    lhs, rhs = op(f, X, mode), op(moved, xp, mode)
    return lhs, rhs if inside else mul(factor, rhs)


def right_factor_sides(
    f: Field, g: Paravector, X: Event, mode: DiffMode = EXACT
) -> Tuple[Tuple[Paravector, Paravector], Tuple[Paravector, Paravector]]:
    """(div4[A g], [div4 A] g) and (grad4[A g], [grad4 A] g).

    Needs no inverse, so it holds for singular g as well.
    """
    shifted = f.right_mul(g)
    return ((div4(shifted, X, mode), mul(div4(f, X, mode), g)),
            (grad4(shifted, X, mode), mul(grad4(f, X, mode), g)))


def observer_rotation_sides(
    f: Field, lam: Paravector, Xp: Event, mode: DiffMode = EXACT
) -> Tuple[Paravector, Paravector]:
    """div4'[L A(L~ X' L) L~] at X', and L [B(L~ X' L)] L~ with B = div4 A.

    X' is the rotated-frame point (X' = L X L~ for the drawn X); the pre-image
    L~ X' L recovers X because det L = 1.
    """
    require_orthogonal(lam)
    rlam = reverse(lam)
    # X -> L~ X L, the pre-image of X'
    moved = f.pullback(right_matrix(lam) @ left_matrix(rlam)).left_mul(lam).right_mul(rlam)
    lhs = div4(moved, Xp, mode)
    b_val = div4(f, conjugate_rotate(rlam, Xp), mode)
    return lhs, mul(mul(lam, b_val), rlam)


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
#: the factor that multiplies its values on the left, or None)
FORM_ACTIONS = {
    InvarianceForm.FORM1: (True, None),
    InvarianceForm.FORM2: (True, "L~"),
    InvarianceForm.FORM3: (False, "L"),
    InvarianceForm.FORM4: (False, None),
}


def form_point(form: InvarianceForm, g: Paravector, X: Event) -> Event:
    """X g for forms 1 and 2, g X for forms 3 and 4.

    With g = L it maps X to X'; with g = L~ it maps X' back to X.
    """
    return act_right(X, g) if FORM_ACTIONS[form][0] else act_left(g, X)


def _factor(form: InvarianceForm, lam: Paravector) -> Optional[Paravector]:
    factor = FORM_ACTIONS[form][1]
    return None if factor is None else lam if factor == "L" else reverse(lam)


def form_value(form: InvarianceForm, lam: Paravector, value: Paravector) -> Paravector:
    """The form's value law: L~ value for form 2, L value for form 3, else value."""
    factor = _factor(form, lam)
    return value if factor is None else mul(factor, value)


def transformed_wave_field(form: InvarianceForm, f: Field, lam: Paravector) -> Field:
    """The primed-frame field whose box4 the selected form takes: f pulled
    back to the pre-image of X', its values times the form's factor."""
    form = InvarianceForm(form)
    to_pre = right_matrix if FORM_ACTIONS[form][0] else left_matrix
    moved = f.pullback(to_pre(reverse(lam)))
    factor = _factor(form, lam)
    return moved if factor is None else moved.left_mul(factor)


def wave_invariance_sides(
    form: InvarianceForm,
    f: Field,
    lam: Paravector,
    Xp: Event,
    mode: DiffMode = EXACT,
) -> Tuple[Paravector, Paravector]:
    """The two sides of the selected invariance form at the primed point X'.

    Forms 1/2 correspond to X' = X L (right map), forms 3/4 to X' = L X.
    B is box4 of the original field, evaluated at the pre-image of X'.
    """
    require_orthogonal(lam)
    moved = transformed_wave_field(form, f, lam)
    b_val = box4(f, form_point(form, reverse(lam), Xp), mode)
    return box4(moved, Xp, mode), form_value(form, lam, b_val)


@dataclass(frozen=True)
class TransformedValues:
    """The three candidate value-transformation laws at the pre-image point."""

    invariant: Paravector
    covariant: Paravector
    contravariant: Paravector


def transformed_field_values(f: Field, lam: Paravector, Xp: Event) -> TransformedValues:
    """A' = A, A' = L A and A' = L~ A at the pre-image of X'.

    The invariant and covariant laws read the field at the left-map pre-image
    L~ X' (forms 4 and 3); the contravariant law reads it at the right-map
    pre-image X' L~ (form 2).
    """
    require_orthogonal(lam)
    rlam = reverse(lam)
    left_pre = f.at(form_point(InvarianceForm.FORM4, rlam, Xp))
    right_pre = f.at(form_point(InvarianceForm.FORM2, rlam, Xp))
    return TransformedValues(
        invariant=left_pre,
        covariant=form_value(InvarianceForm.FORM3, lam, left_pre),
        contravariant=form_value(InvarianceForm.FORM2, lam, right_pre),
    )
