"""Residual evaluators for the operator transport identities.

Each evaluator compares the two sides of one identity at corresponding points
X and X' (X drawn, X' derived) and returns the difference as a field value.
Identities covered:

* left map X' = g X:    div4 A|X  = div4' [g A(g^-1 X')]
                        grad4 A|X = g~ * grad4' [A(g^-1 X')]
* right map X' = X g:   div4 A|X  = g * div4' [A(X' g^-1)]
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
from typing import Tuple

from . import kernels
from .algebra import (
    Event,
    Paravector,
    SingularParavector,
    act_left,
    act_right,
    conjugate_rotate,
    det,
    inverse,
    mul,
    reverse,
)
from .diffops import DiffMode, EXACT, box4, div4, grad4
from .fields import Field, LeftMulField, LinearMap, PullbackField, RightMulField

__all__ = [
    "NotOrthogonal",
    "ORTHOGONALITY_TOL",
    "require_orthogonal",
    "TransformCase",
    "div_left_transport_residual",
    "grad_left_transport_residual",
    "div_right_transport_residual",
    "grad_right_transport_residual",
    "right_factor_residuals",
    "observer_rotation_sides",
    "InvarianceForm",
    "transformed_wave_field",
    "wave_invariance_residual",
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


@dataclass(frozen=True)
class TransformCase:
    """One transport-identity check: transformation, field, base point, mode."""

    gamma: Paravector
    f: Field
    X: Event
    mode: DiffMode = EXACT

    def __post_init__(self):
        if abs(det(self.gamma)) < 0.1:
            raise SingularParavector(
                "transport cases require |det| >= 0.1 for well-conditioned inverses"
            )


def div_left_transport_residual(case: TransformCase) -> Paravector:
    """div4 A at X minus div4'[Gamma A(Gamma^-1 X')] at X' = Gamma X."""
    g = case.gamma
    xp = act_left(g, case.X)
    moved = LeftMulField(g, PullbackField(LinearMap.left_action(inverse(g)), case.f))
    lhs = div4(case.f, case.X, case.mode)
    rhs = div4(moved, xp, case.mode)
    return Paravector.from_data(lhs.data - rhs.data)


def grad_left_transport_residual(case: TransformCase) -> Paravector:
    """grad4 A at X minus Gamma~ * grad4'[A(Gamma^-1 X')]; the reversed factor
    multiplies after the operator is applied."""
    g = case.gamma
    xp = act_left(g, case.X)
    moved = PullbackField(LinearMap.left_action(inverse(g)), case.f)
    lhs = grad4(case.f, case.X, case.mode)
    rhs = mul(reverse(g), grad4(moved, xp, case.mode))
    return Paravector.from_data(lhs.data - rhs.data)


def div_right_transport_residual(case: TransformCase) -> Paravector:
    """div4 A at X minus Gamma * div4'[A(X' Gamma^-1)] at X' = X Gamma."""
    g = case.gamma
    xp = act_right(case.X, g)
    moved = PullbackField(LinearMap.right_action(inverse(g)), case.f)
    lhs = div4(case.f, case.X, case.mode)
    rhs = mul(g, div4(moved, xp, case.mode))
    return Paravector.from_data(lhs.data - rhs.data)


def grad_right_transport_residual(case: TransformCase) -> Paravector:
    """grad4 A at X minus grad4'[Gamma~ A(X' Gamma^-1)] at X' = X Gamma."""
    g = case.gamma
    xp = act_right(case.X, g)
    moved = LeftMulField(
        reverse(g), PullbackField(LinearMap.right_action(inverse(g)), case.f)
    )
    lhs = grad4(case.f, case.X, case.mode)
    rhs = grad4(moved, xp, case.mode)
    return Paravector.from_data(lhs.data - rhs.data)


def right_factor_residuals(
    f: Field, g: Paravector, X: Event, mode: DiffMode = EXACT
) -> Tuple[Paravector, Paravector]:
    """div4[A g] - [div4 A] g and grad4[A g] - [grad4 A] g.

    Needs no inverse, so it holds for singular g as well.
    """
    shifted = RightMulField(f, g)
    d = Paravector.from_data(
        div4(shifted, X, mode).data - kernels.pv_mul(div4(f, X, mode).data, g.data)
    )
    gr = Paravector.from_data(
        grad4(shifted, X, mode).data - kernels.pv_mul(grad4(f, X, mode).data, g.data)
    )
    return d, gr


def observer_rotation_sides(
    f: Field, lam: Paravector, Xp: Event, mode: DiffMode = EXACT
) -> Tuple[Paravector, Paravector]:
    """div4'[L A(L~ X' L) L~] at X', and L [B(L~ X' L)] L~ with B = div4 A.

    X' is the rotated-frame point (X' = L X L~ for the drawn X); the pre-image
    L~ X' L recovers X because det L = 1.
    """
    require_orthogonal(lam)
    rlam = reverse(lam)
    moved = RightMulField(
        LeftMulField(lam, PullbackField(LinearMap.conjugation(rlam), f)), rlam
    )
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


def transformed_wave_field(form: InvarianceForm, f: Field, lam: Paravector) -> Field:
    """The primed-frame field whose box4 the selected form takes.

    Forms 1 and 4 wrap the *same* field object in a pullback (values are
    untouched); forms 2 and 3 additionally multiply by L~ resp. L.
    """
    rlam = reverse(lam)
    form = InvarianceForm(form)
    if form is InvarianceForm.FORM1:
        return PullbackField(LinearMap.right_action(rlam), f)
    if form is InvarianceForm.FORM2:
        return LeftMulField(rlam, PullbackField(LinearMap.right_action(rlam), f))
    if form is InvarianceForm.FORM3:
        return LeftMulField(lam, PullbackField(LinearMap.left_action(rlam), f))
    return PullbackField(LinearMap.left_action(rlam), f)


def wave_invariance_residual(
    form: InvarianceForm,
    f: Field,
    lam: Paravector,
    Xp: Event,
    mode: DiffMode = EXACT,
) -> Paravector:
    """Residual of the selected invariance form at the primed point X'.

    Forms 1/2 correspond to X' = X L (right map), forms 3/4 to X' = L X.
    B is box4 of the original field, evaluated at the pre-image of X'.
    """
    require_orthogonal(lam)
    rlam = reverse(lam)
    form = InvarianceForm(form)
    moved = transformed_wave_field(form, f, lam)
    if form in (InvarianceForm.FORM1, InvarianceForm.FORM2):
        pre = act_right(Xp, rlam)
    else:
        pre = act_left(rlam, Xp)
    b_val = box4(f, pre, mode)
    if form is InvarianceForm.FORM2:
        rhs = mul(rlam, b_val)
    elif form is InvarianceForm.FORM3:
        rhs = mul(lam, b_val)
    else:
        rhs = b_val
    lhs = box4(moved, Xp, mode)
    return Paravector.from_data(lhs.data - rhs.data)


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
    left_pre = f.at(act_left(rlam, Xp))
    right_pre = f.at(act_right(Xp, rlam))
    return TransformedValues(
        invariant=left_pre,
        covariant=mul(lam, left_pre),
        contravariant=mul(rlam, right_pre),
    )
