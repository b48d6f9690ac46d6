"""Electromagnetic embedding: potentials -> field paravector -> sources.

With the c-scaled operators (time derivative divided by c):

    (0; E + icB)        = [d/c dt; -grad] (phi; -cA)
    (1/eps0)(rho; -j/c) = [d/c dt;  grad] (0; E + icB)

and chaining the two gives the c-scaled wave system for the potential.  The
point values are the operators' own paravectors: em_from_potential returns
(gauge; E + icB), whose scalar part is the Lorenz-gauge diagnostic (0 in that
gauge), and sources_from_em returns (rho/eps0; -j/(c eps0)).

The c-scaling reuses the generic operators on a time-rescaled pullback: with
tau = c t, a field g(tau, r) = f(tau/c, r) satisfies d g/d tau = (1/c) df/dt,
so evaluating div4/grad4/box4 of g at (c t, r) applies the c-scaled operator
to f at (t, r).  Potential fields are functions of the physical event (t, r);
electromagnetic-field and source *fields* returned by this module live on the
rescaled (tau, r) domain and are evaluated through the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .algebra import Event, Paravector
from .diffops import DiffMode, EXACT, box4, div4, div4_field, grad4, grad4_field
from .fields import Field, as_rng, random_scalar_field

__all__ = [
    "PhysConstants",
    "NonTransverse",
    "ZeroWaveVector",
    "PotentialField",
    "em_from_potential",
    "em_field_from_potential",
    "sources_from_em",
    "source_field_from_em",
    "wave_sides",
    "plane_wave_potential",
    "lorenz_gauge_potential",
]


@dataclass(frozen=True)
class PhysConstants:
    """Speed of light and vacuum permittivity; both default to 1."""

    c: float = 1.0
    eps0: float = 1.0

    def __post_init__(self):
        if not (0 < self.c < np.inf and 0 < self.eps0 < np.inf):
            raise ValueError("physical constants must be positive and finite")


class NonTransverse(ValueError):
    """Plane-wave polarization is not orthogonal to the wave vector."""


class ZeroWaveVector(ValueError):
    """Plane waves need a nonzero wave vector."""


@dataclass(frozen=True)
class PotentialField:
    """A field over physical (t, r) whose value reads as (phi; -cA)."""

    f: Field


def _tau_event(X: Event, c: float) -> Event:
    if c == 1.0:
        return X
    data = X.data.copy()
    data[0] *= c
    return Event.from_data(data)


def _time_scaled(f: Field, c: float) -> Field:
    if c == 1.0:
        return f
    return f.pullback(np.diag((1.0 / c, 1.0, 1.0, 1.0)))


def em_from_potential(
    pot: PotentialField, X: Event, k: PhysConstants = PhysConstants(), mode: DiffMode = EXACT
) -> Paravector:
    """c-scaled 4-gradient of the potential at X.

    Its scalar part is the Lorenz-gauge diagnostic (about 0 in Lorenz gauge;
    reported, never raised), and its vector part is F = E + icB.
    """
    return grad4(_time_scaled(pot.f, k.c), _tau_event(X, k.c), mode)


def em_field_from_potential(pot: PotentialField, k: PhysConstants = PhysConstants()) -> Field:
    """The electromagnetic field as a field on the rescaled (tau, r) domain."""
    return grad4_field(_time_scaled(pot.f, k.c))


def sources_from_em(
    emf: Field, X: Event, k: PhysConstants = PhysConstants(), mode: DiffMode = EXACT
) -> Paravector:
    """Sources (rho/eps0; -j/(c eps0)): c-scaled div4 of a (0; E+icB) field at X."""
    return div4(emf, _tau_event(X, k.c), mode)


def source_field_from_em(emf: Field) -> Field:
    """Source paravector (rho/eps0; -j/(c eps0)) as a (tau, r)-domain field."""
    return div4_field(emf)


def wave_sides(
    pot: PotentialField,
    src: Field,
    X: Event,
    k: PhysConstants = PhysConstants(),
    mode: DiffMode = EXACT,
) -> Tuple[Paravector, Paravector]:
    """(d^2/c^2 dt^2 - laplacian)(phi; -cA) and the source value, both at X.

    ``src`` is a (tau, r)-domain field, e.g. the output of
    source_field_from_em, or the zero field for vacuum configurations.
    """
    tau = _tau_event(X, k.c)
    b = box4(_time_scaled(pot.f, k.c), tau, mode)
    return b, Paravector.from_data(src._value(tau.data))


def plane_wave_potential(
    kvec, pol, amp=1.0, k: PhysConstants = PhysConstants()
) -> PotentialField:
    """Vacuum plane-wave potential: phi = 0, A = amp * pol * exp(i(w t - kvec.r)).

    w = c sqrt(kvec.kvec) (principal branch), so the rescaled phase is null and
    the Lorenz gauge holds by transversality.  Raises NonTransverse when
    |pol . kvec| (bilinear dot) exceeds 1e-12 |kvec| |pol|, which bounds it,
    and ZeroWaveVector when kvec vanishes.
    """
    kv = np.asarray(kvec, dtype=np.complex128)
    pv = np.asarray(pol, dtype=np.complex128)
    if kv.shape != (3,) or pv.shape != (3,):
        raise ValueError("kvec and pol must have 3 components")
    if np.all(kv == 0):
        raise ZeroWaveVector("wave vector must be nonzero")
    if abs(kv @ pv) > 1e-12 * np.linalg.norm(kv) * np.linalg.norm(pv):
        raise NonTransverse(f"pol . kvec = {kv @ pv!r} is not zero")
    omega = k.c * np.sqrt(np.complex128(kv @ kv))
    amplitude = Paravector(0.0, -k.c * np.complex128(amp) * pv)
    return PotentialField(Field.plane_wave(np.concatenate([[1j * omega], -1j * kv]), amplitude))


def lorenz_gauge_potential(
    seed, degree: int = 3, scale: float = 1.0, k: PhysConstants = PhysConstants()
) -> PotentialField:
    """Random polynomial potential constructed to satisfy the Lorenz gauge.

    The vector part W = -cA is drawn at random and the scalar part is the
    t-antiderivative phi = c * int (div W) dt, which zeroes the gauge scalar
    of the c-scaled 4-gradient identically.
    """
    rng = as_rng(seed)
    # scalar polynomials: each keeps its coefficients in column 0
    w = [random_scalar_field(rng, degree=degree, scale=scale) for _ in range(3)]
    parts = [w[i].partial(i + 1) for i in range(3)]
    div_w = Field(np.concatenate([p.exps for p in parts]),
                  np.concatenate([p.coeffs for p in parts]))
    exps = div_w.exps.copy()
    exps[:, 0] += 1  # t-antiderivative with zero integration constant
    phi = Field(exps, k.c * div_w.coeffs / exps[:, :1])
    comps = [phi, *w]  # column 0 of the i-th goes to column i of the potential
    return PotentialField(Field(
        np.concatenate([p.exps for p in comps]),
        np.concatenate([np.roll(p.coeffs, i, axis=1) for i, p in enumerate(comps)]),
    ))
