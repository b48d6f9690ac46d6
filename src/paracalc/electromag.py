"""Electromagnetic embedding: potentials -> field paravector -> sources.

With the c-scaled operators (time derivative divided by c):

    (0; E + icB)        = [d/c dt; -grad] (phi; -cA)
    (1/eps0)(rho; -j/c) = [d/c dt;  grad] (0; E + icB)

and chaining the two gives the c-scaled wave system for the potential.  The
values are the operators' own paravectors: em_from_potential returns
(gauge; E + icB), whose scalar part is the Lorenz-gauge diagnostic (0 in that
gauge), and block_sources returns (rho/eps0; -j/(c eps0)).

The c-scaling reuses the generic operators on a time-rescaled pullback: with
tau = c t, a field g(tau, r) = f(tau/c, r) satisfies d g/d tau = (1/c) df/dt,
so evaluating div4/grad4/box4 of g at (c t, r) applies the c-scaled operator
to f at (t, r).  Potentials are functions of the physical event (t, r); the
electromagnetic field and the sources built from them live on the rescaled
(tau, r) domain and are evaluated through the same convention.  The block
forms evaluate rows with ``kernels.jets``, on a stencil in numeric mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .algebra import Event, Paravector
from .diffops import (
    DiffMode,
    EXACT,
    assemble_box,
    assemble_div,
    assemble_grad,
    block_div4_field,
    block_grad4_field,
    block_partial,
    block_pullback,
    central_differences,
    grad4,
)
from .fields import Field
from .tape import _wave

__all__ = [
    "PhysConstants",
    "em_from_potential",
    "plane_wave_rows",
    "plane_wave_block",
    "block_lorenz_potential",
    "block_em_from_potential",
    "block_sources",
    "block_wave_sides",
    "block_gauss_law_sides",
]


@dataclass(frozen=True)
class PhysConstants:
    """The speed of light, 1 by default.  No permittivity: the sources read
    as the operator's value, (rho/eps0; -j/(c eps0)), whatever eps0 is."""

    c: float = 1.0

    def __post_init__(self):
        if not 0 < self.c < np.inf:
            raise ValueError("the speed of light must be positive and finite")


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
    pot: Field, X: Event, k: PhysConstants = PhysConstants(), mode: DiffMode = EXACT
) -> Paravector:
    """c-scaled 4-gradient at X of the potential, a field over physical (t, r)
    whose value reads as (phi; -cA).

    Its scalar part is the Lorenz-gauge diagnostic (about 0 in Lorenz gauge;
    reported, never raised), and its vector part is F = E + icB.
    """
    return grad4(_time_scaled(pot, k.c), _tau_event(X, k.c), mode)


def plane_wave_rows(kv, pv, amp, k: PhysConstants = PhysConstants()):
    """Vacuum plane-wave potentials, phi = 0 and A = amp pol exp(i(w t - kvec.r)):
    their amplitudes (0; -c amp pol) and phases (i w, -i kvec), (n, 4) each,
    one row per complex wave vector kv (n, 3), polarization pv (n, 3) and
    amplitude amp (n,), unchecked.  w = c sqrt(kvec.kvec) (principal branch),
    so the rescaled phase is null and the Lorenz gauge holds for transverse
    pol."""
    omega = k.c * np.sqrt(kernels.dots(kv, kv))
    amplitude = np.zeros((len(kv), 4), np.complex128)
    amplitude[:, 1:] = (-k.c * amp)[:, None] * pv
    return amplitude, np.concatenate([(1j * omega)[:, None], -1j * kv], axis=1)


def plane_wave_block(w: np.ndarray, constants) -> tuple:
    """The vacuum plane-wave potentials of ``tape.WAVE`` draws w as a block.

    The rows are plane_wave_rows', unchecked: a wave vector of norm 0.3 or
    more is not zero, and the rounding of the projection leaves pol . kvec
    below 1e-14 |kvec|, far under 1e-12 |kvec| |pol|, the transversality
    bound of the per-wave reference (tests/util.py)."""
    amp = np.empty(len(w), np.complex128)
    amp.real, amp.imag = w[:, 6], w[:, 7]
    amplitude, phase = plane_wave_rows(w[:, :3].astype(np.complex128),
                                       w[:, 3:6].astype(np.complex128), amp, constants)
    return _wave(phase, amplitude)


# -- blocks: one potential per row (see diffops) ------------------------------

def block_lorenz_potential(w: np.ndarray, k: PhysConstants = PhysConstants()):
    """A polynomial potential in Lorenz gauge per row: w (n, 35, 3) holds the
    three scalar polynomials of W = -cA on the degree-3 table, and the
    t-antiderivative phi = c int (div W) dt, with zero integration constant,
    is raised along t on the same table (div W has degree <= 2).  That zeroes
    the gauge scalar of the c-scaled 4-gradient identically."""
    c = np.zeros(w.shape[:2] + (4,), np.complex128)
    c[..., 1:] = w
    div_w = sum(block_partial((None, None, c), i)[2][..., i] for i in (1, 2, 3))
    rows, weight = kernels.lowering(3, 2)  # slot 1 lowers t
    src = np.flatnonzero(weight[1])  # t-antiderivative: t^e / e from t^(e-1)
    c[:, src, 0] = k.c * div_w[:, rows[1, src]] / weight[1, src]
    return None, None, c


def _scaled(pot, xs: np.ndarray, c: float):
    """The block pulled back to the rescaled time tau = c t, and the points as (tau, r)."""
    if c == 1.0:
        return pot, xs
    tau = xs.copy()
    tau[:, 0] *= c
    return block_pullback(pot, np.broadcast_to(np.diag((1.0 / c, 1.0, 1.0, 1.0)),
                                               (len(xs), 4, 4))), tau


def block_em_from_potential(pot, xs: np.ndarray, k: PhysConstants = PhysConstants()):
    """em_from_potential of row p's potential at xs[p]: (gauge; E + icB) rows."""
    f, tau = _scaled(pot, xs, k.c)
    return assemble_grad(kernels.jets(f, tau, 1)[1])


def block_sources(pot, xs: np.ndarray, k: PhysConstants = PhysConstants()):
    """The sources (rho/eps0; -j/(c eps0)) of row p's potential at xs[p]: the
    c-scaled div4 of its field (0; E + icB), built from the lowered rows."""
    f, tau = _scaled(pot, xs, k.c)
    return assemble_div(kernels.jets(block_grad4_field(f), tau, 1)[1])


def block_wave_sides(pot, xs: np.ndarray, k: PhysConstants = PhysConstants()):
    """(d^2/c^2 dt^2 - laplacian)(phi; -cA) of row p's potential at xs[p]
    (jets), and the value there of its source field, built from the lowered
    rows on the rescaled (tau, r) domain."""
    f, tau = _scaled(pot, xs, k.c)
    src = block_div4_field(block_grad4_field(f))
    return assemble_box(kernels.jets(f, tau, 2)[2]), kernels.jets(src, tau, 0)[0]


def block_gauss_law_sides(pot, xs: np.ndarray, h: float, k: PhysConstants = PhysConstants()):
    """Numeric rho/eps0 of row p's field at xs[p], and the numeric div E of its
    exact E (jets of the potential), both real and at step h.

    Both difference one stencil: its value function returns, per point, the
    field's value (from the lowered rows) beside the potential's c-scaled
    4-gradient.
    """
    f, tau = _scaled(pot, xs, k.c)
    emf = block_grad4_field(f)

    def value_fn(pts):
        return np.concatenate([kernels.jets(emf, pts, 0)[0],
                               assemble_grad(kernels.jets(f, pts, 1)[1])], axis=-1)

    d = central_differences(value_fn, tau, h)  # d[p, column, coordinate]
    src = assemble_div(d[:, :4])[:, 0]
    return src.real, d[:, 5, 1].real + d[:, 6, 2].real + d[:, 7, 3].real
