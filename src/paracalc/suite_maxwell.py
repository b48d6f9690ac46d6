"""The ``maxwell`` suite: the potential -> field -> source chain on vacuum
plane waves and Lorenz-gauge polynomial potentials at ``c`` = 1 and 2 (the
gauge scalar, the sources, the wave factorization), Gauss's law on a static
slice, and one hand-worked field value.
"""

from __future__ import annotations

from functools import partial
from typing import List

import numpy as np

from .algebra import Event, Paravector
from .electromag import (
    PhysConstants,
    block_em_from_potential,
    block_gauss_law_sides,
    block_lorenz_potential,
    block_sources,
    block_wave_sides,
    em_from_potential,
    plane_wave_block,
)
from .fields import Field
from .harness import ROWS, Case, _blocked, _once, _times
from .kernels import _degree_exponents
from .tape import MAXWELL_EVENT, SCALAR, WAVE, uniforms


def cases() -> List[Case]:
    k1 = PhysConstants()
    k2 = PhysConstants(c=2.0)
    wx = (WAVE, MAXWELL_EVENT)
    lorenz = (SCALAR, SCALAR, SCALAR, MAXWELL_EVENT)  # as lorenz_gauge_potential, an event

    def potential(*w):  # a Lorenz-gauge potential from its three scalar polynomials
        return block_lorenz_potential(np.stack(w, axis=-1))

    def plane_wave_gauge(k, w, x, cfg):
        return block_em_from_potential(plane_wave_block(w, k), x, k)[:, :1]

    def plane_wave_sources(k, w, x, cfg):
        return block_sources(plane_wave_block(w, k), x, k)

    def polynomial_gauge(w0, w1, w2, x, cfg):
        return block_em_from_potential(potential(w0, w1, w2), x, k1)[:, :1]

    def factorization_chain(w0, w1, w2, x, cfg):
        return [block_wave_sides(potential(w0, w1, w2), x, k1)]

    def gauss_slice(phi, r, cfg):
        # a static scalar potential: the real parts of a scalar draw's
        # spatial terms, at a point of the t = 0 slice
        c = np.zeros((len(r), 35, 4), np.complex128)
        c[..., 0] = np.where(_degree_exponents(3)[:, 0] == 0, phi.real, 0.0)
        x = np.zeros((len(r), 4), np.complex128)
        x[:, 1:] = r
        src, div_e = block_gauss_law_sides((None, None, c), x, cfg.h, k1)
        return (src - div_e)[:, None]

    def static_gradient(cfg):
        pot = Field.monomial((0, 1, 0, 0), Paravector(1.0))
        val = em_from_potential(pot, Event(0.3, (0.7, -1.1, 0.4)), k1)
        return [(val.data, [0.0, -1.0, 0.0, 0.0])]

    return [
        Case("plane-wave-gauge-scalar", "exact", 1e-12,
             _blocked(_times(2), wx, partial(plane_wave_gauge, k1), ROWS)),
        Case("plane-wave-sources", "exact", 1e-10,
             _blocked(_times(2), wx, partial(plane_wave_sources, k1), ROWS)),
        Case("polynomial-gauge-scalar", "exact", 1e-12,
             _blocked(_times(1), lorenz, polynomial_gauge, ROWS)),
        Case("factorization-chain", "exact", 1e-9,
             _blocked(_times(1), lorenz, factorization_chain, ROWS)),
        # a point of the t = 0 slice
        Case("gauss-law-slice", "numeric", 1e-6,
             _blocked(_times(1), (SCALAR, uniforms(-2.0, 2.0, 3)), gauss_slice, ROWS)),
        Case("c2-plane-wave-gauge-scalar", "exact", 1e-12,
             _blocked(_times(2), wx, partial(plane_wave_gauge, k2), ROWS)),
        Case("c2-plane-wave-sources", "exact", 1e-10,
             _blocked(_times(2), wx, partial(plane_wave_sources, k2), ROWS)),
        Case("static-gradient-value", "fixed", 0.0,
             _blocked(_once, (), static_gradient, compare=np.subtract)),
    ]
