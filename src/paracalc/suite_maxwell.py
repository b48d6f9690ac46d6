"""The ``maxwell`` suite: the potential -> field -> source chain on vacuum
plane waves and Lorenz-gauge polynomial potentials at ``c`` = 1 and 2 (the
gauge scalar, the sources, the wave factorization), Gauss's law on a static
slice, and one hand-worked field value.
"""

from __future__ import annotations

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
from .harness import ROWS, Case, _blocked, _once, _rel, _times
from .kernels import _degree_exponents
from .tape import MAXWELL_EVENT, SCALAR, WAVE, draw, uniforms


def _plane_wave_case(constants: PhysConstants, field: str):
    def block(tape, start, n, cfg):
        w, x = draw(tape, start, n, WAVE, MAXWELL_EVENT)
        f = plane_wave_block(w, constants)
        if field == "gauge":
            return block_em_from_potential(f, x, constants)[:, :1]
        return block_sources(f, x, constants)

    return _blocked(_times(2), block, ROWS)


def _lorenz_draws(tape, start: int, n: int):
    """Lorenz-gauge potentials as lorenz_gauge_potential draws them (three
    scalar polynomials), each followed by its event."""
    *w, x = draw(tape, start, n, SCALAR, SCALAR, SCALAR, MAXWELL_EVENT)
    return block_lorenz_potential(np.stack(w, axis=-1)), x


def cases() -> List[Case]:
    k1 = PhysConstants()
    k2 = PhysConstants(c=2.0)
    spatial = uniforms(-2.0, 2.0, 3)  # a point of the t = 0 slice

    def polynomial_gauge(tape, start, n, cfg):
        return block_em_from_potential(*_lorenz_draws(tape, start, n), k1)[:, :1]

    def factorization_chain(tape, start, n, cfg):
        return _rel(*block_wave_sides(*_lorenz_draws(tape, start, n), k1))

    def gauss_slice(tape, start, n, cfg):
        # a static scalar potential: the real parts of a scalar draw's
        # spatial terms, at a point of the t = 0 slice
        phi, r = draw(tape, start, n, SCALAR, spatial)
        c = np.zeros((n, 35, 4), np.complex128)
        c[..., 0] = np.where(_degree_exponents(3)[:, 0] == 0, phi.real, 0.0)
        x = np.zeros((n, 4), np.complex128)
        x[:, 1:] = r
        src, div_e = block_gauss_law_sides((None, None, c), x, cfg.h, k1)
        return (src - div_e)[:, None]

    def static_gradient(tape, start, n, cfg):
        pot = Field.monomial((0, 1, 0, 0), Paravector(1.0))
        val = em_from_potential(pot, Event(0.3, (0.7, -1.1, 0.4)), k1)
        return val.data - np.array([0.0, -1.0, 0.0, 0.0])

    return [
        Case("plane-wave-gauge-scalar", "exact", 1e-12, _plane_wave_case(k1, "gauge")),
        Case("plane-wave-sources", "exact", 1e-10, _plane_wave_case(k1, "sources")),
        Case("polynomial-gauge-scalar", "exact", 1e-12,
             _blocked(_times(1), polynomial_gauge, ROWS)),
        Case("factorization-chain", "exact", 1e-9, _blocked(_times(1), factorization_chain, ROWS)),
        Case("gauss-law-slice", "numeric", 1e-6, _blocked(_times(1), gauss_slice, ROWS)),
        Case("c2-plane-wave-gauge-scalar", "exact", 1e-12, _plane_wave_case(k2, "gauge")),
        Case("c2-plane-wave-sources", "exact", 1e-10, _plane_wave_case(k2, "sources")),
        Case("static-gradient-value", "fixed", 0.0, _blocked(_once, static_gradient)),
    ]
