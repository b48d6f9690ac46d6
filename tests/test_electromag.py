import numpy as np
import pytest

from paracalc.algebra import Event, Paravector
from paracalc.diffops import Numeric
from paracalc.electromag import (
    NonTransverse,
    PhysConstants,
    PotentialField,
    ZeroWaveVector,
    em_field_from_potential,
    em_from_potential,
    lorenz_gauge_potential,
    plane_wave_potential,
    source_field_from_em,
    sources_from_em,
    wave_sides,
)
from paracalc.fields import Field

from util import gap, max_abs


def complex_time_event(rng):
    return Event(
        complex(rng.uniform(-2, 2), rng.uniform(-0.1, 0.1)),
        rng.uniform(-2, 2, size=3),
    )


def test_phys_constants_validation():
    assert PhysConstants().c == 1.0 and PhysConstants().eps0 == 1.0
    with pytest.raises(ValueError):
        PhysConstants(c=0.0)
    with pytest.raises(ValueError):
        PhysConstants(eps0=-1.0)


def test_phys_constants_refuse_non_finite_values():
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            PhysConstants(c=bad)
        with pytest.raises(ValueError, match="finite"):
            PhysConstants(eps0=bad)


def test_static_scalar_potential_gives_negative_gradient():
    # phi = x, A = 0  ->  E = -grad phi = (-1, 0, 0), B = 0
    pot = PotentialField(Field.monomial((0, 1, 0, 0), Paravector(1.0)))
    val = em_from_potential(pot, Event(0.3, (0.7, -1.1, 0.4)))
    assert val.s == 0.0
    np.testing.assert_array_equal(val.v, [-1.0, 0.0, 0.0])


def test_zero_potential_gives_zero_field_and_sources():
    pot = PotentialField(Field.zero())
    val = em_from_potential(pot, Event(1.0))
    assert val.s == 0.0 and max_abs(val.v) == 0.0
    src = sources_from_em(em_field_from_potential(pot), Event(1.0))
    assert src.s == 0.0 and max_abs(src.v) == 0.0


def test_linear_electric_field_gauss_law():
    # F = (x, 0, 0): rho/eps0 = div E = 1
    emf = Field.monomial((0, 1, 0, 0), Paravector(0.0, (1.0, 0.0, 0.0)))
    src = sources_from_em(emf, Event(0.2, (1.0, 2.0, 3.0)))
    assert src.s == 1.0
    assert max_abs(src.v) == 0.0


def test_plane_wave_gauge_and_sources():
    rng = np.random.default_rng(0)
    pot = plane_wave_potential((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1.0)
    emf = em_field_from_potential(pot)
    for _ in range(50):
        X = complex_time_event(rng)
        assert abs(em_from_potential(pot, X).s) <= 1e-12
        src = sources_from_em(emf, X)
        assert abs(src.s) <= 1e-10
        assert max_abs(src.v) <= 1e-10


def test_plane_wave_c2_still_sourceless():
    k = PhysConstants(c=2.0)
    rng = np.random.default_rng(1)
    pot = plane_wave_potential((0.3, -0.2, 0.9), (0.2, 0.3, 0.0), 1.0 - 0.5j, k)
    emf = em_field_from_potential(pot, k)
    for _ in range(50):
        X = complex_time_event(rng)
        assert abs(em_from_potential(pot, X, k).s) <= 1e-12
        src = sources_from_em(emf, X, k)
        assert abs(src.s) <= 1e-10
        assert max_abs(src.v) <= 1e-10


def test_plane_wave_validation():
    with pytest.raises(NonTransverse):
        plane_wave_potential((0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
    with pytest.raises(ZeroWaveVector):
        plane_wave_potential((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_transversality_is_checked_relative_to_scale():
    # large pairs made transverse by exact projection pass ...
    rng = np.random.default_rng(4)
    for _ in range(200):
        kvec = 5e4 * rng.uniform(-1, 1, size=3)
        raw = 1e4 * rng.uniform(-1, 1, size=3)
        pol = raw - (raw @ kvec) / (kvec @ kvec) * kvec
        plane_wave_potential(kvec, pol)
    # ... and small ones 45 degrees apart do not
    with pytest.raises(NonTransverse):
        plane_wave_potential((1e-7, 0.0, 0.0), (1e-7, 1e-7, 0.0))


def test_vacuum_wave_residual():
    pot = plane_wave_potential((0.0, 0.0, 1.0), (1.0, 0.0, 0.0))
    zero_src = Field.zero()
    rng = np.random.default_rng(2)
    for _ in range(20):
        X = complex_time_event(rng)
        assert max_abs(gap(wave_sides(pot, zero_src, X))) <= 1e-10
    # and trivially for the zero potential
    assert max_abs(
        gap(wave_sides(PotentialField(Field.zero()), zero_src, Event(1.0)))
    ) == 0.0


def test_lorenz_gauge_polynomial_potential():
    rng = np.random.default_rng(3)
    for _ in range(10):
        pot = lorenz_gauge_potential(rng)
        X = complex_time_event(rng)
        assert abs(em_from_potential(pot, X).s) <= 1e-12


def test_factorization_chain():
    # sources(em(potential)) equals the c-scaled wave operator on the potential
    rng = np.random.default_rng(4)
    for c in (1.0, 2.0):
        k = PhysConstants(c=c)
        for _ in range(10):
            pot = lorenz_gauge_potential(rng, k=k)
            src = source_field_from_em(em_field_from_potential(pot, k))
            X = complex_time_event(rng)
            assert max_abs(gap(wave_sides(pot, src, X, k))) <= 1e-9


def test_gauss_law_slice_numeric():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(10):
        # static real scalar potential, A = 0
        exps = []
        coeffs = []
        for ex in range(3):
            for ey in range(3 - ex):
                for ez in range(3 - ex - ey):
                    exps.append((0, ex, ey, ez))
                    coeffs.append(rng.uniform(-1, 1))
        poly = np.zeros((len(exps), 4), np.complex128)
        poly[:, 0] = coeffs
        pot = PotentialField(Field(np.array(exps), poly))
        X = Event(0.0, rng.uniform(-2, 2, size=3))
        src = sources_from_em(em_field_from_potential(pot), X, mode=Numeric(h))

        def e_comp(xd, c):
            return em_from_potential(pot, Event.from_data(xd)).v[c - 1].real

        div_e = 0.0
        for c in (1, 2, 3):
            xp = X.data.copy()
            xp[c] += h
            xm = X.data.copy()
            xm[c] -= h
            div_e += (e_comp(xp, c) - e_comp(xm, c)) / (2 * h)
        assert abs(src.s.real - div_e) <= 1e-6


def test_omega_adapts_to_c():
    k1, k2 = PhysConstants(), PhysConstants(c=2.0)
    p1 = plane_wave_potential((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1.0, k1)
    p2 = plane_wave_potential((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1.0, k2)
    assert p1.f.phases[0, 0] == 1j
    assert p2.f.phases[0, 0] == 2j
