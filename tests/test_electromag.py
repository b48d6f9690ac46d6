import numpy as np
import pytest

from paracalc.algebra import Event, Paravector
from paracalc.diffops import Numeric, central_differences
from paracalc.electromag import (
    PhysConstants,
    block_em_from_potential,
    block_gauss_law_sides,
    block_lorenz_potential,
    block_sources,
    block_wave_sides,
    em_from_potential,
    plane_wave_block,
    plane_wave_rows,
)
from paracalc.fields import Field
from paracalc.harness import BLOCK
from paracalc.tape import SCALAR, WAVE, Tape, draw

from util import (
    NonTransverse,
    ZeroWaveVector,
    block_of,
    each_row,
    em_field_from_potential,
    gap,
    gauss_slice_draw,
    lorenz_gauge_potential,
    max_abs,
    maxwell_event,
    plane_wave_potential,
    plane_wave_value,
    random_rows,
    random_wave_potential,
    rel_err,
    rows,
    source_field_from_em,
    sources_from_em,
    wave_sides,
)


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
    pot = Field.monomial((0, 1, 0, 0), Paravector(1.0))
    val = em_from_potential(pot, Event(0.3, (0.7, -1.1, 0.4)))
    assert val.s == 0.0
    np.testing.assert_array_equal(val.v, [-1.0, 0.0, 0.0])


def test_zero_potential_gives_zero_field_and_sources():
    pot = Field.zero()
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


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_plane_wave_rows_match_the_per_wave_value_bit_for_bit(c):
    # complex wave vectors and polarizations over six decades, and rows of
    # signed zeros and small integers, and each row as a stack of one
    k = PhysConstants(c=c)
    rng = np.random.default_rng(8)
    kv, pv = random_rows(rng, 100)[:, 1:], random_rows(rng, 100)[:, 1:]
    amp = random_rows(rng, 50).ravel()[:200]
    rows = plane_wave_rows(kv, pv, amp, k)
    for p in range(len(kv)):
        want = plane_wave_value(kv[p], pv[p], amp[p], k)
        one = plane_wave_rows(kv[p:p + 1], pv[p:p + 1], amp[p:p + 1], k)
        for got in ([r[p] for r in rows], [r[0] for r in one]):
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), p


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
        gap(wave_sides(Field.zero(), zero_src, Event(1.0)))
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
        pot = Field(np.array(exps), poly)
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
    assert p1.phases[0, 0] == 1j
    assert p2.phases[0, 0] == 2j


# -- blocks: one potential per row ------------------------------------------------

def _lorenz_blocks(seed, n, k):
    """n Lorenz-gauge potentials as block rows and as lorenz_gauge_potential
    draws them from the same stream, each with a complex-time event."""
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    w = np.stack(draw(Tape(rng), 0, n, SCALAR, SCALAR, SCALAR), axis=-1)
    pots = [lorenz_gauge_potential(ref, k=k) for _ in range(n)]
    return block_lorenz_potential(w, k), pots


def _wave_blocks(seed, n, k):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    block = plane_wave_block(draw(Tape(rng), 0, n, WAVE)[0], k)
    return block, [random_wave_potential(ref, k) for _ in range(n)]


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_block_potentials_are_the_potential_fields(c):
    k = PhysConstants(c=c)
    block, pots = _lorenz_blocks(50, 8, k)
    assert np.array_equal(block[2], block_of(*pots)[2])
    block, pots = _wave_blocks(51, 8, k)
    want = block_of(*pots)
    assert np.array_equal(block[2], want[2]) and np.array_equal(block[1], want[1])
    wave = plane_wave_potential((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 1.0, k)
    assert wave.phases[0, 0] == 1j * c and np.array_equal(wave.coeffs[0], [0, -c, 0, 0])


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_maxwell_blocks_match_the_per_point_operators(c):
    k = PhysConstants(c=c)
    rng = np.random.default_rng(52)
    for block, pots in (_lorenz_blocks(53, 6, k), _wave_blocks(54, 6, k)):
        X = [maxwell_event(rng) for _ in pots]
        xs = rows(*X)
        em = block_em_from_potential(block, xs, k)
        src = block_sources(block, xs, k)
        box, source = block_wave_sides(block, xs, k)
        for p, (pot, x) in enumerate(zip(pots, X)):
            emf = em_field_from_potential(pot, k)
            assert rel_err(em[p], em_from_potential(pot, x, k).data) <= 1e-13
            assert rel_err(src[p], sources_from_em(emf, x, k).data) <= 1e-13
            want_box, want_source = wave_sides(pot, source_field_from_em(emf), x, k)
            assert rel_err(box[p], want_box.data) <= 1e-13
            assert rel_err(source[p], want_source.data) <= 1e-13


def test_block_gauss_law_sides_match_the_per_point_stencil():
    rng, h = np.random.default_rng(55), 1e-5
    pots, X = zip(*(gauss_slice_draw(rng) for _ in range(8)))
    src, div_e = block_gauss_law_sides(block_of(*pots), rows(*X), h)
    for p, (pot, x) in enumerate(zip(pots, X)):
        want = sources_from_em(em_field_from_potential(pot), x, mode=Numeric(h)).s.real
        e = each_row(lambda xd: em_from_potential(pot, Event.from_data(xd)).v.real)
        d = central_differences(e, x.data, h)  # d[i, c] = dE_i/dx_c
        div = d[0, 1] + d[1, 2] + d[2, 3]
        assert abs(src[p] - want) <= 1e-8 and abs(div_e[p] - div) <= 1e-8
        assert abs(src[p] - div_e[p]) <= 1e-6


@pytest.mark.parametrize("size", [1, 7])
def test_each_row_of_a_maxwell_block_equals_a_block_of_one_bit_for_bit(size):
    k2 = PhysConstants(c=2.0)
    rng = np.random.default_rng(56)
    lorenz, _ = _lorenz_blocks(57, BLOCK, PhysConstants())
    wave, _ = _wave_blocks(58, BLOCK, k2)
    static = (None, None, lorenz[2] * [1, 0, 0, 0])
    xs = rows(*(maxwell_event(rng) for _ in range(BLOCK)))

    def sides(lo, hi):
        def part(f):
            return tuple(None if a is None else a[lo:hi] for a in f)
        x = xs[lo:hi]
        return [block_em_from_potential(part(lorenz), x), block_sources(part(wave), x, k2),
                *block_wave_sides(part(lorenz), x), *block_wave_sides(part(wave), x, k2),
                *block_gauss_law_sides(part(static), x, 1e-5), block_em_from_potential(part(wave), x, k2)]

    whole = sides(0, BLOCK)
    for lo in (0, 5, BLOCK - size):
        for got, want in zip(sides(lo, lo + size), whole):
            assert got.tobytes() == want[lo:lo + size].tobytes(), (lo, size)
