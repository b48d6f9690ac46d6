import itertools

import numpy as np
import pytest

from paracalc.algebra import (
    IDENTITY,
    Event,
    Paravector,
    act_left,
    act_right,
    conjugate_rotate,
    det,
    inverse,
    left_matrix,
    mul,
    normalize_orthogonal,
    reverse,
    right_matrix,
)
from paracalc.diffops import Numeric, bundle
from paracalc.fields import (
    DEGREE_CAP,
    Field,
    PolynomialField,
    _canonical_terms,
    central_difference,
    coord_index,
    null_plane_wave,
    random_event,
    random_field,
    random_orthogonal,
    random_paravector,
    random_paravectors,
    random_plane_wave,
    random_scalar_field,
)

from util import max_abs, random_rows, rel_err


def composite_field(seed: int = 0):
    """One field using every operation, for closure and oracle tests."""
    rng = np.random.default_rng(seed)
    poly = random_field(rng, degree=2)
    wave = random_plane_wave(rng)
    g = random_paravector(rng)
    rho = random_scalar_field(rng, degree=2)
    mapped = poly.pullback(left_matrix(inverse(g)))
    return Field.sum(wave.scalar_mul(rho), mapped.right_mul(g).left_mul(g))


# -- evaluation ---------------------------------------------------------------

def test_eval_constant():
    c = Paravector(2.0 + 1j, (0.0, 1.0, -1.0))
    f = Field.constant(c)
    for seed in range(3):
        assert f.at(random_event(seed)) == c


def test_eval_monomial():
    f = Field.monomial((1, 1, 0, 0), Paravector(1.0))
    got = f.at(Event(2.0, (3.0, 0.0, 0.0)))
    np.testing.assert_array_equal(got.data, [6.0, 0, 0, 0])


def test_eval_plane_wave_closed_form():
    amp = Paravector(1.0, (0.5, 0.0, -1.0j))
    f = Field.plane_wave((0.3 + 0.1j, 0.2, -0.4, 1.0j), amp)
    x = Event(0.5, (1.0, 2.0, -0.5))
    expected = amp.data * np.exp(
        (0.3 + 0.1j) * 0.5 + 0.2 * 1.0 - 0.4 * 2.0 + 1.0j * -0.5
    )
    np.testing.assert_allclose(f.at(x).data, expected, rtol=1e-15)


@pytest.mark.parametrize("kind", [
    "plain", "framed", "plane-wave", "polynomial-times-phase", "partial", "zero",
])
def test_value_on_a_stack_matches_each_point_bit_for_bit(kind):
    rng = np.random.default_rng(8)
    for _ in range(10):
        poly, wave = random_field(rng, degree=4), random_plane_wave(rng)
        rho = random_scalar_field(rng, degree=2)
        frame = left_matrix(random_paravector(rng)) @ right_matrix(random_paravector(rng))
        f = {
            "plain": poly,
            "framed": Field.sum(poly, wave.scalar_mul(rho)).pullback(frame),
            "plane-wave": wave,
            "polynomial-times-phase": wave.scalar_mul(rho),
            "partial": composite_field(int(rng.integers(100))).partial(2),
            "zero": Field.zero(),
        }[kind]
        xs = random_rows(rng, 20)  # spread rows, then exact and signed-zero rows
        with np.errstate(all="ignore"):  # the spread rows reach exp overflow
            got = f._value(xs)
            assert got.shape == xs.shape
            for i, x in enumerate(xs):
                assert got[i].tobytes() == f._value(x).tobytes(), i


def test_polynomial_field_is_the_zero_phase_field():
    rng = np.random.default_rng(3)
    exps = rng.integers(0, 3, size=(12, 4))
    coeffs = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    p, f = PolynomialField(exps, coeffs), Field(exps, coeffs)
    assert same_bytes(p.exps, f.exps) and same_bytes(p.coeffs, f.coeffs)
    assert not p.phases.any()


def test_rows_group_by_phase_in_order_of_first_appearance():
    k1 = (0.5, 1j, 0.0, -0.25)
    wave = Field.plane_wave(k1, IDENTITY)
    t = Field.monomial((1, 0, 0, 0), IDENTITY)
    f = Field.sum(wave.scalar_mul(Field.constant(Paravector(4.0))),  # 4 e^{k1.X}
                  Field.monomial((1, 0, 0, 0), Paravector(2.0)),    # 2 t
                  wave.scalar_mul(t).scalar_mul(Field.constant(Paravector(4.0))))
    np.testing.assert_array_equal(f.exps, [(0, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0)])
    np.testing.assert_array_equal(f.coeffs[:, 0], [4, 4, 2])
    np.testing.assert_array_equal(f.phases, [k1, k1, (0, 0, 0, 0)])
    for a in (f.exps, f.coeffs, f.phases):
        assert not a.flags.writeable
    x = Event(0.3, (0.1, -0.2, 0.4))
    expected = (4 + 4 * x.t) * np.exp(np.dot(k1, x.data)) + 2 * x.t
    assert rel_err(f.at(x).data[0], expected) <= 1e-15


def test_pullback_of_a_plane_wave_maps_its_phase():
    f = random_plane_wave(4)
    m = left_matrix(random_paravector(5))
    p = f.pullback(m)
    np.testing.assert_array_equal(p.exps, f.exps)  # still one constant row
    np.testing.assert_allclose(p.phases[0], f.phases[0] @ m, rtol=1e-15)
    x = random_event(6)
    assert rel_err(p.at(x).data, f._value(m @ x.data)) <= 1e-13


def test_scalar_mul_needs_a_common_frame():
    f = random_field(7)
    rho = random_scalar_field(8)
    m = left_matrix(random_paravector(9))
    x = random_event(10)
    moved = f.scalar_mul(rho).pullback(m)
    both_moved = f.pullback(m).scalar_mul(rho.pullback(m))
    assert rel_err(moved.at(x).data, both_moved.at(x).data) <= 1e-12
    with pytest.raises(ValueError, match="different frames"):
        f.pullback(m).scalar_mul(rho)


def test_duplicate_terms_merge():
    f = PolynomialField([(1, 0, 0, 0), (1, 0, 0, 0)], [(1, 0, 0, 0), (2, 0, 0, 0)])
    assert f.exps.shape[0] == 1
    got = f.at(Event(2.0))
    np.testing.assert_array_equal(got.data, [6.0, 0, 0, 0])


# -- exact derivatives ----------------------------------------------------------

def test_exact_partial_constant_is_zero():
    f = Field.constant(Paravector(1.0, (1.0, 2.0, 3.0)))
    for c in "txyz":
        d = f.partial(c)
        assert max_abs(d.at(random_event(1)).data) == 0.0


def test_exact_partial_monomial_rule():
    f = Field.monomial((2, 0, 0, 0), Paravector(0.0, (1.0, 0.0, 0.0)))
    d = f.partial("t")
    got = d.at(Event(3.0))
    np.testing.assert_array_equal(got.data, [0.0, 6.0, 0.0, 0.0])


def test_exact_partial_plane_wave_scales_by_phase_coefficient():
    f = random_plane_wave(7)
    d = f.partial("x")
    x = random_event(8)
    np.testing.assert_allclose(
        d.at(x).data, f.phases[0, 1] * f.at(x).data, rtol=1e-14
    )


def _stencil_norm(f, x, h):
    m = 0.0
    for c in range(4):
        for sgn in (1.0, -1.0):
            xs = x.copy()
            xs[c] += sgn * h
            m = max(m, max_abs(f._value(xs)))
    return m


@pytest.mark.parametrize("maker", [
    lambda: random_field(10),
    lambda: random_plane_wave(11),
    lambda: composite_field(12),
    lambda: Field.sum(random_field(13), random_plane_wave(14)),
])
def test_exact_vs_numeric_oracle(maker):
    f = maker()
    h = 1e-5
    rng = np.random.default_rng(99)
    for _ in range(10):
        X = random_event(rng)
        loc = _stencil_norm(f, X.data, h)
        for c in range(4):
            ex = f.partial(c).at(X).data
            num = central_difference(f._value, X.data, c, h)
            assert max_abs(num - ex) <= 1e-7 * (1.0 + loc)


def test_central_difference_t_squared():
    f = Field.monomial((2, 0, 0, 0), Paravector(1.0))
    got = central_difference(f._value, Event(1.0).data, coord_index("t"), 1e-5)
    assert abs(got[0] - 2.0) <= 1e-9


def test_central_difference_convergence_order():
    f = Field.monomial((3, 0, 0, 0), Paravector(1.0))
    X = Event(1.0)
    errs = []
    for h in (1e-3, 5e-4):
        errs.append(abs(bundle(f, X, Numeric(h))[0, 0] - 3.0))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_central_difference_rejects_bad_step():
    f = random_field(0)
    with pytest.raises(ValueError, match="does not move"):
        central_difference(f._value, random_event(0).data, 0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        bundle(f, random_event(0), Numeric(0.0))
    with pytest.raises(ValueError, match="does not move"):  # 2 + 1e-300 == 2
        bundle(f, Event(2.0), Numeric(1e-300))


# -- action matrices ------------------------------------------------------------
#
# The matrices come from the product table in algebra; these compare them with the
# actions on events, which multiply through kernels.pv_mul directly.

def test_left_action_matrix_matches_event_action():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g, x = random_paravector(rng), random_event(rng)
        np.testing.assert_allclose(
            left_matrix(g) @ x.data, act_left(g, x).data,
            rtol=0, atol=1e-13,
        )
        np.testing.assert_allclose(
            right_matrix(g) @ x.data, act_right(x, g).data,
            rtol=0, atol=1e-13,
        )


def test_conjugation_matrix_matches_rotation():
    rng = np.random.default_rng(22)
    for _ in range(10):
        lam, x = random_paravector(rng), random_event(rng)
        np.testing.assert_allclose(
            right_matrix(reverse(lam)) @ left_matrix(lam) @ x.data,
            conjugate_rotate(lam, x).data,
            rtol=0, atol=1e-13,
        )


# -- pullbacks ------------------------------------------------------------------

def test_pullback_identity_map():
    f = random_field(30)
    p = f.pullback(left_matrix(Paravector(1.0)))
    x = random_event(31)
    np.testing.assert_array_equal(p.at(x).data, f.at(x).data)


def test_pullback_evaluates_at_mapped_point():
    rng = np.random.default_rng(32)
    for _ in range(10):
        f = random_field(rng)
        g = random_paravector(rng)
        X = random_event(rng)
        # field Y -> f(g^-1 Y), evaluated at gX, recovers f(X)
        p = f.pullback(left_matrix(inverse(g)))
        assert rel_err(p.at(act_left(g, X)).data, f.at(X).data) <= 1e-12


def test_pullback_round_trip():
    rng = np.random.default_rng(33)
    f = random_field(rng)
    g = random_paravector(rng)
    there = f.pullback(left_matrix(g))
    p = there.pullback(left_matrix(inverse(g)))
    for _ in range(100):
        x = random_event(rng)
        assert rel_err(p.at(x).data, f.at(x).data) <= 1e-12


def test_pullback_takes_a_finite_4x4_matrix_and_keeps_no_reference():
    f = Field.sum(random_field(34), random_plane_wave(35))
    with pytest.raises(ValueError, match="4x4"):
        f.pullback(np.eye(3))
    nan = np.eye(4, dtype=np.complex128)
    nan[1, 2] = np.nan
    for g in (f, Field.zero()):
        with pytest.raises(ValueError, match="finite"):
            g.pullback(nan)
    m = left_matrix(random_paravector(36))
    p = f.pullback(m)
    x = random_event(37)
    before = p.at(x)
    m[:] = 0.0  # the caller's array, changed after the pullback
    assert p.at(x) == before


# -- pointwise constructions ----------------------------------------------------

def test_left_right_mul_fields():
    f = random_field(40)
    x = random_event(41)
    g = random_paravector(42)
    assert f.left_mul(Paravector(1.0)).at(x) == f.at(x)
    # the factor multiplies the coefficient rows, so values agree to rounding
    assert rel_err(f.right_mul(g).at(x).data, mul(f.at(x), g).data) <= 1e-14
    assert rel_err(f.left_mul(g).at(x).data, mul(g, f.at(x)).data) <= 1e-14


def test_left_and_right_mul_differ_in_cross_sign():
    f = Field.constant(Paravector(1.0, (1.0, 0.0, 0.0)))
    g = Paravector(1.0, (0.0, 1.0, 0.0))
    x = Event(0.0)
    lv = f.left_mul(g).at(x).data
    rv = f.right_mul(g).at(x).data
    assert lv[3] == -1j and rv[3] == 1j


def test_scalar_scale_field():
    f = random_field(50)
    x = random_event(51)
    one = Field.constant(IDENTITY)
    assert f.scalar_mul(one).at(x) == f.at(x)
    c = Paravector(2.0, (0.0, 1.0, 0.0))
    t = Field.monomial((1, 0, 0, 0), IDENTITY)
    t_times_c = Field.constant(c).scalar_mul(t)
    mono = Field.monomial((1, 0, 0, 0), c)
    np.testing.assert_allclose(
        t_times_c.at(x).data, mono.at(x).data, rtol=1e-15
    )


def test_scalar_scale_field_rejects_a_vector_part():
    f = random_field(52)
    vector_x = Field.monomial((0, 1, 0, 0), Paravector(1.0, (0.0, 1e-300, 0.0)))
    for rho in (vector_x, random_field(53), random_plane_wave(54)):
        with pytest.raises(ValueError, match="vector coefficients must be zero"):
            f.scalar_mul(rho)


# -- closure / caps ---------------------------------------------------------------

def test_double_derivative_closure():
    f = composite_field(60)
    rng = np.random.default_rng(61)
    for c1 in range(4):
        for c2 in range(4):
            d2 = f.partial(c1).partial(c2)
            v = d2.at(random_event(rng))
            assert np.all(np.isfinite(v.data))


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        Field.monomial((DEGREE_CAP + 1, 0, 0, 0), Paravector(1.0))


def test_term_cap_enforced():
    n = 513
    exps = np.array([(a, b, c, d)
                     for a in range(6) for b in range(6)
                     for c in range(6) for d in range(6)][:n])
    with pytest.raises(ValueError):
        PolynomialField(exps, np.ones((n, 4), np.complex128))


def test_repeated_operations_stay_one_flat_field():
    # each operation returns canonical rows, not a deeper expression, so long
    # chains of operations neither grow nor hit a cap
    f = random_field(70)
    g = f
    for _ in range(100):
        g = Field.sum(g.left_mul(IDENTITY).right_mul(IDENTITY), Field.zero())
    assert same_bytes(g.exps, f.exps) and same_bytes(g.coeffs, f.coeffs)
    m = left_matrix(random_paravector(71))
    h = f
    for _ in range(100):
        h = h.pullback(m)
    assert len(h.exps) == len(f.exps)
    assert np.all(np.isfinite(h.partial(0).at(Event(0.1)).data))


def test_coord_index():
    assert [coord_index(c) for c in "txyz"] == [0, 1, 2, 3]
    assert coord_index(2) == 2
    with pytest.raises(ValueError):
        coord_index("w")
    with pytest.raises(ValueError):
        coord_index(4)


def test_coord_index_refuses_bools_and_non_integers():
    assert coord_index(np.int64(3)) == 3
    assert coord_index(np.uint8(1)) == 1
    for bad in (1.7, 1.0, np.float64(2.0), True, np.bool_(False), None):
        with pytest.raises(ValueError, match="integer"):
            coord_index(bad)
    with pytest.raises(ValueError):
        random_field(0).partial(1.7)  # used to be the x partial


# -- random families ---------------------------------------------------------------

def test_random_field_deterministic():
    a, b = random_field(123), random_field(123)
    np.testing.assert_array_equal(a.exps, b.exps)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    w1, w2 = random_plane_wave(5), random_plane_wave(5)
    np.testing.assert_array_equal(w1.phases, w2.phases)
    np.testing.assert_array_equal(w1.coeffs, w2.coeffs)


def test_random_paravector_respects_det_floor():
    rng = np.random.default_rng(9)
    for _ in range(200):
        assert abs(det(random_paravector(rng))) >= 0.1


def test_random_draws_are_finite_and_bounded():
    rng = np.random.default_rng(10)
    for _ in range(1000):
        p = random_paravector(rng)
        assert np.all(np.isfinite(p.data))
        assert max_abs(p.data) <= 2.0


def test_null_plane_wave_phase():
    f = null_plane_wave(77)
    kappa0, kappa = f.phases[0, 0], f.phases[0, 1:]
    assert abs(kappa0 ** 2 - kappa @ kappa) <= 1e-14


# -- draws and canonical form against their scalar references -----------------
#
# The library draws each family in one vectorised call and merges terms
# without a per-row loop.  These references are the scalar forms it must
# reproduce bit for bit, random stream included.

def ref_complex(rng, scale):
    radius = scale * np.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * np.pi)
    return complex(radius * np.cos(theta), radius * np.sin(theta))


def ref_components(rng, scale, n):
    return np.array([ref_complex(rng, scale) for _ in range(n)], np.complex128)


def ref_polynomial(rng, degree, scale, width):
    exps = [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) <= degree]
    coeffs = np.zeros((len(exps), 4), np.complex128)
    coeffs[:, :width] = [[ref_complex(rng, scale) for _ in range(width)] for _ in exps]
    return np.array(exps, np.int64).reshape(-1, 4), coeffs


def ref_paravector(rng, scale=2.0, min_det=0.1):
    attempts = 0
    while True:
        attempts += 1
        p = Paravector.from_data(ref_components(rng, scale, 4))
        if abs(det(p)) >= min_det:
            return p, attempts


def ref_paravectors(rng, n, scale=2.0, min_det=0.1):
    return np.array([ref_paravector(rng, scale, min_det)[0].data for _ in range(n)])


def ref_plane_wave(rng, null):
    amp = ref_components(rng, 1.0, 4)
    if null:
        kappa = ref_components(rng, 1.0, 3)
        kappa0 = np.sqrt(np.complex128(kappa @ kappa))
    else:
        kappa0 = ref_complex(rng, 1.0)
        kappa = ref_components(rng, 1.0, 3)
    return amp, np.concatenate([[kappa0], kappa])


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def draw_pairs():
    """name -> (draw under test, its reference), each returning the arrays to compare."""
    def field(width, degree):
        def draw(rng):
            f = (random_field if width == 4 else random_scalar_field)(rng, degree=degree)
            return f.exps, f.coeffs
        return draw, lambda rng: ref_polynomial(rng, degree, 1.0, width)

    def wave(null):
        def draw(rng):
            f = (null_plane_wave if null else random_plane_wave)(rng)
            return f.coeffs[0], f.phases[0]
        return draw, lambda rng: ref_plane_wave(rng, null)

    pairs = {f"field-w{w}-d{d}": field(w, d) for w in (4, 1) for d in (0, 1, 3, 8)}
    pairs.update({
        "paravector": (lambda rng: (random_paravector(rng).data,),
                       lambda rng: (ref_paravector(rng)[0].data,)),
        "paravector-min-det-2": (lambda rng: (random_paravector(rng, 2.0, 2.0).data,),
                                 lambda rng: (ref_paravector(rng, 2.0, 2.0)[0].data,)),
        # a stack of rows takes the stream as one draw after another does
        "paravectors-7": (lambda rng: (random_paravectors(rng, 7),),
                          lambda rng: (ref_paravectors(rng, 7),)),
        "paravectors-7-min-det-2": (lambda rng: (random_paravectors(rng, 7, 2.0, 2.0),),
                                    lambda rng: (ref_paravectors(rng, 7, 2.0, 2.0),)),
        "orthogonal": (lambda rng: (random_orthogonal(rng).data,),
                       lambda rng: (normalize_orthogonal(ref_paravector(rng)[0]).data,)),
        "event": (lambda rng: (random_event(rng).data,),
                  lambda rng: (ref_components(rng, 2.0, 4),)),
        "plane-wave": wave(False),
        "null-plane-wave": wave(True),
    })
    return pairs


DRAW_PAIRS = draw_pairs()


# seeds whose first paravector draw has |det| < 0.1, so random_paravector redraws
REDRAW_SEEDS = (718, 1310, 1373)


@pytest.mark.parametrize("name", DRAW_PAIRS)
def test_draws_match_the_scalar_reference_bit_for_bit(name):
    draw, ref = DRAW_PAIRS[name]
    seeds = range(12) if name.endswith("d8") else [*range(150), *REDRAW_SEEDS]
    for seed in seeds:
        got_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = draw(got_rng), ref(ref_rng)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert same_bytes(g, w), (name, seed)
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state, (name, seed)


def test_paravector_reference_seeds_exercise_the_rejection_loop():
    # so the draws above also compare the stream use of the redraw loop
    assert all(ref_paravector(np.random.default_rng(s))[1] > 1 for s in REDRAW_SEEDS)
    assert sum(ref_paravector(np.random.default_rng(s), 2.0, 2.0)[1] > 1 for s in range(150)) > 10


def ref_canonical_terms(exps, coeffs):
    """Left-to-right dict merge, zero rows dropped, keys sorted."""
    merged = {}
    for e, c in zip(np.asarray(exps, np.int64).reshape(-1, 4),
                    np.asarray(coeffs, np.complex128).reshape(-1, 4)):
        key = tuple(int(v) for v in e)
        merged[key] = merged[key] + c if key in merged else c.copy()
    keys = sorted(k for k, c in merged.items() if np.any(c != 0))
    return (np.array(keys, dtype=np.int64).reshape(-1, 4),
            np.array([merged[k] for k in keys], dtype=np.complex128).reshape(-1, 4))


def canonical_inputs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 40))
    top = int(rng.integers(1, DEGREE_CAP + 1))
    exps = rng.integers(0, top + 1, size=(n, 4))
    pool = np.array([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -2.5, 3.0])
    coeffs = (rng.choice(pool, size=(n, 4)) + 1j * rng.choice(pool, size=(n, 4)))
    coeffs[rng.random(n) < 0.2] = 0.0          # zero rows
    neg = rng.random(n) < 0.2
    coeffs[neg] = -0.0 - 0.0j * coeffs[neg]    # signed-zero rows
    coeffs[rng.random(n) < 0.1] += rng.normal(size=4)  # inexact sums
    if seed % 3 == 0:                          # sorted, distinct rows
        exps = np.array(sorted({tuple(e) for e in exps}), np.int64).reshape(-1, 4)
        coeffs = coeffs[:len(exps)]
    return exps, coeffs


def test_canonical_terms_match_the_dict_merge_byte_for_byte():
    for seed in range(300):
        exps, coeffs = canonical_inputs(seed)
        got = _canonical_terms(exps, coeffs)
        want = ref_canonical_terms(exps, coeffs)
        for g, w in zip(got, want):
            assert same_bytes(g, w), seed
            assert not g.flags.writeable


def test_canonical_terms_merge_in_order_of_appearance():
    # (a + b) + c differs from a + (b + c) in the last bit here
    exps = [(0, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)]
    c = np.zeros((5, 4), np.complex128)
    c[[0, 2, 3], 0] = [0.1, 0.2, 0.3]
    c[1, 1] = -0.0
    c[4, 2] = 1.0
    for rows in itertools.permutations(range(5)):
        e, k = np.array(exps)[list(rows)], c[list(rows)]
        for g, w in zip(_canonical_terms(e, k), ref_canonical_terms(e, k)):
            assert same_bytes(g, w), rows


def test_partials_are_canonical_without_a_merge():
    rng = np.random.default_rng(5)
    for i in range(40):
        draw = random_field if i % 2 == 0 else random_scalar_field
        p = draw(rng, degree=int(rng.integers(0, DEGREE_CAP + 1)))
        for c in rng.integers(0, 4, size=int(rng.integers(1, 7))):
            p = p.partial(int(c))
            q = Field(p.exps, p.coeffs)
            assert same_bytes(p.exps, q.exps) and same_bytes(p.coeffs, q.coeffs)
            assert not p.exps.flags.writeable and not p.coeffs.flags.writeable
