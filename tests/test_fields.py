import numpy as np
import pytest

from paracalc.algebra import (
    Event,
    Paravector,
    act_left,
    act_right,
    conjugate_rotate,
    inverse,
    mul,
)
from paracalc.fields import (
    DEGREE_CAP,
    LeftMulField,
    LinearMap,
    MAX_DEPTH,
    MonomialTerm,
    PlaneWaveField,
    PolynomialField,
    PullbackField,
    RightMulField,
    ScalarField,
    ScalarScaledField,
    SumField,
    component_scalar,
    coord_index,
    null_plane_wave,
    numeric_partial,
    random_event,
    random_field,
    random_paravector,
    random_plane_wave,
    random_scalar_field,
    sum_fields,
)

from util import max_abs, rel_err


def composite_tree(seed: int = 0):
    """One field using every constructor, for closure and oracle tests."""
    rng = np.random.default_rng(seed)
    poly = random_field(rng, degree=2)
    wave = random_plane_wave(rng)
    g = random_paravector(rng)
    rho = random_scalar_field(rng, degree=2)
    mapped = PullbackField(LinearMap.left_action(inverse(g)), poly)
    return SumField(
        ScalarScaledField(rho, wave),
        LeftMulField(g, RightMulField(mapped, g)),
    )


# -- evaluation ---------------------------------------------------------------

def test_eval_constant():
    c = Paravector(2.0 + 1j, (0.0, 1.0, -1.0))
    f = PolynomialField.constant(c)
    for seed in range(3):
        assert f.at(random_event(seed)) == c


def test_eval_monomial():
    f = PolynomialField.monomial((1, 1, 0, 0), Paravector(1.0))
    got = f.at(Event(2.0, (3.0, 0.0, 0.0)))
    np.testing.assert_array_equal(got.data, [6.0, 0, 0, 0])


def test_eval_plane_wave_closed_form():
    amp = Paravector(1.0, (0.5, 0.0, -1.0j))
    f = PlaneWaveField(0.3 + 0.1j, (0.2, -0.4, 1.0j), amp)
    x = Event(0.5, (1.0, 2.0, -0.5))
    expected = amp.data * np.exp(
        (0.3 + 0.1j) * 0.5 + 0.2 * 1.0 - 0.4 * 2.0 + 1.0j * -0.5
    )
    np.testing.assert_allclose(f.at(x).data, expected, rtol=1e-15)


def test_duplicate_terms_merge():
    f = PolynomialField.from_terms([
        MonomialTerm((1, 0, 0, 0), Paravector(1.0)),
        MonomialTerm((1, 0, 0, 0), Paravector(2.0)),
    ])
    assert f.exps.shape[0] == 1
    got = f.at(Event(2.0))
    np.testing.assert_array_equal(got.data, [6.0, 0, 0, 0])


# -- exact derivatives ----------------------------------------------------------

def test_exact_partial_constant_is_zero():
    f = PolynomialField.constant(Paravector(1.0, (1.0, 2.0, 3.0)))
    for c in "txyz":
        d = f.partial(c)
        assert max_abs(d.at(random_event(1)).data) == 0.0


def test_exact_partial_monomial_rule():
    f = PolynomialField.monomial((2, 0, 0, 0), Paravector(0.0, (1.0, 0.0, 0.0)))
    d = f.partial("t")
    got = d.at(Event(3.0))
    np.testing.assert_array_equal(got.data, [0.0, 6.0, 0.0, 0.0])


def test_exact_partial_plane_wave_scales_by_phase_coefficient():
    f = random_plane_wave(7)
    d = f.partial("x")
    x = random_event(8)
    np.testing.assert_allclose(
        d.at(x).data, f.kappa[0] * f.at(x).data, rtol=1e-14
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
    lambda: composite_tree(12),
    lambda: sum_fields(random_field(13), random_plane_wave(14)),
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
            num = numeric_partial(f, X, c, h).data
            assert max_abs(num - ex) <= 1e-7 * (1.0 + loc)


def test_numeric_partial_t_squared():
    f = PolynomialField.monomial((2, 0, 0, 0), Paravector(1.0))
    got = numeric_partial(f, Event(1.0), "t", 1e-5)
    assert abs(got.s - 2.0) <= 1e-9


def test_numeric_partial_convergence_order():
    f = PolynomialField.monomial((3, 0, 0, 0), Paravector(1.0))
    X = Event(1.0)
    errs = []
    for h in (1e-3, 5e-4):
        errs.append(abs(numeric_partial(f, X, "t", h).s - 3.0))
    assert 3.2 <= errs[0] / errs[1] <= 4.8


def test_numeric_partial_rejects_bad_step():
    with pytest.raises(ValueError):
        numeric_partial(random_field(0), random_event(0), "t", 0.0)


# -- linear maps ----------------------------------------------------------------

def test_left_action_matrix_matches_event_action():
    rng = np.random.default_rng(21)
    for _ in range(10):
        g, x = random_paravector(rng), random_event(rng)
        np.testing.assert_allclose(
            LinearMap.left_action(g)(x).data, act_left(g, x).data,
            rtol=0, atol=1e-13,
        )
        np.testing.assert_allclose(
            LinearMap.right_action(g)(x).data, act_right(x, g).data,
            rtol=0, atol=1e-13,
        )


def test_conjugation_matrix_matches_rotation():
    rng = np.random.default_rng(22)
    for _ in range(10):
        lam, x = random_paravector(rng), random_event(rng)
        np.testing.assert_allclose(
            LinearMap.conjugation(lam)(x).data,
            conjugate_rotate(lam, x).data,
            rtol=0, atol=1e-13,
        )


def test_diagonal_map():
    m = LinearMap.diagonal((0.5, 1.0, 1.0, 1.0))
    got = m(Event(2.0, (1.0, 2.0, 3.0)))
    assert got == Event(1.0, (1.0, 2.0, 3.0))


# -- pullbacks ------------------------------------------------------------------

def test_pullback_identity_map():
    f = random_field(30)
    p = PullbackField(LinearMap.left_action(Paravector(1.0)), f)
    x = random_event(31)
    np.testing.assert_array_equal(p.at(x).data, f.at(x).data)


def test_pullback_evaluates_at_mapped_point():
    rng = np.random.default_rng(32)
    for _ in range(10):
        f = random_field(rng)
        g = random_paravector(rng)
        X = random_event(rng)
        # field Y -> f(g^-1 Y), evaluated at gX, recovers f(X)
        p = PullbackField(LinearMap.left_action(inverse(g)), f)
        assert rel_err(p.at(act_left(g, X)).data, f.at(X).data) <= 1e-12


def test_pullback_round_trip():
    rng = np.random.default_rng(33)
    f = random_field(rng)
    g = random_paravector(rng)
    there = PullbackField(LinearMap.left_action(g), f)
    p = PullbackField(LinearMap.left_action(inverse(g)), there)
    for _ in range(100):
        x = random_event(rng)
        assert rel_err(p.at(x).data, f.at(x).data) <= 1e-12


# -- pointwise constructions ----------------------------------------------------

def test_left_right_mul_fields():
    f = random_field(40)
    x = random_event(41)
    g = random_paravector(42)
    assert LeftMulField(Paravector(1.0), f).at(x) == f.at(x)
    np.testing.assert_array_equal(
        RightMulField(f, g).at(x).data,
        mul(f.at(x), g).data,
    )


def test_left_and_right_mul_differ_in_cross_sign():
    f = PolynomialField.constant(Paravector(1.0, (1.0, 0.0, 0.0)))
    g = Paravector(1.0, (0.0, 1.0, 0.0))
    x = Event(0.0)
    lv = LeftMulField(g, f).at(x).data
    rv = RightMulField(f, g).at(x).data
    assert lv[3] == -1j and rv[3] == 1j


def test_scalar_scale_field():
    f = random_field(50)
    x = random_event(51)
    one = ScalarField.constant(1.0)
    assert ScalarScaledField(one, f).at(x) == f.at(x)
    c = Paravector(2.0, (0.0, 1.0, 0.0))
    t_times_c = ScalarScaledField(ScalarField.coordinate("t"), PolynomialField.constant(c))
    mono = PolynomialField.monomial((1, 0, 0, 0), c)
    np.testing.assert_allclose(
        t_times_c.at(x).data, mono.at(x).data, rtol=1e-15
    )


def test_component_scalar_and_scalar_field_ops():
    f = random_field(52)
    x = random_event(53)
    for comp in range(4):
        sc = component_scalar(f, comp)
        assert abs(sc.at(x) - complex(f.at(x).data[comp])) <= 1e-13
    rho = ScalarField.coordinate("x")
    assert rho.antiderivative("x").at(Event(0, (2.0, 0, 0))) == 2.0
    assert (rho + (-rho)).exps.shape[0] == 0


# -- closure / caps ---------------------------------------------------------------

def test_double_derivative_closure():
    f = composite_tree(60)
    rng = np.random.default_rng(61)
    for c1 in range(4):
        for c2 in range(4):
            d2 = f.partial(c1).partial(c2)
            v = d2.at(random_event(rng))
            assert np.all(np.isfinite(v.data))


def test_degree_cap_enforced():
    with pytest.raises(ValueError):
        PolynomialField.monomial((DEGREE_CAP + 1, 0, 0, 0), Paravector(1.0))


def test_term_cap_enforced():
    n = 513
    exps = np.array([(a, b, c, d)
                     for a in range(6) for b in range(6)
                     for c in range(6) for d in range(6)][:n])
    with pytest.raises(ValueError):
        PolynomialField(exps, np.ones((n, 4), np.complex128))


def test_depth_cap_enforced():
    f = random_field(70)
    with pytest.raises(ValueError):
        for _ in range(MAX_DEPTH + 1):
            f = LeftMulField(Paravector(1.0), f)


def test_coord_index():
    assert [coord_index(c) for c in "txyz"] == [0, 1, 2, 3]
    assert coord_index(2) == 2
    with pytest.raises(ValueError):
        coord_index("w")
    with pytest.raises(ValueError):
        coord_index(4)


# -- random families ---------------------------------------------------------------

def test_random_field_deterministic():
    a, b = random_field(123), random_field(123)
    np.testing.assert_array_equal(a.exps, b.exps)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)
    w1, w2 = random_plane_wave(5), random_plane_wave(5)
    assert w1.kappa0 == w2.kappa0
    np.testing.assert_array_equal(w1.kappa, w2.kappa)


def test_random_paravector_respects_det_floor():
    from paracalc.algebra import det

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
    assert abs(f.kappa0 ** 2 - f.kappa @ f.kappa) <= 1e-14
