import numpy as np

from paracalc import kernels

from util import random_rows


def _random_quad(rng):
    return rng.normal(size=4) + 1j * rng.normal(size=4)


def _monomials_loop(exps, x):
    """Reference monomials prod_c x[c]**exps[i, c], by repeated multiplication."""
    monos = []
    for row in exps:
        mono = 1.0 + 0.0j
        for c in range(4):
            for _ in range(row[c]):
                mono = mono * x[c]
        monos.append(mono)
    return monos


def test_poly_kernels_match_loop_reference():
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = _random_quad(rng)
        exps = rng.integers(0, 4, size=(12, 4))
        monos = _monomials_loop(exps, x)
        coeffs = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
        np.testing.assert_allclose(
            kernels.poly_eval(exps, coeffs, x),
            sum(m * c for m, c in zip(monos, coeffs)),
            rtol=0, atol=1e-11,
        )
        sc = rng.normal(size=(12, 1)) + 1j * rng.normal(size=(12, 1))
        np.testing.assert_allclose(
            kernels.poly_eval(exps, sc, x),
            sum(m * c for m, c in zip(monos, sc)),
            rtol=0, atol=1e-11,
        )


def test_empty_polynomial_evaluates_to_zero():
    exps = np.zeros((0, 4), np.int64)
    coeffs = np.zeros((0, 4), np.complex128)
    x = np.ones(4, np.complex128)
    np.testing.assert_array_equal(kernels.poly_eval(exps, coeffs, x), np.zeros(4))
    assert not np.any(kernels.poly_eval(exps, np.zeros((0, 1), np.complex128), x))


def test_pv_mul_identity():
    rng = np.random.default_rng(1)
    e = np.array([1, 0, 0, 0], np.complex128)
    for _ in range(5):
        a = _random_quad(rng)
        np.testing.assert_array_equal(kernels.pv_mul(e, a), a)
        np.testing.assert_array_equal(kernels.pv_mul(a, e), a)


def test_pv_mul_rows_matches_pv_mul_bit_for_bit():
    rng = np.random.default_rng(3)
    a, b = random_rows(rng, 2000), random_rows(rng, 2000)
    got = kernels.pv_mul_rows(a, b)
    assert got.shape == a.shape
    for i in range(len(a)):
        assert got[i].tobytes() == kernels.pv_mul(a[i], b[i]).tobytes(), i


def _assert_rows_bit_for_bit(got, one_row, n):
    assert got.shape == (n, 4)
    for i in range(n):
        assert got[i].tobytes() == one_row(i).tobytes(), i


def test_poly_eval_rows_matches_poly_eval_bit_for_bit():
    from paracalc.fields import _degree_exponents

    rng = np.random.default_rng(4)
    for degree in range(9):
        exps = _degree_exponents(degree)
        coeffs = random_rows(rng, len(exps))[rng.permutation(2 * len(exps))[:len(exps)]]
        for sub in (exps, exps[rng.random(len(exps)) < 0.5]):  # dense, then sparse
            c = coeffs[:len(sub)]
            xs = random_rows(rng, 40)  # spread rows, then exact and signed-zero rows
            got = kernels.poly_eval_rows(sub, c, xs)
            _assert_rows_bit_for_bit(got, lambda i: kernels.poly_eval(sub, c, xs[i]), len(xs))


def test_poly_eval_rows_overflows_where_poly_eval_does():
    from paracalc.fields import _degree_exponents

    rng = np.random.default_rng(5)
    exps = _degree_exponents(6)
    coeffs = random_rows(rng, len(exps))[:len(exps)]
    xs = random_rows(rng, 40) * 10.0 ** rng.integers(0, 60, size=(80, 4))
    with np.errstate(all="ignore"):
        got = kernels.poly_eval_rows(exps, coeffs, xs)
        ref = np.array([kernels.poly_eval(exps, coeffs, x) for x in xs])
    finite = np.isfinite(ref).all(axis=1)
    assert finite.any() and not finite.all()  # some rows overflow, others do not
    assert got.tobytes() == ref.tobytes()  # inf and NaN in the same places


def test_poly_eval_rows_of_the_empty_polynomial_are_zero():
    exps = np.zeros((0, 4), np.int64)
    xs = np.ones((3, 4), np.complex128)
    got = kernels.poly_eval_rows(exps, np.zeros((0, 4), np.complex128), xs)
    np.testing.assert_array_equal(got, np.zeros((3, 4)))


def test_plane_wave_eval_rows_matches_plane_wave_eval_bit_for_bit():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k4, amp = _random_quad(rng), _random_quad(rng)
        xs = random_rows(rng, 40)
        amps = random_rows(rng, 40)
        with np.errstate(all="ignore"):  # the spread rows reach exp overflow
            one = kernels.plane_wave_eval_rows(k4, amp, xs)
            per_row = kernels.plane_wave_eval_rows(k4, amps, xs)
            _assert_rows_bit_for_bit(one, lambda i: kernels.plane_wave_eval(k4, amp, xs[i]),
                                     len(xs))
            _assert_rows_bit_for_bit(per_row,
                                     lambda i: kernels.plane_wave_eval(k4, amps[i], xs[i]),
                                     len(xs))
