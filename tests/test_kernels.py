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
