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


def test_jets_rows_do_not_depend_on_the_stack():
    # each row of a stack equals the same row evaluated alone or among 7,
    # bit for bit, whether the frame, phase and coefficients are per row or shared
    rng = np.random.default_rng(12)
    exps = np.array([e for e in np.ndindex(4, 4, 4, 4) if sum(e) <= 3])
    n = 256
    xs = random_rows(rng, n // 2)

    def cx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    per_row = (cx(n, 4, 4), cx(n, 4), cx(n, len(exps), 4))
    shared = (cx(4, 4), cx(4), cx(len(exps), 4))
    with np.errstate(all="ignore"):  # the spread rows reach exp overflow
        for m, k, c in [per_row, shared, (None, None, per_row[2]), (per_row[0], None, shared[2])]:
            for order in (0, 1, 2):
                whole = kernels.jets(xs, m, k, exps, c, order)
                for lo, hi in [(0, 1), (7, 8), (n - 1, n), (0, 7), (100, 107)]:
                    def part(a, ndim):
                        return a if a is None or a.ndim == ndim else a[lo:hi]

                    some = kernels.jets(xs[lo:hi], part(m, 2), part(k, 1), exps, part(c, 2), order)
                    for got, want in zip(some, whole):
                        assert got.tobytes() == want[lo:hi].tobytes(), (order, lo, hi)


def test_jets_points_of_a_row_do_not_depend_on_the_row():
    # a row with more points than a pass holds is evaluated a pass of points
    # at a time: each point equals the same point evaluated alone, bit for bit
    rng = np.random.default_rng(13)
    exps = np.array([e for e in np.ndindex(4, 4, 4, 4) if sum(e) <= 3])
    n, k = 3, 64
    xs = random_rows(rng, n * k // 2).reshape(n, k, 4)

    def cx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    m, ph, c = cx(n, 1, 4, 4), cx(n, 1, 4), cx(n, 1, len(exps), 4)
    with np.errstate(all="ignore"):  # the spread rows reach exp overflow
        for order in (0, 1, 2):
            whole = kernels.jets(xs, m, ph, exps, c, order)
            for p, j in [(0, 0), (0, 21), (1, 40), (2, k - 1)]:
                one = kernels.jets(xs[p:p + 1, j:j + 1], m[p:p + 1], ph[p:p + 1], exps,
                                   c[p:p + 1], order)
                for got, want in zip(one, whole):
                    assert got.tobytes() == want[p:p + 1, j:j + 1].tobytes(), (order, p, j)
