import itertools
import tracemalloc

import numpy as np
import pytest

from paracalc import kernels
from paracalc.kernels import _degree_exponents

from util import plane_wave_eval, poly_eval, pv_mul, random_rows


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
            kernels.poly_eval_rows(exps, coeffs, x[None])[0],
            sum(m * c for m, c in zip(monos, coeffs)),
            rtol=0, atol=1e-11,
        )
        sc = rng.normal(size=(12, 1)) + 1j * rng.normal(size=(12, 1))
        np.testing.assert_allclose(
            kernels.poly_eval_rows(exps, sc, x[None])[0],
            sum(m * c for m, c in zip(monos, sc)),
            rtol=0, atol=1e-11,
        )


def test_degree_exponents_are_the_rows_of_the_product_in_order():
    for degree in list(range(9)) + [16]:
        want = [e for e in itertools.product(range(degree + 1), repeat=4) if sum(e) <= degree]
        got = _degree_exponents(degree)
        assert got.dtype == np.int64 and not got.flags.writeable
        assert got.tolist() == [list(e) for e in want], degree


def test_pv_mul_identity():
    rng = np.random.default_rng(1)
    e = np.array([1, 0, 0, 0], np.complex128)
    for _ in range(5):
        a = _random_quad(rng)
        np.testing.assert_array_equal(pv_mul(e, a), a)
        np.testing.assert_array_equal(pv_mul(a, e), a)


def test_pv_mul_rows_matches_pv_mul_bit_for_bit():
    rng = np.random.default_rng(3)
    a, b = random_rows(rng, 2000), random_rows(rng, 2000)
    got = kernels.pv_mul_rows(a, b)
    assert got.shape == a.shape
    for i in range(len(a)):
        assert got[i].tobytes() == pv_mul(a[i], b[i]).tobytes(), i


def _assert_rows_bit_for_bit(got, one_row, n):
    assert got.shape == (n, 4)
    for i in range(n):
        assert got[i].tobytes() == one_row(i).tobytes(), i


def _sets(c):
    """Three coefficient sets (3, T, width) on c's exponent rows: c itself,
    its rows rotated by one, and c scaled."""
    return np.stack([c, np.roll(c, 1, axis=0), c * (0.5 - 2j)])


def test_poly_eval_rows_matches_poly_eval_bit_for_bit():
    rng = np.random.default_rng(4)
    for degree in range(9):
        exps = _degree_exponents(degree)
        coeffs = random_rows(rng, len(exps))[rng.permutation(2 * len(exps))[:len(exps)]]
        for sub in (exps, exps[rng.random(len(exps)) < 0.5]):  # dense, then sparse
            c = coeffs[:len(sub)]
            xs = random_rows(rng, 40)  # spread rows, then exact and signed-zero rows
            got = kernels.poly_eval_rows(sub, c, xs)
            _assert_rows_bit_for_bit(got, lambda i: poly_eval(sub, c, xs[i]), len(xs))
            for width in (4, 1):  # sets share the monomials, each row as its own call
                sets = _sets(c[:, :width])
                got = kernels.poly_eval_rows(sub, sets, xs)
                assert got.shape == (3, len(xs), width if len(sub) else 4)
                for s, rows in zip(sets, got):
                    assert rows.tobytes() == kernels.poly_eval_rows(sub, s, xs).tobytes()
                    for i, x in enumerate(xs):
                        assert rows[i].tobytes() == poly_eval(sub, s, x).tobytes(), i


def test_poly_eval_rows_overflows_where_poly_eval_does():
    rng = np.random.default_rng(5)
    exps = _degree_exponents(6)
    coeffs = random_rows(rng, len(exps))[:len(exps)]
    xs = random_rows(rng, 40) * 10.0 ** rng.integers(0, 60, size=(80, 4))
    with np.errstate(all="ignore"):
        got = kernels.poly_eval_rows(exps, coeffs, xs)
        ref = np.array([poly_eval(exps, coeffs, x) for x in xs])
        for width in (4, 1):
            sets = _sets(coeffs[:, :width])
            grouped = kernels.poly_eval_rows(exps, sets, xs)
            for s, rows in zip(sets, grouped):
                assert rows.tobytes() == np.array([poly_eval(exps, s, x) for x in xs]).tobytes()
    finite = np.isfinite(ref).all(axis=1)
    assert finite.any() and not finite.all()  # some rows overflow, others do not
    assert got.tobytes() == ref.tobytes()  # inf and NaN in the same places


def test_empty_polynomial_evaluates_to_zero():
    # One point, evaluated as a stack of one as Field._value does.
    exps = np.zeros((0, 4), np.int64)
    coeffs = np.zeros((0, 4), np.complex128)
    x = np.ones((1, 4), np.complex128)
    np.testing.assert_array_equal(kernels.poly_eval_rows(exps, coeffs, x)[0], np.zeros(4))
    assert not np.any(kernels.poly_eval_rows(exps, np.zeros((0, 1), np.complex128), x))


def test_poly_eval_rows_of_the_empty_polynomial_are_zero():
    exps = np.zeros((0, 4), np.int64)
    xs = np.ones((3, 4), np.complex128)
    for width in (4, 1):  # paravector and scalar coefficients
        got = kernels.poly_eval_rows(exps, np.zeros((0, width), np.complex128), xs)
        np.testing.assert_array_equal(got, np.zeros((3, 4)))
        got = kernels.poly_eval_rows(exps, np.zeros((2, 0, width), np.complex128), xs)
        np.testing.assert_array_equal(got, np.zeros((2, 3, 4)))


def test_plane_wave_eval_rows_matches_plane_wave_eval_bit_for_bit():
    rng = np.random.default_rng(6)
    for _ in range(20):
        k4, amp = _random_quad(rng), _random_quad(rng)
        xs = random_rows(rng, 40)
        amps = random_rows(rng, 40)
        with np.errstate(all="ignore"):  # the spread rows reach exp overflow
            one = kernels.plane_wave_eval_rows(k4, amp, xs)
            per_row = kernels.plane_wave_eval_rows(k4, amps, xs)
            _assert_rows_bit_for_bit(one, lambda i: plane_wave_eval(k4, amp, xs[i]), len(xs))
            _assert_rows_bit_for_bit(per_row, lambda i: plane_wave_eval(k4, amps[i], xs[i]),
                                     len(xs))


def _order_0_pass():
    """An upper bound on the points in a pass of order 0 on the degree-3
    table, the largest pass: a point takes 10 T of its doubles (and a row's
    own coefficients 16 T more), so a stack of twice as many crosses a pass
    boundary at every order."""
    return kernels._BUDGET // (10 * len(_degree_exponents(3)))


def test_jets_rows_do_not_depend_on_the_stack():
    # each row of a stack equals the same row evaluated alone or among 7,
    # bit for bit, framed and phased or not
    rng = np.random.default_rng(12)
    terms = len(_degree_exponents(3))
    step = _order_0_pass()
    n = 2 * step + 2
    xs = random_rows(rng, n // 2)

    def cx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    framed = (cx(n, 4, 4), cx(n, 4), cx(n, terms, 4))
    with np.errstate(all="ignore"):  # the spread rows reach exp overflow
        for f in [framed, (None, None, framed[2])]:
            for order in (0, 1, 2):
                whole = kernels.jets(f, xs, order)
                for lo, hi in [(0, 1), (7, 8), (n - 1, n), (0, 7), (step - 3, step + 4)]:
                    some = kernels.jets(tuple(None if a is None else a[lo:hi] for a in f),
                                        xs[lo:hi], order)
                    for got, want in zip(some, whole):
                        assert got.tobytes() == want[lo:hi].tobytes(), (order, lo, hi)


def test_jets_points_of_a_row_do_not_depend_on_the_row():
    # a row with more points than a pass holds is evaluated a pass of points
    # at a time: each point equals the same point evaluated alone, bit for bit
    rng = np.random.default_rng(13)
    terms = len(_degree_exponents(3))
    step = _order_0_pass()
    n, k = 3, 2 * step + 2
    xs = random_rows(rng, n * k // 2).reshape(n, k, 4)

    def cx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    f = cx(n, 4, 4), cx(n, 4), cx(n, terms, 4)  # per row, over the row's points
    with np.errstate(all="ignore"):  # the spread rows reach exp overflow
        for order in (0, 1, 2):
            whole = kernels.jets(f, xs, order)
            for p, j in [(0, 0), (0, 21), (1, step - 1), (1, step), (2, k - 1)]:
                one = kernels.jets(tuple(a[p:p + 1] for a in f), xs[p:p + 1, j:j + 1], order)
                for got, want in zip(one, whole):
                    assert got.tobytes() == want[p:p + 1, j:j + 1].tobytes(), (order, p, j)


def _traced_peak(fn):
    """The tracemalloc peak of fn(), in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_jets_flatten_several_middle_axes_to_one():
    # points (n, a, b, 4), a stencil's layout, give the (n, a b, 4) call's
    # results bit for bit, and split into passes of points as that call does
    rng = np.random.default_rng(16)
    terms = len(_degree_exponents(3))
    n, a, b = 3, 16, 16
    xs = random_rows(rng, n * a * b // 2).reshape(n, a, b, 4)

    def cx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    framed = (cx(n, 4, 4), cx(n, 4), cx(n, terms, 4))
    with np.errstate(all="ignore"):  # the spread rows reach exp overflow
        for f in [framed, (None, framed[1], framed[2]), (None, None, framed[2])]:
            for order in (0, 1, 2):
                got = kernels.jets(f, xs, order)
                want = kernels.jets(f, xs.reshape(n, a * b, 4), order)
                for g, w in zip(got, want):
                    assert g.shape == (n, a, b) + w.shape[2:]
                    assert g.tobytes() == w.tobytes(), order
    # one cubic row at 16 x 16 points: once traced without its passes, at
    # about six times the peak of the call on the flattened points; 1 KB
    # covers the flattening's own Python objects, a fifth of one point's
    # doubles in a pass
    row, one = (None, None, framed[2][:1]), xs[:1]
    kernels.jets(row, one, 1)  # the plan is built on first use
    nested = _traced_peak(lambda: kernels.jets(row, one, 1))
    flat = _traced_peak(lambda: kernels.jets(row, one.reshape(1, a * b, 4), 1))
    assert nested <= flat + 1024, (nested, flat)


@pytest.mark.parametrize("degree", [3, 6])
def test_lowering_table_follows_the_rule(degree):
    # slot q of row e: d_j d_l x^e = e_j (e_l - [j = l]) x^(e - u_j - u_l),
    # worked from the integer exponent rows; weight 0 and row 0 where an
    # exponent drops below 0
    exps = _degree_exponents(degree).tolist()
    pairs = [()] + [(j,) for j in range(4)] + [(j, j) for j in range(4)] + [
        (j, l) for j in range(4) for l in range(j + 1, 4)]
    rows, weight = kernels.lowering(degree, 15)
    assert rows.shape == weight.shape == (15, len(exps))
    for q, pair in enumerate(pairs):
        for t, e in enumerate(exps):
            low, w = list(e), 1
            for j in pair:
                w *= low[j]
                low[j] -= 1
            if min(low) < 0:
                assert (weight[q, t], rows[q, t]) == (0, 0), (q, e)
            else:
                assert weight[q, t] == w and exps[rows[q, t]] == low, (q, e)
    for slots in (1, 5, 9):
        for got, want in zip(kernels.lowering(degree, slots), (rows, weight)):
            assert np.array_equal(got, want[:slots])


@pytest.mark.parametrize("terms", [35, 210])
def test_point_products_do_not_depend_on_the_stack(terms):
    # the jets sum each point's slots against coefficient_matrix in one
    # einsum; each point and slot must equal the same sum taken alone, bit
    # for bit, whether the coefficients are shared or one set per row
    rng = np.random.default_rng(15)
    for q in (1, 5, 9, 15):
        a = rng.normal(size=(40, q, 2 * terms))
        for c in (rng.normal(size=(terms, 4)), rng.normal(size=(40, terms, 4))):
            b = kernels.coefficient_matrix(c + 1j * rng.normal(size=c.shape))
            whole = np.einsum("...qs,...os->...qo", a, b)
            for i, s in [(0, 0), (1, q - 1), (17, q // 2), (39, 0)]:
                alone = np.einsum("s,os->o", a[i, s], b if b.ndim == 2 else b[i])
                assert alone.tobytes() == whole[i, s].tobytes(), (q, i, s)
