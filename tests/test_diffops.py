import tracemalloc

import numpy as np
import pytest

from paracalc.algebra import IDENTITY, Event, Paravector, left_matrix, right_matrix
from paracalc.kernels import _degree_exponents, jets, table_rows
from paracalc.diffops import (
    EXACT,
    Numeric,
    block_div4_field,
    block_grad4_field,
    block_partial,
    block_pullback,
    block_scalar_mul,
    block_times,
    assemble_div,
    assemble_grad,
    box4,
    bundle,
    div4,
    grad4,
    max_partial_errors,
    product_rule_failure_witness,
    scalar_order_gap,
)
from paracalc.fields import (
    Field,
    random_event,
    random_field,
    random_plane_wave,
)

from util import (additivity_sides, block_of, central_difference, div4_field, gap, grad4_field,
                  leibniz_sides, max_abs, null_plane_wave, pv_mul, random_paravector,
                  random_scalar_field, rel_err, rows, sample_field)


def radial_field():
    # [0; (x, y, z)]
    return Field([(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
                           [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])


def test_bundle_constant_is_zero():
    f = Field.constant(Paravector(1.0, (2.0, 3.0, 4.0)))
    np.testing.assert_array_equal(bundle(f, random_event(0), EXACT), np.zeros((4, 4)))


def test_bundle_identity_pattern():
    # [t; (x, y, z)] has the identity as its derivative bundle
    f = Field(np.eye(4, dtype=np.int64), np.eye(4))
    np.testing.assert_array_equal(bundle(f, random_event(1), EXACT), np.eye(4))


def test_div4_examples():
    X = random_event(2)
    zero = Field.constant(Paravector(1.0, (1.0, 1.0, 1.0)))
    assert max_abs(div4(zero, X).data) == 0.0
    np.testing.assert_array_equal(div4(radial_field(), X).data, [3, 0, 0, 0])
    swirl = Field([(0, 0, 1, 0), (0, 1, 0, 0)], [(0, -1, 0, 0), (0, 0, 1, 0)])
    np.testing.assert_array_equal(div4(swirl, X).data, [0, 0, 0, 2j])


def test_grad4_examples():
    X = random_event(3)
    np.testing.assert_array_equal(grad4(radial_field(), X).data, [-3, 0, 0, 0])
    half_t_sq = Field.monomial((2, 0, 0, 0), Paravector(0.5))
    np.testing.assert_allclose(
        grad4(half_t_sq, X).data, [X.t, 0, 0, 0], rtol=1e-15
    )


def test_box4_examples():
    X = random_event(4)
    linear = Field([(1, 0, 0, 0), (0, 0, 1, 0)], [(2, 1, 0, 0), (0, 0, 0, 1)])
    assert max_abs(box4(linear, X).data) == 0.0
    tx = Field([(2, 0, 0, 0), (0, 2, 0, 0)], [(1, 0, 0, 0), (1, 0, 0, 0)])
    assert max_abs(box4(tx, X).data) == 0.0


def test_box4_annihilates_null_plane_waves():
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = null_plane_wave(rng)
        assert max_abs(box4(f, random_event(rng)).data) <= 1e-12


def test_assembly_matches_independent_oracle():
    # oracle: the field constructions sum_k E_k (d_k A), evaluated by
    # paravector products rather than by the assembly formulas
    rng = np.random.default_rng(6)
    for i in range(20):
        f = random_field(rng) if i % 2 == 0 else random_plane_wave(rng)
        X = random_event(rng)
        assert rel_err(div4(f, X).data, div4_field(f).at(X).data) <= 1e-12
        assert rel_err(grad4(f, X).data, grad4_field(f).at(X).data) <= 1e-12


def test_div4_linear_in_field():
    rng = np.random.default_rng(7)
    f, g = random_field(rng), random_plane_wave(rng)
    X = random_event(rng)
    alpha = Paravector(0.5 - 1.5j)
    combo = Field.sum(f.left_mul(alpha), g)
    lhs = div4(combo, X).data
    rhs = alpha.s * div4(f, X).data + div4(g, X).data
    assert rel_err(lhs, rhs) <= 1e-12


def test_operator_factorization_exact():
    rng = np.random.default_rng(8)
    for i in range(10):
        f = random_field(rng) if i % 2 == 0 else random_plane_wave(rng)
        X = random_event(rng)
        b = box4(f, X).data
        assert rel_err(grad4(div4_field(f), X).data, b) <= 1e-12
        assert rel_err(div4(grad4_field(f), X).data, b) <= 1e-12


def test_operator_factorization_numeric():
    rng = np.random.default_rng(9)
    h = 1e-4
    for i in range(4):
        f = random_field(rng) if i % 2 == 0 else random_plane_wave(rng)
        X = random_event(rng)
        b = box4(f, X, Numeric(h)).data

        def div_fn(xd):
            dd = np.empty((4, 4), np.complex128)
            for c in range(4):
                dd[:, c] = central_difference(f._value, xd, c, h)
            return assemble_div(dd)

        dgrad = np.empty((4, 4), np.complex128)
        for c in range(4):
            dgrad[:, c] = central_difference(div_fn, X.data, c, h)
        assert rel_err(assemble_grad(dgrad), b) <= 1e-4


def test_numeric_box_agrees_with_exact():
    f = random_field(10)
    X = random_event(11)
    ex = box4(f, X).data
    num = box4(f, X, Numeric(1e-4)).data
    assert rel_err(num, ex) <= 1e-5


def test_additivity_residual():
    rng = np.random.default_rng(12)
    for i in range(20):
        f = random_field(rng)
        g = random_field(rng) if i % 2 == 0 else random_plane_wave(rng)
        X = random_event(rng)
        assert max_abs(gap(additivity_sides(f, g, X))) <= 1e-12
        assert max_abs(gap(additivity_sides(f, f, X))) <= 1e-12
        assert max_abs(
            gap(additivity_sides(f, Field.zero(), X))
        ) <= 1e-12


def test_div4_of_scalar_field_is_gradient_paravector():
    # (d rho) = [drho/dt; grad rho] is div4 of the scalar field [rho; 0]
    rho = Field.monomial((0, 1, 0, 0), IDENTITY)
    got = div4(rho, random_event(13))
    np.testing.assert_array_equal(got.data, [0, 1, 0, 0])
    num = div4(rho, random_event(13), Numeric(1e-5))
    assert max_abs(num.data - got.data) <= 1e-10


def leibniz_gap(rho, f, X):
    lhs, rhs = leibniz_sides(rho, f, X)
    return max_abs(lhs.data - rhs.data)


def test_leibniz_residual_special_cases():
    X = random_event(14)
    f = random_field(15)
    const_rho = Field.constant(Paravector(2.0 - 1.0j))
    assert leibniz_gap(const_rho, f, X) <= 1e-13
    rho_t = Field.monomial((1, 0, 0, 0), IDENTITY)
    f_x = Field.monomial((0, 1, 0, 0), Paravector(1.0))
    assert leibniz_gap(rho_t, f_x, X) <= 1e-13


def test_leibniz_residual_random():
    rng = np.random.default_rng(16)
    for i in range(30):
        rho = random_scalar_field(rng)
        f = random_field(rng) if i % 2 == 0 else random_plane_wave(rng)
        X = random_event(rng)
        assert leibniz_gap(rho, f, X) <= 1e-12


def test_product_rule_failure_witness_frozen_value():
    f = Field.monomial((0, 1, 0, 0), Paravector(0.0, (1.0, 0.0, 0.0)))
    g = Field.monomial((0, 0, 1, 0), Paravector(0.0, (0.0, 1.0, 0.0)))
    res = product_rule_failure_witness(f, g, Event(0.0, (1.0, 1.0, 1.0)))
    np.testing.assert_allclose(res.data, [0, -2, 0, 0], atol=1e-12)
    assert max_abs(res.data) >= 1.9  # regression pin
    assert max_abs(res.data) >= 0.5


def test_product_rule_witness_degenerate_constants():
    f = Field.constant(Paravector(1.0, (1.0, 0.0, 0.0)))
    g = Field.constant(Paravector(0.0, (0.0, 1.0, 2.0)))
    res = product_rule_failure_witness(f, g, random_event(17))
    assert max_abs(res.data) == 0.0


def test_scalar_order_gap_frozen_value():
    rho = Field.monomial((0, 1, 0, 0), IDENTITY)
    a = Paravector(0.0, (0.0, 1.0, 0.0))
    res = scalar_order_gap(rho, a, Event(0.0, (1.0, 1.0, 1.0)))
    np.testing.assert_allclose(res.data, [0, 0, 0, 2j], atol=1e-12)
    assert max_abs(res.data) >= 1.9  # regression pin


def test_stacked_witnesses_match_the_per_pair_products_bit_for_bit():
    rng = np.random.default_rng(29)
    for i in range(12):
        f = random_field(rng) if i % 3 else random_plane_wave(rng)
        g, rho = random_field(rng, degree=2), random_scalar_field(rng)
        a, X = random_paravector(rng), random_event(rng)
        fv, gv = f.at(X).data, g.at(X).data
        df, dg = bundle(f, X, EXACT), bundle(g, X, EXACT)
        d = np.empty((4, 4), np.complex128)
        for c in range(4):
            d[:, c] = pv_mul(df[:, c], gv) + pv_mul(fv, dg[:, c])
        want = assemble_div(d) - (pv_mul(assemble_div(df), gv) + pv_mul(fv, assemble_div(dg)))
        got = product_rule_failure_witness(f, g, X).data
        assert got.tobytes() == want.tobytes(), i
        drho = div4(rho, X).data
        want = pv_mul(drho, a.data) - pv_mul(a.data, drho)
        assert scalar_order_gap(rho, a, X).data.tobytes() == want.tobytes(), i


def test_numeric_mode_validation():
    with pytest.raises(ValueError):
        Numeric(0.0)
    with pytest.raises(ValueError):
        Numeric(-1e-5)


def test_numeric_mode_refuses_non_finite_steps():
    for h in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="finite"):
            Numeric(h)


# -- blocks: the lowered partial, the operator fields and the scalar product ------

def _mixed(seed, n):
    """n fields as the suites draw them, dense and plane waves in turn, and their block."""
    rng = np.random.default_rng(seed)
    fields = [sample_field(rng, i) for i in range(n)]
    return rng, fields, block_of(*fields)


def test_block_partial_matches_field_partial_on_the_table():
    # Field._partial's lowered rows, moved onto the table: equal as numbers
    # (block_of adds onto zeros, so only the sign of a zero could differ)
    _, fields, f = _mixed(40, 12)
    for c in range(4):
        want = block_of(*(g.partial(c) for g in fields))
        assert np.array_equal(block_partial(f, c)[2], want[2])
        assert np.array_equal(block_partial(f, c)[1], want[1])
    assert np.array_equal(block_div4_field(f)[2], block_of(*map(div4_field, fields))[2])
    assert np.array_equal(block_grad4_field(f)[2], block_of(*map(grad4_field, fields))[2])


def test_block_times_multiplies_the_coefficient_rows_as_field_times():
    # h A and A h of dense polynomials and plane waves: each row's
    # coefficients equal those of g.left_mul(h) and g.right_mul(h), placed
    # on the table, byte for byte, and the rows the field lacks stay zero
    rng, fields, f = _mixed(43, 40)
    hs = [random_paravector(rng) for _ in fields]
    for matrix, field_times in ((left_matrix, "left_mul"), (right_matrix, "right_mul")):
        m, k, c = block_times(f, matrix(np.array([h.data for h in hs])))
        assert m is None and k is f[1]
        for p, (g, h) in enumerate(zip(fields, hs)):
            want = getattr(g, field_times)(h)
            on = table_rows(3, want.exps)
            assert c[p, on].tobytes() == want.coeffs.tobytes(), (field_times, p)
            assert not np.delete(c[p], on, axis=0).any(), (field_times, p)


def test_operator_fields_fold_a_factor_into_the_coefficients():
    # block_times multiplies the coefficient rows by h as Field._times does,
    # so the operator fields of h A equal div4_field and grad4_field of
    # g.left_mul(h) exactly
    rng, fields, f = _mixed(44, 12)
    hs = [random_paravector(rng) for _ in fields]
    moved = block_times(f, left_matrix(np.array([h.data for h in hs])))
    for block_op, field_op in ((block_div4_field, div4_field), (block_grad4_field, grad4_field)):
        got = block_op(moved)
        want = block_of(*(field_op(g.left_mul(h)) for g, h in zip(fields, hs)))
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_jets_and_partial_errors_take_an_empty_stack_of_points():
    # an empty stack gives zero errors, as Field._value gives an empty stack
    # of values, and an empty block gives empty jets, framed or not
    f = random_field(1)
    assert max_partial_errors([f], [], [0.1, 0.05]) == [0.0, 0.0]
    value, first = jets(block_of(), np.zeros((0, 4)), 1)
    assert value.shape == (0, 4) and first.shape == (0, 4, 4)
    framed = block_pullback(block_of(), np.zeros((0, 4, 4)))
    assert [d.shape for d in jets(framed, np.zeros((0, 4)), 2)] == [
        (0, 4), (0, 4, 4), (0, 4, 4)]


def test_exact_operators_of_a_high_degree_monomial_cost_its_terms():
    # t^8 x^8 y^8 z^8 has one term: its exact operators evaluate the partial
    # fields of that term, never the 58905 rows of its degree's full table
    f = Field.monomial((8, 8, 8, 8), IDENTITY)
    X = Event(1, (1, 1, 1))
    tracemalloc.start()
    try:
        box, div = box4(f, X).data, div4(f, X).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(box, [-112, 0, 0, 0]) and np.array_equal(div, [8, 8, 8, 8])
    assert peak < 1 << 20, peak


def test_block_partial_of_a_framed_row_takes_the_chain_rule():
    rng = np.random.default_rng(41)
    fields = [random_field(rng) for _ in range(6)] + [random_plane_wave(rng) for _ in range(2)]
    maps = left_matrix(np.array([random_paravector(rng).data for _ in fields]))
    moved = block_pullback(block_of(*fields), maps)
    xs = rows(*(random_event(rng) for _ in fields))
    for c in range(4):
        got = jets(block_partial(moved, c), xs, 0)[0]
        for p, (g, m) in enumerate(zip(fields, maps)):
            assert rel_err(got[p], g.pullback(m).partial(c)._value(xs[p])) <= 1e-12


def test_block_scalar_mul_matches_field_scalar_mul():
    rng, fields, f = _mixed(42, 12)
    rhos = [random_scalar_field(rng) for _ in fields]
    _, k, c = block_scalar_mul(block_of(*rhos)[2][..., 0], f)
    table = {tuple(e): t for t, e in enumerate(_degree_exponents(6).tolist())}
    for p, (rho, g) in enumerate(zip(rhos, fields)):
        want = np.zeros((len(table), 4), np.complex128)
        product = g.scalar_mul(rho)
        for e, coeff in zip(product.exps.tolist(), product.coeffs):
            want[table[tuple(e)]] = coeff
        assert np.abs(c[p] - want).max() <= 1e-15 * np.abs(want).max()
        assert np.array_equal(k[p], f[1][p])
