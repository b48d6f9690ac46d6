import numpy as np
import pytest

from paracalc.algebra import (
    IDENTITY,
    Paravector,
    SingularParavector,
    act_left,
    act_right,
    det,
    inverse,
    left_matrix,
    mul,
    reverse,
    right_matrix,
)
from paracalc.algebra import det_rows, reverse_rows
from paracalc.diffops import (
    EXACT,
    Numeric,
    box4,
    bundle,
    div4,
    grad4,
)
from paracalc.harness import BLOCK
from paracalc.fields import random_event, random_field
from paracalc.kernels import jets
from paracalc.transforms import (
    InvarianceForm,
    block_additivity_sides,
    block_assembly_sides,
    block_factorization_numeric_sides,
    block_factorization_sides,
    block_leibniz_sides,
    block_numeric_partials,
    NotOrthogonal,
    form_point,
    form_value_sides,
    observer_rotation_sides,
    pullback_composition_sides,
    require_orthogonal,
    right_factor_sides,
    transformed_field_values,
    transformed_wave_field,
    transport_sides,
    wave_invariance_sides,
)

from util import (TRANSPORTS, additivity_sides, block_of, central_difference, conjugate_rotate,
                  div4_field, gap, grad4_field, leibniz_sides, max_abs, normalize_orthogonal,
                  random_orthogonal, random_paravector, random_scalar_field, rel_err, rows,
                  sample_field as sample, scale)


def draws(seed, n):
    """n transport draws (g, field, X) as one block, fields alternating as the suites do."""
    rng = np.random.default_rng(seed)
    g, f, X = [], [], []
    for i in range(n):
        g.append(random_paravector(rng))
        f.append(sample(rng, i))
        X.append(random_event(rng))
    return rows(*g), block_of(*f), rows(*X)


def test_identity_transformation_gives_exact_zero():
    rng = np.random.default_rng(0)
    f, X = random_field(rng), random_event(rng)
    for op, right in TRANSPORTS.values():
        assert max_abs(gap(transport_sides(op, right, rows(IDENTITY), block_of(f), rows(X)))) == 0.0


def test_transport_identities_exact():
    g, f, X = draws(1, 20)
    for op, right in TRANSPORTS.values():
        assert max_abs(gap(transport_sides(op, right, g, f, X))) <= 1e-10


def test_transport_identities_numeric():
    g, f, X = draws(2, 10)
    for op, right in TRANSPORTS.values():
        assert max_abs(gap(transport_sides(op, right, g, f, X, Numeric(1e-5)))) <= 1e-5


def test_negated_transformation_keeps_residual_zero():
    # both the inverse and the reversion flip sign, so nothing changes
    rng = np.random.default_rng(3)
    g = random_paravector(rng)
    f, X = block_of(random_field(rng)), rows(random_event(rng))
    for op, right in TRANSPORTS.values():
        assert max_abs(gap(transport_sides(op, right, rows(scale(-1.0, g)), f, X))) <= 1e-10


def test_scalar_transformation_left_right_paths_agree():
    rng = np.random.default_rng(4)
    g = Paravector(1.3 - 0.4j)
    f, X = random_field(rng), random_event(rng)
    # a scalar commutes, so the left and right maps send X to the same point
    assert act_left(g, X) == act_right(X, g)
    moved_left = f.pullback(left_matrix(inverse(g))).left_mul(g)
    moved_right = f.pullback(right_matrix(inverse(g))).left_mul(g)
    Xp = act_left(g, X)
    assert rel_err(
        div4(moved_left, Xp).data, div4(moved_right, Xp).data
    ) <= 1e-12


def test_transform_case_rejects_near_singular():
    g = Paravector(1.0, (1.0, 0.0, 0.0))
    for op, right in TRANSPORTS.values():
        with pytest.raises(SingularParavector, match=r"require \|det\| >= 0\.1"):
            transport_sides(op, right, rows(IDENTITY, g),
                            block_of(random_field(0), random_field(1)),
                            rows(random_event(0), random_event(1)))


@pytest.mark.parametrize("op", [box4, lambda f, X, mode: div4(f, X, mode)],
                         ids=["box4", "div4-wrapper"])
def test_transport_sides_refuses_other_operators(op):
    with pytest.raises(ValueError, match="takes div4 or grad4"):
        transport_sides(op, False, rows(IDENTITY), block_of(random_field(0)), rows(random_event(0)))


# -- constant right factor ------------------------------------------------------

def test_right_factor_identity():
    f, X = block_of(random_field(5)), rows(random_event(5))
    d, g = right_factor_sides(f, rows(IDENTITY), X)
    assert max_abs(gap(d)) == 0.0 and max_abs(gap(g)) == 0.0


def test_right_factor_holds_for_singular_factor():
    f, X = block_of(random_field(6)), rows(random_event(6))
    singular = Paravector(1.0, (1.0, 0.0, 0.0))
    assert abs(det(singular)) == 0.0
    d, g = right_factor_sides(f, rows(singular), X)
    assert max_abs(gap(d)) <= 1e-10 and max_abs(gap(g)) <= 1e-10


def test_right_factor_random_and_plane_wave():
    rng = np.random.default_rng(7)
    f = [sample(rng, i) for i in range(20)]
    g = [random_paravector(rng) for _ in range(20)]
    X = rows(*(random_event(rng) for _ in range(20)))
    d, gr = right_factor_sides(block_of(*f), rows(*g), X)
    assert max_abs(gap(d)) <= 1e-10 and max_abs(gap(gr)) <= 1e-10


# -- observer rotation ------------------------------------------------------------

def test_rotation_identity_lambda():
    f, X = block_of(random_field(8)), rows(random_event(8))
    assert max_abs(gap(observer_rotation_sides(f, rows(IDENTITY), X))) == 0.0


def test_rotation_residual_random():
    rng = np.random.default_rng(9)
    lam, f, Xp = [], [], []
    for i in range(20):
        lam.append(random_orthogonal(rng))
        f.append(sample(rng, i))
        Xp.append(conjugate_rotate(lam[-1], random_event(rng)))
    assert max_abs(gap(observer_rotation_sides(block_of(*f), rows(*lam), rows(*Xp)))) <= 1e-10


def test_rotation_transformed_value_definition():
    # the sides are div4 of the moved field and L B(L~ X' L) L~, by construction
    rng = np.random.default_rng(10)
    lam = random_orthogonal(rng)
    f = random_field(rng)
    Xp = conjugate_rotate(lam, random_event(rng))
    rlam = reverse(lam)
    b = div4(f, conjugate_rotate(rlam, Xp))
    expected_rhs = mul(mul(lam, b), rlam)
    moved = f.pullback(right_matrix(lam) @ left_matrix(rlam)).left_mul(lam).right_mul(rlam)
    lhs, rhs = observer_rotation_sides(block_of(f), rows(lam), rows(Xp))
    np.testing.assert_allclose(lhs[0], div4(moved, Xp).data, rtol=1e-13)
    np.testing.assert_allclose(rhs[0], expected_rhs.data, rtol=1e-13)


def test_require_orthogonal():
    require_orthogonal(rows(IDENTITY), 1e-12)
    unit = normalize_orthogonal(Paravector(2.0, (1.0, 0.0, 0.0)))
    require_orthogonal(rows(unit, IDENTITY), 1e-12)
    with pytest.raises(NotOrthogonal):
        require_orthogonal(rows(unit, Paravector(2.0, (1.0, 0.0, 0.0))), 1e-12)


def test_a_nan_paravector_is_not_orthogonal():
    # NaN > tol is False: a NaN gap must still refuse, not pass NaN rows on
    lam = rows(IDENTITY, Paravector(1.0))
    lam[1, 2] = np.nan
    with pytest.raises(NotOrthogonal, match="nan"):
        require_orthogonal(lam)
    with pytest.raises(NotOrthogonal):
        transformed_field_values(block_of(random_field(11), random_field(12)), lam,
                                 rows(random_event(11), random_event(12)))


def test_rotation_requires_orthogonality():
    with pytest.raises(NotOrthogonal):
        observer_rotation_sides(
            block_of(random_field(11)), rows(Paravector(2.0, (1.0, 0.0, 0.0))),
            rows(random_event(11))
        )


# -- wave invariance ---------------------------------------------------------------

def test_wave_forms_identity_lambda():
    f, X = block_of(random_field(12)), rows(random_event(12))
    for form in InvarianceForm:
        assert max_abs(gap(wave_invariance_sides(form, f, rows(IDENTITY), X))) == 0.0


def test_wave_forms_random():
    rng = np.random.default_rng(13)
    lam, f, X = [], [], []
    for _ in range(10):
        lam.append(random_orthogonal(rng))
        f.append(random_field(rng))
        X.append(random_event(rng))
    lam, f, X = rows(*lam), block_of(*f), rows(*X)
    for form in InvarianceForm:
        Xp = form_point(form, lam, X)
        assert max_abs(gap(wave_invariance_sides(form, f, lam, Xp))) <= 1e-9


def test_wave_forms_require_orthogonality():
    with pytest.raises(NotOrthogonal):
        wave_invariance_sides(
            InvarianceForm.FORM1,
            block_of(random_field(14)),
            rows(Paravector(2.0, (1.0, 0.0, 0.0))),
            rows(random_event(14)),
        )


def test_form_structure_matches_value_laws():
    # forms 1 and 4 leave values untouched, form 2 multiplies them by L~ and
    # form 3 by L, each read at its map's pre-image of X'
    rng = np.random.default_rng(15)
    for _ in range(10):
        lam, f, Xp = random_orthogonal(rng), random_field(rng), random_event(rng)
        rlam = reverse(lam)
        right = f.at(act_right(Xp, rlam))
        left = f.at(act_left(rlam, Xp))
        laws = (right, mul(rlam, right), mul(lam, left), left)
        for form, law in zip(InvarianceForm, laws):
            moved = transformed_wave_field(form, block_of(f), rows(lam))
            value = jets(moved, rows(Xp), 0)[0][0]
            assert rel_err(value, law.data) <= 1e-12


def test_covariant_and_contravariant_values_differ():
    rng = np.random.default_rng(16)
    lam = random_orthogonal(rng)
    assert max_abs(lam.v) > 0.1  # non-scalar
    f = random_field(rng)
    Xp = random_event(rng)
    lam, f, Xp = rows(lam), block_of(f), rows(Xp)
    vals = transformed_field_values(f, lam, Xp)
    both_zero = []
    for form in (InvarianceForm.FORM2, InvarianceForm.FORM3):
        X = form_point(form, reverse_rows(lam), Xp)
        # re-derive the primed point so the residual is evaluated consistently
        Xp_form = form_point(form, lam, X)
        both_zero.append(
            max_abs(gap(wave_invariance_sides(form, f, lam, Xp_form)))
        )
    assert max(both_zero) <= 1e-9
    assert max_abs(vals.covariant - vals.contravariant) >= 1e-3


def test_transformed_values_identity_lambda():
    f, Xp = block_of(random_field(17)), rows(random_event(17))
    vals = transformed_field_values(f, rows(IDENTITY), Xp)
    assert np.array_equal(vals.invariant, vals.covariant)
    assert np.array_equal(vals.invariant, vals.contravariant)


def test_covariant_value_preserves_det():
    rng = np.random.default_rng(18)
    lam = random_orthogonal(rng)
    f, Xp = random_field(rng), random_event(rng)
    vals = transformed_field_values(block_of(f), rows(lam), rows(Xp))
    assert rel_err(det_rows(vals.covariant), det_rows(vals.invariant)) <= 1e-12


def test_transformed_values_require_orthogonality():
    with pytest.raises(NotOrthogonal):
        transformed_field_values(
            block_of(random_field(19)), rows(Paravector(2.0, (1.0, 0.0, 0.0))),
            rows(random_event(19))
        )


# -- group structure ---------------------------------------------------------------

def test_composed_pullbacks_match_composed_transformation():
    rng = np.random.default_rng(20)
    for _ in range(10):
        g1, g2 = random_paravector(rng), random_paravector(rng)
        f = random_field(rng)
        inner = f.pullback(left_matrix(inverse(g1)))
        twice = inner.pullback(left_matrix(inverse(g2)))
        once = f.pullback(left_matrix(inverse(mul(g2, g1))))
        for _ in range(10):
            x = random_event(rng)
            assert rel_err(twice.at(x).data, once.at(x).data) <= 1e-10


# -- blocks -----------------------------------------------------------------------

def _rotation_draws(seed, n):
    rng = np.random.default_rng(seed)
    lam, f, X = [], [], []
    for i in range(n):
        lam.append(random_orthogonal(rng))
        f.append(sample(rng, i))
        X.append(random_event(rng))
    return rows(*lam), block_of(*f), rows(*X)


def _sides_of_every_identity(g, f, X, lam):
    """Every block evaluator once, as a flat list of (n, 4) rows."""
    out = []
    for op, right in TRANSPORTS.values():
        for mode in (EXACT, Numeric(1e-5)):
            out += transport_sides(op, right, g, f, X, mode)
    for mode in (EXACT, Numeric(1e-5)):
        for pair in right_factor_sides(f, g, X, mode):
            out += pair
    out += observer_rotation_sides(f, lam, X)
    out += pullback_composition_sides(g, reverse_rows(g), f, X)
    dense = (None, None, f[2])
    for form in InvarianceForm:
        out += wave_invariance_sides(form, dense, lam, X)
        out += form_value_sides(form, dense, lam, X)
    vals = transformed_field_values(f, lam, X)
    return out + [vals.invariant, vals.covariant, vals.contravariant]


def test_each_row_of_a_block_equals_a_block_of_one_bit_for_bit():
    # a row's result must not depend on the block it sits in: what a replay
    # of one sample relies on
    n = BLOCK
    g, f, X = draws(30, n)
    lam = _rotation_draws(31, n)[0]
    whole = _sides_of_every_identity(g, f, X, lam)

    def part(a, lo, hi):
        return None if a is None else a[lo:hi]

    for lo, hi in [(0, 1), (5, 6), (n - 1, n), (3, 10), (n - 7, n)]:
        some = _sides_of_every_identity(g[lo:hi], tuple(part(a, lo, hi) for a in f), X[lo:hi],
                                        lam[lo:hi])
        for got, want in zip(some, whole):
            assert got.tobytes() == want[lo:hi].tobytes(), (lo, hi)


def test_block_sides_match_the_per_sample_fields():
    # the block evaluators against the per-sample forms on Field objects
    rng = np.random.default_rng(32)
    for i in range(12):
        g, f, X = random_paravector(rng), sample(rng, i), random_event(rng)
        lam = random_orthogonal(rng)
        for (op, right), ref in zip(TRANSPORTS.values(), (
                lambda: (div4(f, X), div4(f.pullback(left_matrix(inverse(g))).left_mul(g),
                                          act_left(g, X))),
                lambda: (grad4(f, X), mul(reverse(g), grad4(f.pullback(left_matrix(inverse(g))),
                                                            act_left(g, X)))),
                lambda: (div4(f, X), mul(g, div4(f.pullback(right_matrix(inverse(g))),
                                                 act_right(X, g)))),
                lambda: (grad4(f, X), grad4(f.pullback(right_matrix(inverse(g))).left_mul(
                    reverse(g)), act_right(X, g))))):
            lhs, rhs = transport_sides(op, right, rows(g), block_of(f), rows(X))
            want_lhs, want_rhs = ref()
            assert rel_err(lhs[0], want_lhs.data) <= 1e-13
            assert rel_err(rhs[0], want_rhs.data) <= 1e-12
        if i % 2 == 0:  # the wave forms take dense fields
            for form in InvarianceForm:
                rlam = reverse(lam)
                moved = f.pullback((right_matrix if form <= 2 else left_matrix)(rlam))
                if form in (InvarianceForm.FORM2, InvarianceForm.FORM3):
                    moved = moved.left_mul(rlam if form == InvarianceForm.FORM2 else lam)
                lhs, _ = wave_invariance_sides(form, block_of(f), rows(lam), rows(X))
                assert rel_err(lhs[0], box4(moved, X).data) <= 1e-12


def test_block_numeric_step_names_the_first_rows_point():
    g, f, X = draws(33, 3)
    X = X.copy()
    X[0, 2] = 1e300  # 1e300 +- 1.0 rounds back: the first row's coordinate 2
    X[1, 0] = 1e300  # a later row's coordinate 0 must not be named first
    for op, right in TRANSPORTS.values():
        with pytest.raises(ValueError, match=r"does not move coordinate 2 from \(1e\+300"):
            transport_sides(op, right, g, f, X, Numeric(1.0))


def test_block_numeric_step_names_a_right_side_point_after_the_left_side():
    # each side is differenced on its own, the left side first: a step that
    # moves every point X names the unmoved coordinate of a later X'
    g, f, X = draws(36, 3)
    g, X = g.copy(), X.copy()
    g[1], X[1] = [-1e100j, 0, 0, 0], [0, 0, 0, 1e200j]  # X'[1] = g X = X g = [0; 1e300 e_z]
    for op, right in TRANSPORTS.values():
        with np.errstate(all="ignore"), pytest.raises(  # the left side overflows at X[1]
                ValueError, match=r"does not move coordinate 3 from \(1e\+300"):
            transport_sides(op, right, g, f, X, Numeric(1.0))


# -- the operators' own identities, on blocks -------------------------------------

def _operator_draws(seed, n):
    """n samples of the diffop block cases: a dense field, a scalar, the
    alternating field and the event, as Field objects and as blocks."""
    rng = np.random.default_rng(seed)
    dense, rho, f, X = zip(*((random_field(rng), random_scalar_field(rng), sample(rng, i),
                              random_event(rng)) for i in range(n)))
    return (dense, rho, f, X), (block_of(*dense), block_of(*rho)[2][..., 0], block_of(*f), rows(*X))


def _operator_sides(dense, rho, f, X):
    """Every diffop block evaluator once, as a flat list of arrays."""
    out = [side for pair in block_assembly_sides(f, X) for side in pair]
    out += block_factorization_sides(f, X)
    out += block_factorization_numeric_sides(f, X, 1e-4)
    out += block_additivity_sides(dense, f, X)
    out += block_leibniz_sides(rho, f, X)
    return out + list(block_numeric_partials(f, X[:, None], 1e-5))


def test_operator_blocks_match_the_per_sample_fields():
    # each side against its per-point form on Field objects: the same
    # identity, rounded differently (long-double jets, lowered rows)
    (dense, rho, fields, X), (dense_b, rho_b, f, xs) = _operator_draws(34, 12)
    div, grad = block_assembly_sides(f, xs)
    box, grad_div, div_grad = block_factorization_sides(f, xs)
    num_grad, num_box = block_factorization_numeric_sides(f, xs, 1e-4)
    add = block_additivity_sides(dense_b, f, xs)
    leib = block_leibniz_sides(rho_b, f, xs)
    num, exact, loc = block_numeric_partials(f, xs[:, None], 1e-5)
    for p, (g, x) in enumerate(zip(fields, X)):
        assert rel_err(div[0][p], div4(g, x).data) <= 1e-13
        assert rel_err(div[1][p], div4_field(g).at(x).data) <= 1e-13
        assert rel_err(grad[0][p], grad4(g, x).data) <= 1e-13
        assert rel_err(grad[1][p], grad4_field(g).at(x).data) <= 1e-13
        assert rel_err(box[p], box4(g, x).data) <= 1e-13
        assert rel_err(grad_div[p], grad4_field(div4_field(g)).at(x).data) <= 1e-13
        assert rel_err(div_grad[p], div4_field(grad4_field(g)).at(x).data) <= 1e-13
        assert rel_err(num_box[p], box4(g, x, Numeric(1e-4)).data) <= 1e-6
        assert rel_err(num_grad[p], num_box[p]) <= 1e-4
        for got, want in zip(add, additivity_sides(dense[p], g, x)):
            assert rel_err(got[p], want.data) <= 1e-13
        for got, want in zip(leib, leibniz_sides(rho[p], g, x)):
            assert rel_err(got[p], want.data) <= 1e-13
        assert rel_err(num[p, 0], bundle(g, x, Numeric(1e-5))) <= 1e-9
        assert rel_err(exact[p, 0], bundle(g, x, EXACT)) <= 1e-13
        assert loc[p] > 0


def test_numeric_partials_of_a_stack_name_its_first_unmoved_coordinate():
    # on an (n, k, 4) stack, the first coordinate that the step leaves in
    # place in (row, point, coordinate) order, as the per-point stencil meets them
    rng = np.random.default_rng(36)
    fields = [random_field(rng) for _ in range(3)]
    xs = np.array([[random_event(rng).data for _ in range(4)] for _ in fields])
    for stuck in [[(2, 0, 1), (1, 3, 0), (1, 2, 3)], [(0, 1, 2), (0, 1, 1)], [(2, 3, 3)]]:
        pts = xs.copy()
        for p, j, c in stuck:  # a step of 1.0 leaves 1e300 in place
            pts[p, j, c] = complex(1e300, 100 * p + 10 * j + c)
        with np.errstate(all="ignore"), pytest.raises(ValueError) as want:
            for g, row in zip(fields, pts):
                for x in row:
                    for c in range(4):
                        central_difference(g._value, x, c, 1.0)
        with pytest.raises(ValueError) as got:
            block_numeric_partials(block_of(*fields), pts, 1.0, 0.5)
        p, j, c = min(stuck)
        assert str(got.value) == str(want.value) == \
            f"step 1.0 does not move coordinate {c} from (1e+300+{100 * p + 10 * j + c}j)"


@pytest.mark.parametrize("size", [1, 7])
def test_each_row_of_an_operator_block_equals_a_block_of_one_bit_for_bit(size):
    _, (dense, rho, f, X) = _operator_draws(35, BLOCK)
    whole = _operator_sides(dense, rho, f, X)

    def part(a, lo, hi):  # rows lo..hi-1 of an array or of a block
        if isinstance(a, tuple):
            return tuple(None if b is None else b[lo:hi] for b in a)
        return a[lo:hi]

    for lo in (0, 5, BLOCK - size):
        hi = lo + size
        some = _operator_sides(*(part(a, lo, hi) for a in (dense, rho, f, X)))
        for got, want in zip(some, whole):
            assert got.tobytes() == want[lo:hi].tobytes(), (lo, hi)
