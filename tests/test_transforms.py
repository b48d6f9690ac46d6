import numpy as np
import pytest

from paracalc.algebra import (
    IDENTITY,
    Paravector,
    SingularParavector,
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
    scale,
)
from paracalc.diffops import Numeric, box4, div4
from paracalc.fields import (
    random_event,
    random_field,
    random_orthogonal,
    random_paravector,
    random_plane_wave,
)
from paracalc.transforms import (
    InvarianceForm,
    NotOrthogonal,
    form_point,
    observer_rotation_sides,
    require_orthogonal,
    right_factor_sides,
    transformed_field_values,
    transformed_wave_field,
    transport_sides,
    wave_invariance_sides,
)

from util import TRANSPORTS, gap, max_abs, rel_err


def sample(rng, i):
    return random_field(rng) if i % 2 == 0 else random_plane_wave(rng)


def test_identity_transformation_gives_exact_zero():
    rng = np.random.default_rng(0)
    f, X = random_field(rng), random_event(rng)
    for op, right in TRANSPORTS.values():
        assert max_abs(gap(transport_sides(op, right, IDENTITY, f, X))) == 0.0


def test_transport_identities_exact():
    rng = np.random.default_rng(1)
    for i in range(20):
        g, f, X = random_paravector(rng), sample(rng, i), random_event(rng)
        for op, right in TRANSPORTS.values():
            assert max_abs(gap(transport_sides(op, right, g, f, X))) <= 1e-10


def test_transport_identities_numeric():
    rng = np.random.default_rng(2)
    for i in range(10):
        g, f, X = random_paravector(rng), sample(rng, i), random_event(rng)
        for op, right in TRANSPORTS.values():
            assert max_abs(gap(transport_sides(op, right, g, f, X, Numeric(1e-5)))) <= 1e-5


def test_negated_transformation_keeps_residual_zero():
    # both the inverse and the reversion flip sign, so nothing changes
    rng = np.random.default_rng(3)
    g = random_paravector(rng)
    f, X = random_field(rng), random_event(rng)
    for op, right in TRANSPORTS.values():
        assert max_abs(gap(transport_sides(op, right, scale(-1.0, g), f, X))) <= 1e-10


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
            transport_sides(op, right, g, random_field(0), random_event(0))


@pytest.mark.parametrize("op", [box4, lambda f, X, mode: div4(f, X, mode)],
                         ids=["box4", "div4-wrapper"])
def test_transport_sides_refuses_other_operators(op):
    with pytest.raises(ValueError, match="takes div4 or grad4"):
        transport_sides(op, False, IDENTITY, random_field(0), random_event(0))


# -- constant right factor ------------------------------------------------------

def test_right_factor_identity():
    f, X = random_field(5), random_event(5)
    d, g = right_factor_sides(f, IDENTITY, X)
    assert max_abs(gap(d)) == 0.0 and max_abs(gap(g)) == 0.0


def test_right_factor_holds_for_singular_factor():
    f, X = random_field(6), random_event(6)
    singular = Paravector(1.0, (1.0, 0.0, 0.0))
    assert abs(det(singular)) == 0.0
    d, g = right_factor_sides(f, singular, X)
    assert max_abs(gap(d)) <= 1e-10 and max_abs(gap(g)) <= 1e-10


def test_right_factor_random_and_plane_wave():
    rng = np.random.default_rng(7)
    for i in range(20):
        f = sample(rng, i)
        d, g = right_factor_sides(f, random_paravector(rng), random_event(rng))
        assert max_abs(gap(d)) <= 1e-10 and max_abs(gap(g)) <= 1e-10


# -- observer rotation ------------------------------------------------------------

def test_rotation_identity_lambda():
    f, X = random_field(8), random_event(8)
    lhs, rhs = observer_rotation_sides(f, IDENTITY, X)
    assert max_abs(lhs.data - rhs.data) == 0.0


def test_rotation_residual_random():
    rng = np.random.default_rng(9)
    for i in range(20):
        lam = random_orthogonal(rng)
        f = sample(rng, i)
        Xp = conjugate_rotate(lam, random_event(rng))
        lhs, rhs = observer_rotation_sides(f, lam, Xp)
        assert max_abs(lhs.data - rhs.data) <= 1e-10


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
    lhs, rhs = observer_rotation_sides(f, lam, Xp)
    np.testing.assert_allclose(
        lhs.data - rhs.data, div4(moved, Xp).data - expected_rhs.data, atol=1e-14
    )


def test_require_orthogonal():
    require_orthogonal(IDENTITY, 1e-12)
    require_orthogonal(normalize_orthogonal(Paravector(2.0, (1.0, 0.0, 0.0))), 1e-12)
    with pytest.raises(NotOrthogonal):
        require_orthogonal(Paravector(2.0, (1.0, 0.0, 0.0)), 1e-12)


def test_rotation_requires_orthogonality():
    with pytest.raises(NotOrthogonal):
        observer_rotation_sides(
            random_field(11), Paravector(2.0, (1.0, 0.0, 0.0)), random_event(11)
        )


# -- wave invariance ---------------------------------------------------------------

def test_wave_forms_identity_lambda():
    f, X = random_field(12), random_event(12)
    for form in InvarianceForm:
        assert max_abs(gap(wave_invariance_sides(form, f, IDENTITY, X))) == 0.0


def test_wave_forms_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        lam = random_orthogonal(rng)
        f = random_field(rng)
        X = random_event(rng)
        for form in InvarianceForm:
            Xp = form_point(form, lam, X)
            assert max_abs(gap(wave_invariance_sides(form, f, lam, Xp))) <= 1e-9


def test_wave_forms_require_orthogonality():
    with pytest.raises(NotOrthogonal):
        wave_invariance_sides(
            InvarianceForm.FORM1,
            random_field(14),
            Paravector(2.0, (1.0, 0.0, 0.0)),
            random_event(14),
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
            moved = transformed_wave_field(form, f, lam)
            assert rel_err(moved.at(Xp).data, law.data) <= 1e-12


def test_covariant_and_contravariant_values_differ():
    rng = np.random.default_rng(16)
    lam = random_orthogonal(rng)
    assert max_abs(lam.v) > 0.1  # non-scalar
    f = random_field(rng)
    Xp = random_event(rng)
    vals = transformed_field_values(f, lam, Xp)
    both_zero = []
    for form in (InvarianceForm.FORM2, InvarianceForm.FORM3):
        X = form_point(form, reverse(lam), Xp)
        # re-derive the primed point so the residual is evaluated consistently
        Xp_form = form_point(form, lam, X)
        both_zero.append(
            max_abs(gap(wave_invariance_sides(form, f, lam, Xp_form)))
        )
    assert max(both_zero) <= 1e-9
    assert max_abs(vals.covariant.data - vals.contravariant.data) >= 1e-3


def test_transformed_values_identity_lambda():
    f, Xp = random_field(17), random_event(17)
    vals = transformed_field_values(f, IDENTITY, Xp)
    assert vals.invariant == vals.covariant == vals.contravariant


def test_covariant_value_preserves_det():
    rng = np.random.default_rng(18)
    lam = random_orthogonal(rng)
    f, Xp = random_field(rng), random_event(rng)
    vals = transformed_field_values(f, lam, Xp)
    assert rel_err([det(vals.covariant)], [det(vals.invariant)]) <= 1e-12


def test_transformed_values_require_orthogonality():
    with pytest.raises(NotOrthogonal):
        transformed_field_values(
            random_field(19), Paravector(2.0, (1.0, 0.0, 0.0)), random_event(19)
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
