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
    mul,
    normalize_orthogonal,
    reverse,
    scale,
)
from paracalc.diffops import Numeric, div4
from paracalc.fields import (
    LeftMulField,
    LinearMap,
    PullbackField,
    random_event,
    random_field,
    random_orthogonal,
    random_paravector,
    random_plane_wave,
)
from paracalc.transforms import (
    InvarianceForm,
    NotOrthogonal,
    TransformCase,
    div_left_transport_residual,
    div_right_transport_residual,
    grad_left_transport_residual,
    grad_right_transport_residual,
    observer_rotation_residual,
    require_orthogonal,
    right_factor_residuals,
    transformed_field_values,
    transformed_wave_field,
    wave_invariance_residual,
)

from util import max_abs, rel_err

ALL_TRANSPORTS = (
    div_left_transport_residual,
    grad_left_transport_residual,
    div_right_transport_residual,
    grad_right_transport_residual,
)


def sample(rng, i):
    return random_field(rng) if i % 2 == 0 else random_plane_wave(rng)


def test_identity_transformation_gives_exact_zero():
    rng = np.random.default_rng(0)
    f, X = random_field(rng), random_event(rng)
    case = TransformCase(IDENTITY, f, X)
    for res in ALL_TRANSPORTS:
        assert max_abs(res(case).data) == 0.0


def test_transport_identities_exact():
    rng = np.random.default_rng(1)
    for i in range(20):
        case = TransformCase(random_paravector(rng), sample(rng, i), random_event(rng))
        for res in ALL_TRANSPORTS:
            assert max_abs(res(case).data) <= 1e-10


def test_transport_identities_numeric():
    rng = np.random.default_rng(2)
    for i in range(10):
        case = TransformCase(
            random_paravector(rng), sample(rng, i), random_event(rng), Numeric(1e-5)
        )
        for res in ALL_TRANSPORTS:
            assert max_abs(res(case).data) <= 1e-5


def test_negated_transformation_keeps_residual_zero():
    # both the inverse and the reversion flip sign, so nothing changes
    rng = np.random.default_rng(3)
    g = random_paravector(rng)
    case = TransformCase(scale(-1.0, g), random_field(rng), random_event(rng))
    assert max_abs(grad_left_transport_residual(case).data) <= 1e-10


def test_scalar_transformation_left_right_paths_agree():
    rng = np.random.default_rng(4)
    g = Paravector(1.3 - 0.4j)
    f, X = random_field(rng), random_event(rng)
    # a scalar commutes, so the left and right maps send X to the same point
    assert act_left(g, X) == act_right(X, g)
    moved_left = LeftMulField(g, PullbackField(LinearMap.left_action(inverse(g)), f))
    moved_right = LeftMulField(g, PullbackField(LinearMap.right_action(inverse(g)), f))
    Xp = act_left(g, X)
    assert rel_err(
        div4(moved_left, Xp).data, div4(moved_right, Xp).data
    ) <= 1e-12


def test_transform_case_rejects_near_singular():
    with pytest.raises(SingularParavector):
        TransformCase(Paravector(1.0, (1.0, 0.0, 0.0)), random_field(0), random_event(0))


# -- constant right factor ------------------------------------------------------

def test_right_factor_identity():
    f, X = random_field(5), random_event(5)
    d, g = right_factor_residuals(f, IDENTITY, X)
    assert max_abs(d.data) == 0.0 and max_abs(g.data) == 0.0


def test_right_factor_holds_for_singular_factor():
    f, X = random_field(6), random_event(6)
    singular = Paravector(1.0, (1.0, 0.0, 0.0))
    assert abs(det(singular)) == 0.0
    d, g = right_factor_residuals(f, singular, X)
    assert max_abs(d.data) <= 1e-10 and max_abs(g.data) <= 1e-10


def test_right_factor_random_and_plane_wave():
    rng = np.random.default_rng(7)
    for i in range(20):
        f = sample(rng, i)
        d, g = right_factor_residuals(f, random_paravector(rng), random_event(rng))
        assert max_abs(d.data) <= 1e-10 and max_abs(g.data) <= 1e-10


# -- observer rotation ------------------------------------------------------------

def test_rotation_identity_lambda():
    f, X = random_field(8), random_event(8)
    assert max_abs(observer_rotation_residual(f, IDENTITY, X).data) == 0.0


def test_rotation_residual_random():
    rng = np.random.default_rng(9)
    for i in range(20):
        lam = random_orthogonal(rng)
        f = sample(rng, i)
        Xp = conjugate_rotate(lam, random_event(rng))
        assert max_abs(observer_rotation_residual(f, lam, Xp).data) <= 1e-10


def test_rotation_transformed_value_definition():
    # residual == div4 of the moved field minus L B(L~ X' L) L~, by construction
    rng = np.random.default_rng(10)
    lam = random_orthogonal(rng)
    f = random_field(rng)
    Xp = conjugate_rotate(lam, random_event(rng))
    rlam = reverse(lam)
    b = div4(f, conjugate_rotate(rlam, Xp))
    expected_rhs = mul(mul(lam, b), rlam)
    from paracalc.fields import RightMulField

    moved = RightMulField(
        LeftMulField(lam, PullbackField(LinearMap.conjugation(rlam), f)), rlam
    )
    res = observer_rotation_residual(f, lam, Xp)
    np.testing.assert_allclose(
        res.data, div4(moved, Xp).data - expected_rhs.data, atol=1e-14
    )


def test_require_orthogonal():
    require_orthogonal(IDENTITY, 1e-12)
    require_orthogonal(normalize_orthogonal(Paravector(2.0, (1.0, 0.0, 0.0))), 1e-12)
    with pytest.raises(NotOrthogonal):
        require_orthogonal(Paravector(2.0, (1.0, 0.0, 0.0)), 1e-12)


def test_rotation_requires_orthogonality():
    with pytest.raises(NotOrthogonal):
        observer_rotation_residual(
            random_field(11), Paravector(2.0, (1.0, 0.0, 0.0)), random_event(11)
        )


# -- wave invariance ---------------------------------------------------------------

def test_wave_forms_identity_lambda():
    f, X = random_field(12), random_event(12)
    for form in InvarianceForm:
        assert max_abs(wave_invariance_residual(form, f, IDENTITY, X).data) == 0.0


def test_wave_forms_random():
    rng = np.random.default_rng(13)
    for _ in range(10):
        lam = random_orthogonal(rng)
        f = random_field(rng)
        X = random_event(rng)
        for form in InvarianceForm:
            Xp = (
                act_right(X, lam)
                if form in (InvarianceForm.FORM1, InvarianceForm.FORM2)
                else act_left(lam, X)
            )
            assert max_abs(wave_invariance_residual(form, f, lam, Xp).data) <= 1e-9


def test_wave_forms_require_orthogonality():
    with pytest.raises(NotOrthogonal):
        wave_invariance_residual(
            InvarianceForm.FORM1,
            random_field(14),
            Paravector(2.0, (1.0, 0.0, 0.0)),
            random_event(14),
        )


def test_form_structure_matches_value_laws():
    lam = random_orthogonal(15)
    f = random_field(15)
    for form in (InvarianceForm.FORM1, InvarianceForm.FORM4):
        moved = transformed_wave_field(form, f, lam)
        assert isinstance(moved, PullbackField)
        assert moved.inner is f  # the untouched-value forms reuse the object
    m2 = transformed_wave_field(InvarianceForm.FORM2, f, lam)
    m3 = transformed_wave_field(InvarianceForm.FORM3, f, lam)
    assert isinstance(m2, LeftMulField) and m2.factor == reverse(lam)
    assert isinstance(m3, LeftMulField) and m3.factor == lam
    assert m2.inner.inner is f and m3.inner.inner is f


def test_covariant_and_contravariant_values_differ():
    rng = np.random.default_rng(16)
    lam = random_orthogonal(rng)
    assert max_abs(lam.v) > 0.1  # non-scalar
    f = random_field(rng)
    Xp = random_event(rng)
    vals = transformed_field_values(f, lam, Xp)
    both_zero = []
    for form in (InvarianceForm.FORM2, InvarianceForm.FORM3):
        X = (
            act_right(Xp, reverse(lam))
            if form is InvarianceForm.FORM2
            else act_left(reverse(lam), Xp)
        )
        # re-derive the primed point so the residual is evaluated consistently
        Xp_form = (
            act_right(X, lam) if form is InvarianceForm.FORM2 else act_left(lam, X)
        )
        both_zero.append(
            max_abs(wave_invariance_residual(form, f, lam, Xp_form).data)
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
        inner = PullbackField(LinearMap.left_action(inverse(g1)), f)
        twice = PullbackField(LinearMap.left_action(inverse(g2)), inner)
        once = PullbackField(LinearMap.left_action(inverse(mul(g2, g1))), f)
        for _ in range(10):
            x = random_event(rng)
            assert rel_err(twice.at(x).data, once.at(x).data) <= 1e-10
