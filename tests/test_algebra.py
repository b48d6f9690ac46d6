import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from paracalc.algebra import (
    BASIS,
    Event,
    IDENTITY,
    Paravector,
    SingularParavector,
    act_left,
    act_right,
    conjugate_rotate,
    det,
    det_rows,
    event_as_paravector,
    inverse,
    inverse_rows,
    mul,
    norm_sq,
    normalize_orthogonal,
    paravector_as_event,
    reverse,
    reverse_rows,
    scale,
)
from paracalc.fields import random_event, random_orthogonal, random_paravector

from util import max_abs, random_rows, rel_err

component = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
complexes = st.builds(complex, component, component)
paravectors = st.builds(
    lambda s, x, y, z: Paravector(s, (x, y, z)),
    complexes, complexes, complexes, complexes,
)


# -- product ------------------------------------------------------------------

def test_mul_identity_element():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g = random_paravector(rng)
        assert mul(IDENTITY, g) == g
        assert mul(g, IDENTITY) == g


def test_mul_hand_expansion():
    a = Paravector(1.0, (1.0, 0.0, 0.0))
    b = Paravector(1.0, (0.0, 1.0, 0.0))
    np.testing.assert_array_equal(mul(a, b).data, [1, 1, 1, 1j])
    np.testing.assert_array_equal(mul(b, a).data, [1, 1, 1, -1j])


def test_noncommutativity_witness():
    a = Paravector(1.0, (1.0, 0.0, 0.0))
    b = Paravector(1.0, (0.0, 1.0, 0.0))
    assert max_abs(mul(a, b).data - mul(b, a).data) >= 1.0


@settings(max_examples=60)
@given(paravectors, paravectors, paravectors)
def test_mul_associative(a, b, c):
    assert rel_err(mul(mul(a, b), c).data, mul(a, mul(b, c)).data) <= 1e-12


# -- reversion ----------------------------------------------------------------

def test_reverse_examples():
    assert reverse(Paravector(1.0)) == Paravector(1.0)
    p = Paravector(2.0 + 1j, (1.0, -2.0j, 3.0))
    assert reverse(p) == Paravector(2.0 + 1j, (-1.0, 2.0j, -3.0))
    assert reverse(reverse(p)) == p


def test_reverse_antiautomorphism_hand_pair():
    a = Paravector(1.0, (1.0, 0.0, 0.0))
    b = Paravector(1.0, (0.0, 1.0, 0.0))
    assert rel_err(reverse(mul(a, b)).data, mul(reverse(b), reverse(a)).data) == 0.0


@settings(max_examples=60)
@given(paravectors, paravectors)
def test_reverse_antiautomorphism(a, b):
    assert rel_err(reverse(mul(a, b)).data, mul(reverse(b), reverse(a)).data) <= 1e-12


# -- determinant --------------------------------------------------------------

def test_det_examples():
    assert det(IDENTITY) == 1.0
    assert det(Paravector(2.0, (1.0, 0.0, 0.0))) == 3.0


def test_det_is_scalar_part_of_a_times_reverse():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_paravector(rng)
        prod = mul(a, reverse(a))
        assert rel_err([det(a)], [prod.s]) <= 1e-13
        assert max_abs(prod.v) <= 1e-12 * max(1.0, norm_sq(a))


@settings(max_examples=60)
@given(paravectors, paravectors)
def test_det_multiplicative(a, b):
    assert rel_err([det(mul(a, b))], [det(a) * det(b)]) <= 1e-12


# -- inverse ------------------------------------------------------------------

def test_inverse_examples():
    assert inverse(IDENTITY) == IDENTITY
    inv = inverse(Paravector(2.0, (1.0, 0.0, 0.0)))
    np.testing.assert_allclose(inv.data, [2 / 3, -1 / 3, 0, 0], atol=1e-15)


def test_inverse_of_null_paravector_raises():
    with pytest.raises(SingularParavector):
        inverse(Paravector(1.0, (1.0, 0.0, 0.0)))


def test_inverse_identity_property():
    rng = np.random.default_rng(2)
    for _ in range(50):
        a = random_paravector(rng)  # rejection keeps |det| >= 0.1
        assert max_abs(mul(a, inverse(a)).data - IDENTITY.data) <= 1e-10
        assert max_abs(mul(inverse(a), a).data - IDENTITY.data) <= 1e-10


@settings(max_examples=60)
@given(paravectors)
def test_inverse_property(a):
    assume(abs(det(a)) >= 0.1)
    assert max_abs(mul(a, inverse(a)).data - IDENTITY.data) <= 1e-10


# -- scale / normalization ----------------------------------------------------

def test_scale_examples():
    a = Paravector(1.0, (0.0, 1.0, 0.0))
    assert scale(0.0, a) == Paravector(0.0)
    assert scale(2.0, a) == Paravector(2.0, (0.0, 2.0, 0.0))
    assert det(scale(1j, Paravector(2.0, (1.0, 0.0, 0.0)))) == -3.0


def test_normalize_orthogonal():
    assert normalize_orthogonal(IDENTITY) == IDENTITY
    n = normalize_orthogonal(Paravector(2.0, (1.0, 0.0, 0.0)))
    np.testing.assert_allclose(
        n.data, [2 / np.sqrt(3), 1 / np.sqrt(3), 0, 0], atol=1e-15
    )
    assert abs(det(n) - 1.0) <= 1e-12
    with pytest.raises(SingularParavector):
        normalize_orthogonal(Paravector(1.0, (1.0, 0.0, 0.0)))


def test_orthogonal_unit_property():
    rng = np.random.default_rng(3)
    for _ in range(30):
        lam = random_orthogonal(rng)
        assert max_abs(mul(lam, reverse(lam)).data - IDENTITY.data) <= 1e-10


# -- actions on events --------------------------------------------------------

def test_act_left_identity_and_pure_time():
    x = Event(0.5 + 0.1j, (1.0, -2.0, 0.25j))
    assert act_left(IDENTITY, x) == x
    g = Paravector(2.0 + 1.0j, (0.5j, 1.0, -2.0))
    assert act_left(g, Event(1.0)) == Event(2.0 + 1.0j, (0.5j, 1.0, -2.0))


def test_act_left_expansion_is_exact():
    got = act_left(Paravector(1.0, (0.0, 0.0, 1.0)), Event(0.0, (1.0, 1.0, 0.0)))
    np.testing.assert_array_equal(got.data, [0.0, 1.0 - 1.0j, 1.0 + 1.0j, 0.0])


def test_act_right_expansion_is_exact():
    got = act_right(Event(0.0, (1.0, 1.0, 0.0)), Paravector(1.0, (0.0, 0.0, 1.0)))
    np.testing.assert_array_equal(got.data, [0.0, 1.0 + 1.0j, 1.0 - 1.0j, 0.0])
    assert act_right(got, IDENTITY) == got


def test_left_right_agree_when_cross_term_vanishes():
    g = Paravector(1.5 - 0.5j, (1.0, 0.0, 0.0))
    x = Event(0.7 + 0.2j, (1.0, 0.0, 0.0))  # g.v parallel to x.r
    assert act_left(g, x) == act_right(x, g)


def test_actions_match_product_reinterpretation():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g, x = random_paravector(rng), random_event(rng)
        via_mul = paravector_as_event(mul(g, event_as_paravector(x)))
        assert act_left(g, x) == via_mul


def test_conjugate_rotate():
    x = Event(1.0, (1.0, 2.0, 3.0))
    assert conjugate_rotate(IDENTITY, x) == x
    lam = normalize_orthogonal(Paravector(2.0, (1.0, 0.0, 0.0)))
    rotated = conjugate_rotate(lam, x)
    # det of the event (read as a paravector) is preserved when det(lam) = 1
    assert rel_err(
        [det(event_as_paravector(rotated))], [det(event_as_paravector(x))]
    ) <= 1e-12


def test_conjugate_rotate_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(30):
        lam = random_orthogonal(rng)
        x = random_event(rng)
        back = conjugate_rotate(reverse(lam), conjugate_rotate(lam, x))
        assert max_abs(back.data - x.data) <= 1e-10


# -- type discipline ----------------------------------------------------------

def test_paravector_has_no_addition():
    a = Paravector(1.0)
    with pytest.raises(TypeError):
        a + a  # noqa: B018


def test_event_addition_and_shift():
    a = Event(1.0, (1.0, 0.0, 0.0))
    b = Event(0.5j, (0.0, 2.0, 0.0))
    assert a + b == Event(1.0 + 0.5j, (1.0, 2.0, 0.0))
    assert (a + b) - b == a
    assert a + Event(0.0, (1e-3, 0.0, 0.0)) == Event(1.0, (1.001, 0.0, 0.0))


def test_nonfinite_components_rejected():
    with pytest.raises(ValueError):
        Paravector(float("nan"))
    with pytest.raises(ValueError):
        Event(float("inf"))


def test_values_are_immutable():
    p = Paravector(1.0, (2.0, 3.0, 4.0))
    with pytest.raises(ValueError):
        p.data[0] = 5.0


def test_basis_products():
    # spatial units square to +1 under this product and anticommute up to 2i*cross
    for c in range(1, 4):
        assert mul(BASIS[c], BASIS[c]) == IDENTITY
    assert mul(BASIS[1], BASIS[2]).data[3] == 1j


# -- stacks: each row bit for bit as the per-value function ------------------

def test_stacked_det_reverse_inverse_match_per_value_bit_for_bit():
    rows = random_rows(np.random.default_rng(4), 2000)
    d, rev = det_rows(rows), reverse_rows(rows)
    invertible = []
    for i, row in enumerate(rows):
        p = Paravector.from_data(row)
        assert d[i].tobytes() == np.complex128(det(p)).tobytes(), i
        assert rev[i].tobytes() == reverse(p).data.tobytes(), i
        try:
            invertible.append((i, inverse(p).data))
        except SingularParavector:
            pass
    assert 2000 < len(invertible) < len(rows)  # every spread row, some exact rows
    keep = [i for i, _ in invertible]
    inv = inverse_rows(rows[keep])
    for k, (i, want) in enumerate(invertible):
        assert inv[k].tobytes() == want.tobytes(), i


def test_stacked_inverse_raises_on_any_singular_row():
    rows = random_rows(np.random.default_rng(5), 10)[:10]
    inverse_rows(rows)
    rows[7] = [1.0 + 0.5j, 1.0 + 0.5j, 0.0, 0.0]  # [s; s e_x] has det 0
    with pytest.raises(SingularParavector, match="row 7"):
        inverse_rows(rows)
