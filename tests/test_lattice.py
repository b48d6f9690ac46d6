"""Rounding-free twins of the suites' polynomial identities.

Every field, event and transformation here lies on the Gaussian-integer
lattice (see ``util.lattice_field`` and ``util.unimodular_paravector``), so
both sides of each identity are computed without rounding and must be equal
bit for bit.  A nonzero difference polynomial of degree d vanishes at a
uniform point of S^4 with probability at most d/|S| (Schwartz-Zippel), which
for |S| = 121 and d <= 6 is at most 5% per draw; the draws are independent.
"""

import numpy as np
import pytest

from paracalc.algebra import conjugate_rotate, inverse, left_matrix, mul, right_matrix
from paracalc.diffops import additivity_sides, box4, div4_field, grad4, leibniz_sides
from paracalc.transforms import (
    InvarianceForm,
    form_point,
    observer_rotation_sides,
    right_factor_sides,
    transport_sides,
    wave_invariance_sides,
)

from util import (
    TRANSPORTS,
    assert_exact,
    lattice_event,
    lattice_field,
    lattice_paravector,
    substitute,
    unimodular_paravector,
)

DRAWS = 200


def draws(seed):
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        yield rng


def assert_sides(sides):
    lhs, rhs = sides
    assert_exact(lhs.data, rhs.data)


@pytest.mark.parametrize("op, right", TRANSPORTS.values(),
                         ids=[f"{name}_transport_sides" for name in TRANSPORTS])
def test_transports_are_exact(op, right):
    for rng in draws(1):
        g, f, X = unimodular_paravector(rng), lattice_field(rng), lattice_event(rng)
        assert_sides(transport_sides(op, right, g, f, X))


def test_right_factor_is_exact():
    for rng in draws(2):
        f, g, X = lattice_field(rng), lattice_paravector(rng), lattice_event(rng)
        for sides in right_factor_sides(f, g, X):
            assert_sides(sides)


@pytest.mark.parametrize("form", list(InvarianceForm))
def test_wave_forms_are_exact(form):
    for rng in draws(3):
        lam, f, X = unimodular_paravector(rng), lattice_field(rng), lattice_event(rng)
        assert_sides(wave_invariance_sides(form, f, lam, form_point(form, lam, X)))


def test_observer_rotation_is_exact():
    for rng in draws(4):
        lam, f, X = unimodular_paravector(rng), lattice_field(rng), lattice_event(rng)
        assert_sides(observer_rotation_sides(f, lam, conjugate_rotate(lam, X)))


def test_factorization_is_exact():
    for rng in draws(5):
        f, X = lattice_field(rng), lattice_event(rng)
        assert_exact(grad4(div4_field(f), X).data, box4(f, X).data)


def test_scalar_product_rule_is_exact():
    for rng in draws(6):
        rho, f, X = lattice_field(rng, width=1), lattice_field(rng), lattice_event(rng)
        assert_sides(leibniz_sides(rho, f, X))


def test_additivity_is_exact():
    for rng in draws(7):
        f, g, X = lattice_field(rng), lattice_field(rng), lattice_event(rng)
        assert_sides(additivity_sides(f, g, X))


def test_pullback_group_composition_is_exact():
    for rng in draws(8):
        g1, g2, f = unimodular_paravector(rng), unimodular_paravector(rng), lattice_field(rng)
        twice = f.pullback(left_matrix(inverse(g1))).pullback(left_matrix(inverse(g2)))
        once = f.pullback(left_matrix(inverse(mul(g2, g1))))
        X = lattice_event(rng)
        assert_exact(twice.at(X).data, once.at(X).data)


@pytest.mark.parametrize("action", [left_matrix, right_matrix],
                         ids=["left_action", "right_action"])
def test_pullback_partials_match_the_substituted_polynomial(action):
    # Field.partial differentiates a pulled-back field through its frame;
    # the oracle expands f(M X) into monomials of X and differentiates those
    for rng in draws(10):
        f, g, X = lattice_field(rng), unimodular_paravector(rng), lattice_event(rng)
        m = action(inverse(g))
        moved, expanded = f.pullback(m), substitute(f, m)
        assert_exact(moved.at(X).data, expanded.at(X).data)
        for c in range(4):
            assert_exact(moved.partial(c).at(X).data, expanded.partial(c).at(X).data)
            assert_exact(moved.partial(c).partial(c).at(X).data,
                         expanded.partial(c).partial(c).at(X).data)


def test_lattice_draws_stay_on_the_lattice():
    rng = np.random.default_rng(9)
    for _ in range(50):
        g = unimodular_paravector(rng)
        assert np.array_equal(mul(g, inverse(g)).data, [1, 0, 0, 0])
    with pytest.raises(AssertionError):
        assert_exact(np.array([2.0 ** 53]), np.array([2.0 ** 53]))
    with pytest.raises(AssertionError):
        assert_exact(np.array([0.5j]), np.array([0.5j]))
