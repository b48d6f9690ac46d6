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

from paracalc.algebra import (
    inverse,
    inverse_rows,
    left_matrix,
    mul,
    right_matrix,
)
from paracalc.diffops import (
    block_partial,
    block_pullback,
    block_scalar_mul,
    box4,
    grad4,
)
from paracalc.electromag import (
    PhysConstants,
    block_em_from_potential,
    block_lorenz_potential,
    block_wave_sides,
)
from paracalc.kernels import _degree_exponents
from paracalc.kernels import jets, pv_mul_rows
from paracalc.transforms import (
    InvarianceForm,
    block_additivity_sides,
    block_assembly_sides,
    block_factorization_sides,
    block_leibniz_sides,
    form_point,
    observer_rotation_sides,
    right_factor_sides,
    transport_sides,
    wave_invariance_sides,
)

from util import (
    TRANSPORTS,
    additivity_sides,
    assert_exact,
    block_of,
    conjugate_rotate,
    div4_field,
    lattice_complex,
    lattice_event,
    lattice_field,
    lattice_paravector,
    leibniz_sides,
    rows,
    substitute,
    unimodular_paravector,
)

DRAWS = 200


def draws(seed):
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        yield rng


#: The block path takes the draws in blocks of these sizes, DRAWS in all.
BLOCK_SIZES = (1, 7, DRAWS - 8)


def blocks(seed, *draw):
    """DRAWS samples, each drawing one value per function in ``draw``, taken
    as blocks: per block, one list of values per function."""
    samples = [[d(rng) for d in draw] for rng in draws(seed)]
    start = 0
    for size in BLOCK_SIZES:
        yield [list(column) for column in zip(*samples[start:start + size])]
        start += size


def assert_sides(sides):
    lhs, rhs = sides
    assert_exact(getattr(lhs, "data", lhs), getattr(rhs, "data", rhs))


@pytest.mark.parametrize("op, right", TRANSPORTS.values(),
                         ids=[f"{name}_transport_sides" for name in TRANSPORTS])
def test_transports_are_exact(op, right):
    for g, f, X in blocks(1, unimodular_paravector, lattice_field, lattice_event):
        assert_sides(transport_sides(op, right, rows(*g), block_of(*f), rows(*X)))


def test_right_factor_is_exact():
    for f, g, X in blocks(2, lattice_field, lattice_paravector, lattice_event):
        for sides in right_factor_sides(block_of(*f), rows(*g), rows(*X)):
            assert_sides(sides)


@pytest.mark.parametrize("form", list(InvarianceForm))
def test_wave_forms_are_exact(form):
    for lam, f, X in blocks(3, unimodular_paravector, lattice_field, lattice_event):
        lam = rows(*lam)
        Xp = form_point(form, lam, rows(*X))
        assert_sides(wave_invariance_sides(form, block_of(*f), lam, Xp))


def test_observer_rotation_is_exact():
    for lam, f, X in blocks(4, unimodular_paravector, lattice_field, lattice_event):
        Xp = [conjugate_rotate(a, x) for a, x in zip(lam, X)]
        assert_sides(observer_rotation_sides(block_of(*f), rows(*lam), rows(*Xp)))


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
    for g1, g2, f, X in blocks(8, unimodular_paravector, unimodular_paravector, lattice_field,
                               lattice_event):
        g1, g2, f, X = rows(*g1), rows(*g2), block_of(*f), rows(*X)
        twice = block_pullback(block_pullback(f, left_matrix(inverse_rows(g1))),
                               left_matrix(inverse_rows(g2)))
        once = block_pullback(f, left_matrix(inverse_rows(pv_mul_rows(g2, g1))))
        assert_exact(jets(twice, X, 0)[0], jets(once, X, 0)[0])


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


@pytest.mark.parametrize("action", [left_matrix, right_matrix],
                         ids=["left_action", "right_action"])
def test_block_jets_match_the_substituted_polynomial(action):
    # the jets of pulled-back fields, a block at a time, against Field.partial
    # of the expanded polynomial: values, first and repeated second partials
    for g, f, X in blocks(11, unimodular_paravector, lattice_field, lattice_event):
        maps = action(inverse_rows(rows(*g)))
        value, d1, d2 = jets(block_pullback(block_of(*f), maps), rows(*X), 2)
        for p, (field, m, x) in enumerate(zip(f, maps, X)):
            expanded = substitute(field, m)
            assert_exact(value[p], expanded.at(x).data)
            for c in range(4):
                assert_exact(d1[p, :, c], expanded.partial(c).at(x).data)
                assert_exact(d2[p, :, c], expanded.partial(c).partial(c).at(x).data)


# -- the block constructions: lowered partials, products, Lorenz potentials -------

def lattice_scalar(rng):
    return lattice_field(rng, width=1)


def test_block_partial_and_product_are_exact():
    table = {tuple(e): t for t, e in enumerate(_degree_exponents(6).tolist())}
    for f, rho in blocks(12, lattice_field, lattice_scalar):
        b = block_of(*f)
        for c in range(4):
            assert_exact(block_partial(b, c)[2], block_of(*(g.partial(c) for g in f))[2])
        product = block_scalar_mul(block_of(*rho)[2][..., 0], b)[2]
        for p, (g, r) in enumerate(zip(f, rho)):
            want = np.zeros((len(table), 4), np.complex128)
            field = g.scalar_mul(r)
            for e, coeff in zip(field.exps.tolist(), field.coeffs):
                want[table[tuple(e)]] = coeff
            assert_exact(product[p], want)


def test_block_operator_identities_are_exact():
    for f, rho, g, X in blocks(13, lattice_field, lattice_scalar, lattice_field, lattice_event):
        f, X = block_of(*f), rows(*X)
        for pair in block_assembly_sides(f, X):
            assert_sides(pair)
        box, grad_div, div_grad = block_factorization_sides(f, X)
        assert_exact(grad_div, box)
        assert_exact(div_grad, box)
        assert_sides(block_leibniz_sides(block_of(*rho)[2][..., 0], f, X))
        assert_sides(block_additivity_sides(block_of(*g), f, X))


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_block_lorenz_potential_is_exact(c):
    # W scaled by 12, so that the antiderivative's divisions by 1, 2 and 3 are exact
    k = PhysConstants(c=c)
    for w, X in blocks(14, lambda rng: 12 * lattice_complex(rng, (35, 3)), lattice_event):
        pot, X = block_lorenz_potential(np.array(w), k), rows(*X)
        gauge = block_em_from_potential(pot, X, k)[:, 0]
        assert_exact(gauge, np.zeros_like(gauge))
        assert_sides(block_wave_sides(pot, X, k))
