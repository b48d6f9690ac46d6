"""The ``algebra`` suite: the paravector product's laws (associativity,
reversion, the determinant, the inverse, orthogonal units), the actions on
events against Baylis's 2x2 matrices and their hand-worked expansions, and
the noncommutativity floor.  It draws paravectors and events only; no field is
built.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .algebra import (
    Event,
    IDENTITY,
    Paravector,
    act_left,
    act_right,
    det_rows,
    inverse_rows,
    mul,
    normalize_rows,
    reverse_rows,
)
from .harness import Case, _blocked, _floor, _once, _times
from .kernels import cmul, pv_mul_rows
from .tape import EVENT, PARAVECTOR

NONCOMMUTATIVITY_FLOOR = 1.0


def pauli_product(a, b):
    """The product of each row pair of two (n, 4) stacks as Baylis takes it:
    [s; v] is the 2x2 complex matrix s I + v.sigma, the matrices multiply,
    and s and v_k are the halved traces of the product and of sigma_k times
    it.  A formula the actions do not share; its products round as cmul's."""
    def matrix(p):  # [[s + z, x - iy], [x + iy, s - z]]
        s, x, iy, z = p[:, 0], p[:, 1], cmul(1j, p[:, 2]), p[:, 3]
        return np.stack([s + z, x - iy, x + iy, s - z], axis=1).reshape(-1, 2, 2)

    ma, mb = matrix(a), matrix(b)
    m = cmul(ma[:, :, :1], mb[:, :1]) + cmul(ma[:, :, 1:], mb[:, 1:])
    m00, m01, m10, m11 = m.reshape(-1, 4).T
    twice = np.stack([m00 + m11, m01 + m10, cmul(1j, m01 - m10), m00 - m11], axis=1)
    return (0.5 * twice.view(np.float64)).view(np.complex128)  # halved exactly


def cases() -> List[Case]:
    def associativity(a, b, c, cfg):
        return [(pv_mul_rows(pv_mul_rows(a, b), c), pv_mul_rows(a, pv_mul_rows(b, c)))]

    def reversion(a, b, cfg):
        return [(reverse_rows(pv_mul_rows(a, b)), pv_mul_rows(reverse_rows(b), reverse_rows(a)))]

    def det_mult(a, b, cfg):
        # det(a) * det(b) is a product of Python complexes
        return [(det_rows(pv_mul_rows(a, b))[:, None], cmul(det_rows(a), det_rows(b))[:, None])]

    def inverse_identity(a, cfg):
        inv = inverse_rows(a)
        return [(pv_mul_rows(a, inv), IDENTITY.data), (pv_mul_rows(inv, a), IDENTITY.data)]

    def orthogonal_unit(g, cfg):
        lam = normalize_rows(g)  # as random_orthogonal draws
        return [(pv_mul_rows(lam, reverse_rows(lam)), IDENTITY.data)]

    def action_consistency(g, x, cfg):
        return [(act_left(g, x), pauli_product(g, x)), (act_right(x, g), pauli_product(x, g))]

    def left_action_expansion(cfg):
        got = act_left(Paravector(1.0, (0.0, 0.0, 1.0)), Event(0.0, (1.0, 1.0, 0.0)))
        pure_time = act_left(Paravector(2.0 + 1.0j, (0.5j, 1.0, -2.0)), Event(1.0))
        return [(got.data, [0.0, 1.0 - 1.0j, 1.0 + 1.0j, 0.0]),
                (pure_time.data, [2.0 + 1.0j, 0.5j, 1.0, -2.0])]

    def right_action_expansion(cfg):
        got = act_right(Event(0.0, (1.0, 1.0, 0.0)), Paravector(1.0, (0.0, 0.0, 1.0)))
        return [(got.data, [0.0, 1.0 + 1.0j, 1.0 - 1.0j, 0.0])]

    def noncommutativity(rng):
        a = Paravector(1.0, (1.0, 0.0, 0.0))
        b = Paravector(1.0, (0.0, 1.0, 0.0))
        return mul(a, b).data - mul(b, a).data

    def rotation_round_trip(g, x, cfg):  # as random_orthogonal, random_event
        lam = normalize_rows(g)
        rlam = reverse_rows(lam)
        xp = pv_mul_rows(pv_mul_rows(lam, x), rlam)  # L X L~, then back: L~ X' L
        return [(pv_mul_rows(pv_mul_rows(rlam, xp), lam), x)]

    pv, gx = (PARAVECTOR,), (PARAVECTOR, EVENT)
    return [
        Case("associativity", "exact", 1e-12, _blocked(_times(20), pv * 3, associativity)),
        Case("reversion-antiautomorphism", "exact", 1e-12,
             _blocked(_times(20), pv * 2, reversion)),
        Case("det-multiplicativity", "exact", 1e-12, _blocked(_times(20), pv * 2, det_mult)),
        Case("inverse-identity", "exact", 1e-10,
             _blocked(_times(20), pv, inverse_identity, compare=np.subtract)),
        Case("orthogonal-unit", "exact", 1e-10,
             _blocked(_times(1), pv, orthogonal_unit, compare=np.subtract)),
        Case("action-matches-product", "exact", 1e-12,
             _blocked(_times(1), gx, action_consistency)),
        Case("left-action-expansion", "fixed", 0.0,
             _blocked(_once, (), left_action_expansion, compare=np.subtract)),
        Case("right-action-expansion", "fixed", 0.0,
             _blocked(_once, (), right_action_expansion, compare=np.subtract)),
        Case("noncommutativity-floor-deficit", "fixed", 0.0,
             _floor(noncommutativity, NONCOMMUTATIVITY_FLOOR)),
        Case("rotation-round-trip", "exact", 1e-10,
             _blocked(_times(1), gx, rotation_round_trip, compare=np.subtract)),
    ]
