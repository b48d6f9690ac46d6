"""The ``algebra`` suite: the paravector product's laws (associativity,
reversion, the determinant, the inverse, orthogonal units), the actions on
events against the product and their hand-worked expansions, and the
noncommutativity floor.  It draws paravectors and events only; no field is
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
from .harness import Case, _blocked, _floor, _once, _rel, _times
from .kernels import cmul, pv_mul, pv_mul_rows
from .tape import EVENT, PARAVECTOR, draw

NONCOMMUTATIVITY_FLOOR = 1.0


def cases() -> List[Case]:
    def associativity(tape, start, n, cfg):
        a, b, c = draw(tape, start, n, PARAVECTOR, PARAVECTOR, PARAVECTOR)
        return _rel(pv_mul_rows(pv_mul_rows(a, b), c), pv_mul_rows(a, pv_mul_rows(b, c)))

    def reversion(tape, start, n, cfg):
        a, b = draw(tape, start, n, PARAVECTOR, PARAVECTOR)
        return _rel(reverse_rows(pv_mul_rows(a, b)),
                    pv_mul_rows(reverse_rows(b), reverse_rows(a)))

    def det_mult(tape, start, n, cfg):
        a, b = draw(tape, start, n, PARAVECTOR, PARAVECTOR)
        # det(a) * det(b) is a product of Python complexes
        return _rel(det_rows(pv_mul_rows(a, b))[:, None],
                    cmul(det_rows(a), det_rows(b))[:, None])

    def inverse_identity(tape, start, n, cfg):
        (a,) = draw(tape, start, n, PARAVECTOR)
        inv = inverse_rows(a)
        both = np.stack([pv_mul_rows(a, inv), pv_mul_rows(inv, a)], axis=1)
        return both.reshape(-1, 4) - IDENTITY.data  # a a^-1, then a^-1 a, per sample

    def orthogonal_unit(tape, start, n, cfg):
        lam = normalize_rows(draw(tape, start, n, PARAVECTOR)[0])  # as random_orthogonal draws
        return pv_mul_rows(lam, reverse_rows(lam)) - IDENTITY.data

    def action_consistency(tape, start, n, cfg):
        g, x = draw(tape, start, n, PARAVECTOR, EVENT)
        # the actions on stacks against the product as mul takes it, sample by sample
        gx, xg = (np.array([pv_mul(*ab) for ab in pairs]) for pairs in (zip(g, x), zip(x, g)))
        both = np.stack([act_left(g, x) - gx, act_right(x, g) - xg], axis=1)
        return both.reshape(-1, 4)  # g X, then X g, per sample

    def left_action_expansion(tape, start, n, cfg):
        got = act_left(Paravector(1.0, (0.0, 0.0, 1.0)), Event(0.0, (1.0, 1.0, 0.0)))
        pure_time = act_left(Paravector(2.0 + 1.0j, (0.5j, 1.0, -2.0)), Event(1.0))
        return np.array([got.data - np.array([0.0, 1.0 - 1.0j, 1.0 + 1.0j, 0.0]),
                         pure_time.data - np.array([2.0 + 1.0j, 0.5j, 1.0, -2.0])])

    def right_action_expansion(tape, start, n, cfg):
        got = act_right(Event(0.0, (1.0, 1.0, 0.0)), Paravector(1.0, (0.0, 0.0, 1.0)))
        return got.data - np.array([0.0, 1.0 + 1.0j, 1.0 - 1.0j, 0.0])

    def noncommutativity(rng):
        a = Paravector(1.0, (1.0, 0.0, 0.0))
        b = Paravector(1.0, (0.0, 1.0, 0.0))
        return mul(a, b).data - mul(b, a).data

    def rotation_round_trip(tape, start, n, cfg):
        g, x = draw(tape, start, n, PARAVECTOR, EVENT)  # as random_orthogonal, random_event
        lam = normalize_rows(g)
        rlam = reverse_rows(lam)
        xp = pv_mul_rows(pv_mul_rows(lam, x), rlam)  # L X L~, then back: L~ X' L
        return pv_mul_rows(pv_mul_rows(rlam, xp), lam) - x

    return [
        Case("associativity", "exact", 1e-12, _blocked(_times(20), associativity)),
        Case("reversion-antiautomorphism", "exact", 1e-12, _blocked(_times(20), reversion)),
        Case("det-multiplicativity", "exact", 1e-12, _blocked(_times(20), det_mult)),
        Case("inverse-identity", "exact", 1e-10, _blocked(_times(20), inverse_identity)),
        Case("orthogonal-unit", "exact", 1e-10, _blocked(_times(1), orthogonal_unit)),
        Case("action-matches-product", "fixed", 0.0,
             _blocked(_times(1), action_consistency)),
        Case("left-action-expansion", "fixed", 0.0, _blocked(_once, left_action_expansion)),
        Case("right-action-expansion", "fixed", 0.0, _blocked(_once, right_action_expansion)),
        Case("noncommutativity-floor-deficit", "fixed", 0.0,
             _floor(noncommutativity, NONCOMMUTATIVITY_FLOOR)),
        Case("rotation-round-trip", "exact", 1e-10, _blocked(_times(1), rotation_round_trip)),
    ]
