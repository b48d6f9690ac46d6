"""The ``transforms`` suite: the transport of ``div4`` and ``grad4`` under left
and right maps, the constant right factor (a singular one included), the
observer rotation and the composition of pullbacks, in exact mode and, on
the exact cases' own substreams, in numeric mode.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .algebra import normalize_rows, reverse_rows
from .diffops import EXACT, Numeric, div4, grad4
from .harness import Case, _blocked, _fifth, _rel, _times
from .kernels import pv_mul_rows
from .tape import EVENT, FIELD, PARAVECTOR, draw
from .transforms import (
    observer_rotation_sides,
    pullback_composition_sides,
    right_factor_sides,
    transport_sides,
)


#: [s; s*u] with u.u = 1 has det = 0 exactly.
_SINGULAR = np.array([1.0 + 0.5j, 1.0 + 0.5j, 0.0, 0.0])


def _transport_case(op, right: bool, mode_of):
    def block(tape, start, n, cfg):
        g, f, x = draw(tape, start, n, PARAVECTOR, FIELD, EVENT)
        return _rel(*transport_sides(op, right, g, f, x, mode_of(cfg)))

    return _blocked(_times(1), block)


def _right_factor_case(mode_of, singular: bool):
    def block(tape, start, n, cfg):
        if singular:
            g, (f, x) = np.tile(_SINGULAR, (n, 1)), draw(tape, start, n, FIELD, EVENT)
        else:
            g, f, x = draw(tape, start, n, PARAVECTOR, FIELD, EVENT)
        sides = right_factor_sides(f, g, x, mode_of(cfg))
        return np.stack([_rel(*pair) for pair in sides], axis=1).reshape(-1, 4)

    return _blocked(_fifth if singular else _times(1), block)


def cases() -> List[Case]:
    exact = lambda cfg: EXACT
    numeric = lambda cfg: Numeric(cfg.h)

    def rotation(tape, start, n, cfg):
        g, f, x = draw(tape, start, n, PARAVECTOR, FIELD, EVENT)
        lam = normalize_rows(g)  # as random_orthogonal draws
        xp = pv_mul_rows(pv_mul_rows(lam, x), reverse_rows(lam))  # L X L~
        return _rel(*observer_rotation_sides(f, lam, xp))

    def group_composition(tape, start, n, cfg):
        return _rel(*pullback_composition_sides(*draw(tape, start, n, PARAVECTOR, PARAVECTOR,
                                                           FIELD, EVENT)))

    return [
        Case("div-left-transport-exact", "exact", 1e-10,
             _transport_case(div4, False, exact)),
        Case("grad-left-transport-exact", "exact", 1e-10,
             _transport_case(grad4, False, exact)),
        Case("div-right-transport-exact", "exact", 1e-10,
             _transport_case(div4, True, exact)),
        Case("grad-right-transport-exact", "exact", 1e-10,
             _transport_case(grad4, True, exact)),
        Case("right-factor-exact", "exact", 1e-10, _right_factor_case(exact, False)),
        Case("right-factor-singular-exact", "exact", 1e-10,
             _right_factor_case(exact, True)),
        Case("observer-rotation-exact", "exact", 1e-10, _blocked(_times(1), rotation)),
        Case("pullback-group-composition", "exact", 1e-10,
             _blocked(_times(1), group_composition)),
        Case("div-left-transport-numeric", "numeric", 1e-5,
             _transport_case(div4, False, numeric), substream=0),
        Case("grad-left-transport-numeric", "numeric", 1e-5,
             _transport_case(grad4, False, numeric), substream=1),
        Case("div-right-transport-numeric", "numeric", 1e-5,
             _transport_case(div4, True, numeric), substream=2),
        Case("grad-right-transport-numeric", "numeric", 1e-5,
             _transport_case(grad4, True, numeric), substream=3),
        Case("right-factor-numeric", "numeric", 1e-5,
             _right_factor_case(numeric, False), substream=4),
    ]
