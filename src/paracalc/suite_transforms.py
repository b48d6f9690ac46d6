"""The ``transforms`` suite: the transport of ``div4`` and ``grad4`` under left
and right maps, the constant right factor (a singular one included), the
observer rotation and the composition of pullbacks, in exact mode and, on
the exact cases' own substreams, in numeric mode.
"""

from __future__ import annotations

from functools import partial
from typing import List

import numpy as np

from .algebra import normalize_rows, reverse_rows
from .diffops import EXACT, Numeric, div4, grad4
from .harness import Case, _blocked, _fifth, _times
from .kernels import pv_mul_rows
from .tape import EVENT, FIELD, PARAVECTOR
from .transforms import (
    observer_rotation_sides,
    pullback_composition_sides,
    right_factor_sides,
    transport_sides,
)


#: [s; s*u] with u.u = 1 has det = 0 exactly.
_SINGULAR = np.array([1.0 + 0.5j, 1.0 + 0.5j, 0.0, 0.0])


def cases() -> List[Case]:
    exact = lambda cfg: EXACT
    numeric = lambda cfg: Numeric(cfg.h)

    def transport(op, right, mode_of, g, f, x, cfg):
        return [transport_sides(op, right, g, f, x, mode_of(cfg))]

    def right_factor(mode_of, g, f, x, cfg):
        return right_factor_sides(f, g, x, mode_of(cfg))

    def singular_right_factor(f, x, cfg):
        return right_factor(exact, np.tile(_SINGULAR, (len(x), 1)), f, x, cfg)

    def rotation(g, f, x, cfg):
        lam = normalize_rows(g)  # as random_orthogonal draws
        xp = pv_mul_rows(pv_mul_rows(lam, x), reverse_rows(lam))  # L X L~
        return [observer_rotation_sides(f, lam, xp)]

    def group_composition(g1, g2, f, x, cfg):
        return [pullback_composition_sides(g1, g2, f, x)]

    gfx = (PARAVECTOR, FIELD, EVENT)
    # the exact cases that numeric mode reruns, each on its twin's substream,
    # which is the twin's position in the table
    twins = [
        ("div-left-transport", partial(transport, div4, False)),
        ("grad-left-transport", partial(transport, grad4, False)),
        ("div-right-transport", partial(transport, div4, True)),
        ("grad-right-transport", partial(transport, grad4, True)),
        ("right-factor", right_factor),
    ]
    return [
        *(Case(f"{name}-exact", "exact", 1e-10, _blocked(_times(1), gfx, partial(sides, exact)))
          for name, sides in twins),
        Case("right-factor-singular-exact", "exact", 1e-10,
             _blocked(_fifth, (FIELD, EVENT), singular_right_factor)),
        Case("observer-rotation-exact", "exact", 1e-10, _blocked(_times(1), gfx, rotation)),
        Case("pullback-group-composition", "exact", 1e-10,
             _blocked(_times(1), (PARAVECTOR, PARAVECTOR, FIELD, EVENT), group_composition)),
        *(Case(f"{name}-numeric", "numeric", 1e-5,
               _blocked(_times(1), gfx, partial(sides, numeric)), substream=i)
          for i, (name, sides) in enumerate(twins)),
    ]
