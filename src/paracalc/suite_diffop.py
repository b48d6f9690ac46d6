"""The ``diffop`` suite: the operators' own identities on blocks of fields
(assembly against ``sum_k E_k d_k A``, numeric against exact partials, the
factorization of ``box4`` in exact and numeric mode, additivity, the scalar
product rule), the null plane wave's ``box4``, the product-rule and ordering
failure witnesses, and the central difference's second-order band.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .algebra import Event, IDENTITY, Paravector
from .diffops import assemble_box, product_rule_failure_witness, scalar_order_gap
from .fields import Field
from .harness import NOISE_FLOOR, ROWS, Case, _blocked, _fifth, _floor, _rel, _times
from .kernels import DRAW_SCALE, jets
from .tape import EVENT, FIELD, NULL_WAVE, POLY, SCALAR, discs, draw
from .transforms import (
    block_additivity_sides,
    block_assembly_sides,
    block_factorization_numeric_sides,
    block_factorization_sides,
    block_leibniz_sides,
    block_numeric_partials,
)

# Regression pins from the first verified run of the stored witness inputs;
# the measured values are exactly 2.0.
PRODUCT_RULE_WITNESS_FLOOR = 1.9
ORDER_GAP_WITNESS_FLOOR = 1.9


def cases() -> List[Case]:
    ten_events = discs(DRAW_SCALE, 10, 4)  # convergence-band-deficit's points

    def assembly_oracle(tape, start, n, cfg):
        # div4/grad4 assemble jets; the oracle is the field sum_k E_k (d_k A)
        # from the lowered rows, evaluated
        (div, grad) = block_assembly_sides(*draw(tape, start, n, FIELD, EVENT))
        return np.stack([_rel(*div), _rel(*grad)], axis=1).reshape(-1, 4)

    def numeric_agreement(tape, start, n, cfg):
        f, x = draw(tape, start, n, FIELD, EVENT)
        num, exact, loc = block_numeric_partials(f, x[:, None], cfg.h)
        return ((num - exact) / (1.0 + loc)[:, None, None, None]).swapaxes(-1, -2).reshape(-1, 4)  # per coordinate

    def factorization_exact(tape, start, n, cfg):
        b, grad_div, div_grad = block_factorization_sides(*draw(tape, start, n, FIELD, EVENT))
        return np.stack([_rel(grad_div, b), _rel(div_grad, b)], axis=1).reshape(-1, 4)

    def factorization_numeric(tape, start, n, cfg):
        # A fixed step, not cfg.h: a nested second difference loses ~eps/h^2
        # to rounding (numeric box4 is off by ~1e-8 relative at 1e-4, ~2e-6
        # at 1e-5, ~1e-2 at 1e-7), and both sides here nest the same way, so
        # at small steps they agree as rounding noise and the check is empty.
        return _rel(*block_factorization_numeric_sides(*draw(tape, start, n, FIELD, EVENT), 1e-4))

    def null_wave_box(tape, start, n, cfg):
        f, x = draw(tape, start, n, NULL_WAVE, EVENT)
        return assemble_box(jets(f, x, 2)[2])

    def additivity(tape, start, n, cfg):
        f, g, x = draw(tape, start, n, POLY, FIELD, EVENT)
        return _rel(*block_additivity_sides((None, None, f), g, x))

    def leibniz(tape, start, n, cfg):
        return _rel(*block_leibniz_sides(*draw(tape, start, n, SCALAR, FIELD, EVENT)))

    def product_rule_gap(rng):
        f = Field.monomial((0, 1, 0, 0), Paravector(0.0, (1.0, 0.0, 0.0)))
        g = Field.monomial((0, 0, 1, 0), Paravector(0.0, (0.0, 1.0, 0.0)))
        return product_rule_failure_witness(f, g, Event(0.0, (1.0, 1.0, 1.0))).data

    def order_gap(rng):
        rho = Field.monomial((0, 1, 0, 0), IDENTITY)
        a = Paravector(0.0, (0.0, 1.0, 0.0))
        return scalar_order_gap(rho, a, Event(0.0, (1.0, 1.0, 1.0))).data

    def convergence_band(tape, start, n, cfg):
        f, x = draw(tape, start, n, FIELD, ten_events)
        *nums, exact, _ = block_numeric_partials(f, x, 1e-3, 5e-4)
        errs = np.transpose([np.abs(num - exact).reshape(n, -1).max(axis=1) for num in nums])
        ratio = errs[:, 0] / errs[:, 1]
        deficit = np.max([0.0 * ratio, 3.2 - ratio, ratio - 4.8], axis=0)
        return deficit[~(errs[:, 1] < NOISE_FLOOR)][:, None]

    return [
        Case("assembly-matches-oracle", "exact", 1e-12, _blocked(_times(2), assembly_oracle, ROWS)),
        Case("numeric-agreement", "numeric", 1e-7, _blocked(_times(2), numeric_agreement, ROWS)),
        Case("factorization-exact", "exact", 1e-12, _blocked(_times(1), factorization_exact, ROWS)),
        # blocks of 2: 64 stencil points a row
        Case("factorization-numeric", "numeric", 1e-4, _blocked(_fifth, factorization_numeric, 2)),
        Case("null-plane-wave-box", "exact", 1e-12, _blocked(_times(1), null_wave_box, ROWS)),
        Case("additivity", "exact", 1e-12, _blocked(_times(2), additivity, ROWS)),
        Case("scalar-product-rule", "exact", 1e-12, _blocked(_times(2), leibniz, ROWS)),
        Case("product-rule-failure-floor-deficit", "fixed", 0.0,
             _floor(product_rule_gap, PRODUCT_RULE_WITNESS_FLOOR)),
        Case("ordering-witness-floor-deficit", "fixed", 0.0,
             _floor(order_gap, ORDER_GAP_WITNESS_FLOOR)),
        Case("convergence-band-deficit", "fixed", 0.0,
             _blocked(lambda cfg: 6, convergence_band, ROWS)),
    ]
