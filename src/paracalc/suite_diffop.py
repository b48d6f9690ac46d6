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
from .harness import NOISE_FLOOR, ROWS, Case, _blocked, _fifth, _floor, _times
from .kernels import DRAW_SCALE, jets
from .tape import EVENT, FIELD, NULL_WAVE, POLY, SCALAR, discs
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
    def assembly_oracle(f, x, cfg):  # jets against sum_k E_k (d_k A) from the lowered rows
        return block_assembly_sides(f, x)

    def numeric_agreement(f, x, cfg):
        num, exact, loc = block_numeric_partials(f, x[:, None], cfg.h)  # rows per coordinate
        return ((num - exact) / (1.0 + loc)[:, None, None, None]).swapaxes(-1, -2).reshape(-1, 4)

    def factorization_exact(f, x, cfg):
        b, grad_div, div_grad = block_factorization_sides(f, x)
        return [(grad_div, b), (div_grad, b)]

    def factorization_numeric(f, x, cfg):
        # A fixed step, not cfg.h: a nested second difference loses ~eps/h^2
        # to rounding (numeric box4 is off by ~1e-8 relative at 1e-4, ~2e-6
        # at 1e-5, ~1e-2 at 1e-7), and both sides here nest the same way, so
        # at small steps they agree as rounding noise and the check is empty.
        return [block_factorization_numeric_sides(f, x, 1e-4)]

    def null_wave_box(f, x, cfg):
        return assemble_box(jets(f, x, 2)[2])

    def additivity(f, g, x, cfg):
        return [block_additivity_sides((None, None, f), g, x)]

    def leibniz(rho, f, x, cfg):
        return [block_leibniz_sides(rho, f, x)]

    def product_rule_gap(rng):
        f = Field.monomial((0, 1, 0, 0), Paravector(0.0, (1.0, 0.0, 0.0)))
        g = Field.monomial((0, 0, 1, 0), Paravector(0.0, (0.0, 1.0, 0.0)))
        return product_rule_failure_witness(f, g, Event(0.0, (1.0, 1.0, 1.0))).data

    def order_gap(rng):
        rho = Field.monomial((0, 1, 0, 0), IDENTITY)
        a = Paravector(0.0, (0.0, 1.0, 0.0))
        return scalar_order_gap(rho, a, Event(0.0, (1.0, 1.0, 1.0))).data

    def convergence_band(f, x, cfg):
        *nums, exact, _ = block_numeric_partials(f, x, 1e-3, 5e-4)
        errs = np.transpose([np.abs(num - exact).reshape(len(x), -1).max(axis=1) for num in nums])
        ratio = errs[:, 0] / errs[:, 1]
        deficit = np.max([0.0 * ratio, 3.2 - ratio, ratio - 4.8], axis=0)
        return np.where(errs[:, 1] < NOISE_FLOOR, 0.0, deficit)[:, None]  # rounding: no deficit

    fx = (FIELD, EVENT)
    return [
        Case("assembly-matches-oracle", "exact", 1e-12,
             _blocked(_times(2), fx, assembly_oracle, ROWS)),
        Case("numeric-agreement", "numeric", 1e-7,
             _blocked(_times(2), fx, numeric_agreement, ROWS)),
        Case("factorization-exact", "exact", 1e-12,
             _blocked(_times(1), fx, factorization_exact, ROWS)),
        # blocks of 2: 64 stencil points a row
        Case("factorization-numeric", "numeric", 1e-4,
             _blocked(_fifth, fx, factorization_numeric, 2)),
        Case("null-plane-wave-box", "exact", 1e-12,
             _blocked(_times(1), (NULL_WAVE, EVENT), null_wave_box, ROWS)),
        Case("additivity", "exact", 1e-12,
             _blocked(_times(2), (POLY, FIELD, EVENT), additivity, ROWS)),
        Case("scalar-product-rule", "exact", 1e-12,
             _blocked(_times(2), (SCALAR, FIELD, EVENT), leibniz, ROWS)),
        Case("product-rule-failure-floor-deficit", "fixed", 0.0,
             _floor(product_rule_gap, PRODUCT_RULE_WITNESS_FLOOR)),
        Case("ordering-witness-floor-deficit", "fixed", 0.0,
             _floor(order_gap, ORDER_GAP_WITNESS_FLOOR)),
        # ten events a sample: the points of the band
        Case("convergence-band-deficit", "fixed", 0.0,
             _blocked(lambda cfg: 6, (FIELD, discs(DRAW_SCALE, 10, 4)), convergence_band, ROWS)),
    ]
