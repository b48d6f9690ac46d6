"""The ``wave`` suite: the four wave-operator invariance forms under drawn
orthogonal maps, their value-transformation laws, and the floor under the
split between covariant and contravariant values.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .algebra import normalize_rows
from .harness import Case, _blocked, _floor, _once, _rel, _times
from .tape import EVENT, PARAVECTOR, POLY, Tape, draw
from .transforms import (
    InvarianceForm,
    form_point,
    form_value_sides,
    transformed_field_values,
    wave_invariance_sides,
)

VALUE_SPLIT_FLOOR = 1e-3


def _wave_form_case(form: InvarianceForm):
    def block(tape, start, n, cfg):
        g, c, x = draw(tape, start, n, PARAVECTOR, POLY, EVENT)
        f, lam = (None, None, c), normalize_rows(g)  # as random_orthogonal draws
        return _rel(*wave_invariance_sides(form, f, lam, form_point(form, lam, x)))

    return _blocked(_times(1), block)


def cases() -> List[Case]:
    def value_split(rng):
        tape, best = Tape(rng), 0.0
        best_gap = np.zeros(4, np.complex128)
        for i in range(10):
            lam = normalize_rows(draw(tape, i, 1, PARAVECTOR)[0])  # random_orthogonal
            if float(np.max(np.abs(lam[0, 1:]))) < 0.1:
                continue  # scalar-like draws do not witness the split
            c, Xp = draw(tape, i, 1, POLY, EVENT)
            vals = transformed_field_values((None, None, c), lam, Xp)
            gap = (vals.covariant - vals.contravariant)[0]
            m = float(np.max(np.abs(gap)))
            if m > best:
                best, best_gap = m, gap
        return best_gap

    def value_laws(tape, start, n, cfg):
        # each form's moved field at X' against its value law at the pre-image
        g, c, Xp = draw(tape, start, n, PARAVECTOR, POLY, EVENT)
        f, lam = (None, None, c), normalize_rows(g)  # as random_orthogonal draws
        return np.concatenate([_rel(*form_value_sides(form, f, lam, Xp))
                               for form in InvarianceForm])

    return [
        Case("form1-right-invariant", "exact", 1e-9, _wave_form_case(InvarianceForm.FORM1)),
        Case("form2-right-contravariant", "exact", 1e-9, _wave_form_case(InvarianceForm.FORM2)),
        Case("form3-left-covariant", "exact", 1e-9, _wave_form_case(InvarianceForm.FORM3)),
        Case("form4-left-invariant", "exact", 1e-9, _wave_form_case(InvarianceForm.FORM4)),
        Case("covariant-contravariant-split-deficit", "fixed", 0.0,
             _floor(value_split, VALUE_SPLIT_FLOOR)),
        Case("form-value-structure", "exact", 1e-10, _blocked(_once, value_laws)),
    ]
