"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `criterion N: PASS/FAIL` line with the measured worst
residual (run with `pytest -s` to see them on passing runs).
"""

import json

import numpy as np

from paracalc.algebra import (
    Event,
    IDENTITY,
    Paravector,
    act_left,
    act_right,
    conjugate_rotate,
    det,
    inverse,
    mul,
    reverse,
)
from paracalc.cli import main
from paracalc.diffops import (
    Numeric,
    additivity_residual,
    div4,
    div4_field,
    grad4,
    grad4_field,
    leibniz_sides,
    product_rule_failure_witness,
    scalar_order_gap,
)
from paracalc.electromag import (
    PhysConstants,
    PotentialField,
    em_field_from_potential,
    em_from_potential,
    lorenz_gauge_potential,
    plane_wave_potential,
    source_field_from_em,
    sources_from_em,
    wave_residual,
)
from paracalc.fields import (
    PolynomialField,
    central_difference,
    random_event,
    random_field,
    random_orthogonal,
    random_paravector,
    random_plane_wave,
    random_scalar_field,
)
from paracalc.transforms import (
    InvarianceForm,
    TransformCase,
    div_left_transport_residual,
    div_right_transport_residual,
    grad_left_transport_residual,
    grad_right_transport_residual,
    observer_rotation_sides,
    right_factor_residuals,
    transformed_field_values,
    wave_invariance_residual,
)

from util import max_abs, rel_err

SEED = 42


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def mixed_field(rng, i, degree=3):
    return random_field(rng, degree=degree) if i % 2 == 0 else random_plane_wave(rng)


def test_criterion_1_algebra_identities():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        a, b, c = (random_paravector(rng) for _ in range(3))
        worst = max(worst, rel_err(mul(mul(a, b), c).data, mul(a, mul(b, c)).data))
        worst = max(worst, rel_err(reverse(mul(a, b)).data,
                                   mul(reverse(b), reverse(a)).data))
        worst = max(worst, rel_err([det(mul(a, b))], [det(a) * det(b)]))
        worst = max(worst, rel_err(mul(a, inverse(a)).data, IDENTITY.data))
    identities_ok = worst <= 1e-12

    left = act_left(Paravector(1.0, (0.0, 0.0, 1.0)), Event(0.0, (1.0, 1.0, 0.0)))
    right = act_right(Event(0.0, (1.0, 1.0, 0.0)), Paravector(1.0, (0.0, 0.0, 1.0)))
    actions_ok = bool(
        np.array_equal(left.data, np.array([0.0, 1.0 - 1.0j, 1.0 + 1.0j, 0.0]))
        and np.array_equal(right.data, np.array([0.0, 1.0 + 1.0j, 1.0 - 1.0j, 0.0]))
    )
    report(
        1,
        identities_ok and actions_ok,
        f"algebra identities over 1000 draws: worst relative residual {worst:.3e} "
        f"(<= 1e-12); action expansions exact: {actions_ok}",
    )


def test_criterion_2_operator_assembly_and_numeric_oracle():
    rng = np.random.default_rng(SEED + 1)
    h = 1e-5
    exact_worst = 0.0
    numeric_worst = 0.0
    for i in range(100):
        f = mixed_field(rng, i)
        X = random_event(rng)
        x = X.data
        # oracle: sum_k E_k (d_k A) built as a field and evaluated by products
        exact_worst = max(exact_worst,
                          rel_err(div4(f, X).data, div4_field(f).at(X).data),
                          rel_err(grad4(f, X).data, grad4_field(f).at(X).data))

        loc = 0.0
        for c in range(4):
            for sgn in (1.0, -1.0):
                xs = x.copy()
                xs[c] += sgn * h
                loc = max(loc, max_abs(f._value(xs)))
        for c in range(4):
            gap = max_abs(
                central_difference(f._value, x, c, h) - f.partial(c)._value(x)
            )
            numeric_worst = max(numeric_worst, gap / (1.0 + loc))

    ratios = []
    for i in range(6):
        f = mixed_field(rng, i)
        pts = [random_event(rng).data for _ in range(10)]
        errs = []
        for step in (1e-3, 5e-4):
            worst = 0.0
            for x in pts:
                for c in range(4):
                    worst = max(worst, max_abs(
                        central_difference(f._value, x, c, step)
                        - f.partial(c)._value(x)
                    ))
            errs.append(worst)
        if errs[1] > 1e-12:
            ratios.append(errs[0] / errs[1])
    ratios_ok = bool(ratios) and all(3.2 <= r <= 4.8 for r in ratios)

    ok = exact_worst <= 1e-12 and numeric_worst <= 1e-7 and ratios_ok
    report(
        2,
        ok,
        f"div4/grad4 vs sum_k E_k d_k A oracle: relative residual {exact_worst:.1e} "
        f"(<= 1e-12); numeric "
        f"agreement {numeric_worst:.3e} (<= 1e-7 normalized); halving ratios "
        f"{[f'{r:.2f}' for r in ratios]} in [3.2, 4.8]",
    )


def test_criterion_3_additivity_and_scalar_product_rule():
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for i in range(100):
        f = random_field(rng)
        g = mixed_field(rng, i)
        rho = random_scalar_field(rng)
        X = random_event(rng)
        worst = max(worst, max_abs(additivity_residual(f, g, X).data))
        lhs, rhs = leibniz_sides(rho, g, X)
        worst = max(worst, max_abs(lhs.data - rhs.data))
    res_ok = worst <= 1e-12

    fw = PolynomialField.monomial((0, 1, 0, 0), Paravector(0.0, (1.0, 0.0, 0.0)))
    gw = PolynomialField.monomial((0, 0, 1, 0), Paravector(0.0, (0.0, 1.0, 0.0)))
    w1 = max_abs(product_rule_failure_witness(fw, gw, Event(0.0, (1.0, 1.0, 1.0))).data)
    w2 = max_abs(scalar_order_gap(
        PolynomialField.monomial((0, 1, 0, 0), IDENTITY), Paravector(0.0, (0.0, 1.0, 0.0)),
        Event(0.0, (1.0, 1.0, 1.0)),
    ).data)
    floors_ok = w1 >= 1.9 and w2 >= 1.9
    report(
        3,
        res_ok and floors_ok,
        f"additivity/product-rule residuals {worst:.3e} (<= 1e-12); failure "
        f"witnesses {w1:.3f}, {w2:.3f} exceed recorded floors 1.9",
    )


def test_criterion_4_transport_identities():
    rng = np.random.default_rng(SEED + 3)
    residual_fns = {
        "div-left": div_left_transport_residual,
        "grad-left": grad_left_transport_residual,
        "div-right": div_right_transport_residual,
        "grad-right": grad_right_transport_residual,
    }
    worst_exact = 0.0
    worst_numeric = 0.0
    for name, fn in residual_fns.items():
        for i in range(50):
            g = random_paravector(rng)
            f = mixed_field(rng, i)
            X = random_event(rng)
            worst_exact = max(worst_exact, max_abs(fn(TransformCase(g, f, X)).data))
            worst_numeric = max(
                worst_numeric,
                max_abs(fn(TransformCase(g, f, X, Numeric(1e-5))).data),
            )
    for i in range(50):
        # every tenth factor is exactly singular; the identity needs no inverse
        if i % 10 == 0:
            s = 1.0 + 0.5j
            g = Paravector(s, (s, 0.0, 0.0))
        else:
            g = random_paravector(rng)
        f = mixed_field(rng, i)
        X = random_event(rng)
        d, gr = right_factor_residuals(f, g, X)
        worst_exact = max(worst_exact, max_abs(d.data), max_abs(gr.data))
        dn, grn = right_factor_residuals(f, g, X, Numeric(1e-5))
        worst_numeric = max(worst_numeric, max_abs(dn.data), max_abs(grn.data))
    ok = worst_exact <= 1e-10 and worst_numeric <= 1e-5
    report(
        4,
        ok,
        f"transport identities, 50 cases each: exact {worst_exact:.3e} (<= 1e-10), "
        f"numeric {worst_numeric:.3e} (<= 1e-5 at h=1e-5)",
    )


def test_criterion_5_observer_rotation():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for i in range(50):
        lam = random_orthogonal(rng)
        f = mixed_field(rng, i)
        Xp = conjugate_rotate(lam, random_event(rng))
        lhs, rhs = observer_rotation_sides(f, lam, Xp)
        worst = max(worst, max_abs(lhs.data - rhs.data))
    report(5, worst <= 1e-10,
           f"observer rotation over 50 orthogonal draws: {worst:.3e} (<= 1e-10)")


def test_criterion_6_wave_invariance():
    rng = np.random.default_rng(SEED + 5)
    worst = 0.0
    for _ in range(50):
        lam = random_orthogonal(rng)
        f = random_field(rng)
        X = random_event(rng)
        for form in InvarianceForm:
            Xp = (
                act_right(X, lam)
                if form in (InvarianceForm.FORM1, InvarianceForm.FORM2)
                else act_left(lam, X)
            )
            worst = max(worst, max_abs(
                wave_invariance_residual(form, f, lam, Xp).data
            ))
    forms_ok = worst <= 1e-9

    split = 0.0
    for _ in range(10):
        lam = random_orthogonal(rng)
        if max_abs(lam.v) < 0.1:
            continue
        vals = transformed_field_values(random_field(rng), lam, random_event(rng))
        split = max(split, max_abs(vals.covariant.data - vals.contravariant.data))
    split_ok = split >= 1e-3
    report(
        6,
        forms_ok and split_ok,
        f"four invariance forms over 50 draws: {worst:.3e} (<= 1e-9); "
        f"covariant/contravariant split {split:.3e} (>= 1e-3)",
    )


def test_criterion_7_maxwell_embedding():
    rng = np.random.default_rng(SEED + 6)

    def complex_time_event():
        return Event(
            complex(rng.uniform(-2, 2), rng.uniform(-0.1, 0.1)),
            rng.uniform(-2, 2, size=3),
        )

    def wave_checks(k):
        gauge = sources = 0.0
        for _ in range(100):
            kvec = rng.uniform(-1, 1, size=3)
            while np.linalg.norm(kvec) < 0.3:
                kvec = rng.uniform(-1, 1, size=3)
            raw = rng.uniform(-1, 1, size=3)
            pol = raw - (raw @ kvec) / (kvec @ kvec) * kvec
            while np.linalg.norm(pol) < 0.2:
                raw = rng.uniform(-1, 1, size=3)
                pol = raw - (raw @ kvec) / (kvec @ kvec) * kvec
            amp = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            pot = plane_wave_potential(kvec, pol, amp, k)
            emf = em_field_from_potential(pot, k)
            X = complex_time_event()
            gauge = max(gauge, abs(em_from_potential(pot, X, k).scalar))
            src = sources_from_em(emf, X, k)
            sources = max(sources, abs(src.rho_over_eps), max_abs(src.j_term))
        return gauge, sources

    g1, s1 = wave_checks(PhysConstants())
    g2, s2 = wave_checks(PhysConstants(c=2.0))
    wave_ok = g1 <= 1e-12 and s1 <= 1e-10 and g2 <= 1e-12 and s2 <= 1e-10

    chain = 0.0
    for _ in range(50):
        pot = lorenz_gauge_potential(rng)
        src = source_field_from_em(em_field_from_potential(pot))
        chain = max(chain, max_abs(wave_residual(pot, src, complex_time_event()).data))
    chain_ok = chain <= 1e-9

    h = 1e-5
    gauss = 0.0
    for _ in range(20):
        exps, coeffs = [], []
        for ex in range(3):
            for ey in range(3 - ex):
                for ez in range(3 - ex - ey):
                    exps.append((0, ex, ey, ez))
                    coeffs.append(rng.uniform(-1, 1))
        poly = np.zeros((len(exps), 4), np.complex128)
        poly[:, 0] = coeffs
        pot = PotentialField(PolynomialField(np.array(exps), poly))
        X = Event(0.0, rng.uniform(-2, 2, size=3))
        src = sources_from_em(em_field_from_potential(pot), X, mode=Numeric(h))
        div_e = 0.0
        for c in (1, 2, 3):
            xp = X.data.copy()
            xp[c] += h
            xm = X.data.copy()
            xm[c] -= h
            ep = em_from_potential(pot, Event.from_data(xp)).F[c - 1].real
            em = em_from_potential(pot, Event.from_data(xm)).F[c - 1].real
            div_e += (ep - em) / (2 * h)
        gauss = max(gauss, abs(src.rho_over_eps.real - div_e))
    gauss_ok = gauss <= 1e-6

    report(
        7,
        wave_ok and chain_ok and gauss_ok,
        f"plane-wave gauge {max(g1, g2):.2e} (<= 1e-12), sources {max(s1, s2):.2e} "
        f"(<= 1e-10, c=1 and c=2); factorization chain {chain:.2e} (<= 1e-9); "
        f"Gauss-law slice {gauss:.2e} (<= 1e-6)",
    )


def test_criterion_8_harness_contract(capsys):
    argv = ["check", "algebra", "--seed", "42", "--samples", "5", "--json"]
    rc1 = main(argv)
    out1 = capsys.readouterr().out
    rc2 = main(argv)
    out2 = capsys.readouterr().out
    deterministic = out1 == out2 and out1.endswith("\n")
    schema_ok = list(json.loads(out1).keys()) == [
        "suite", "seed", "samples", "tolerances", "cases", "passed", "failed",
    ]

    rc_pass = main(["check", "algebra", "--samples", "2"])
    rc_fail = main(["check", "transforms", "--samples", "2", "--tol-exact", "1e-30"])
    rc_cfg = main(["check", "bogus"])
    rc_cfg2 = main(["convergence", "--field", "poly", "--steps", "1e-3"])
    capsys.readouterr()

    ok = (
        deterministic
        and schema_ok
        and rc1 == rc2 == 0
        and rc_pass == 0
        and rc_fail == 1
        and rc_cfg == 2
        and rc_cfg2 == 2
    )
    report(
        8,
        ok,
        f"byte-identical JSON: {deterministic}; schema: {schema_ok}; exit codes "
        f"pass/fail/config = {rc_pass}/{rc_fail}/{rc_cfg}",
    )
