"""Hand-worked values for the benchmark's oracles and output checks.

    python3 -m pytest -q perfbench
"""

import json

import numpy as np
import pytest

import checks
import oracles


def close(got, want):
    np.testing.assert_allclose(np.asarray(got, complex), np.asarray(want, complex),
                               rtol=0, atol=1e-14)


# -- Pauli oracle -------------------------------------------------------------

def test_pauli_product_of_unit_z_and_event():
    # [1; e_z] (0; 1, 1, 0) = (0; 1 - i, 1 + i, 0)
    close(oracles.pauli_mul([1, 0, 0, 1], [0, 1, 1, 0]), [0, 1 - 1j, 1 + 1j, 0])


def test_pauli_basis_products():
    # sigma_x sigma_y = i sigma_z, and sigma_x^2 = 1
    close(oracles.pauli_mul([0, 1, 0, 0], [0, 0, 1, 0]), [0, 0, 0, 1j])
    close(oracles.pauli_mul([0, 1, 0, 0], [0, 1, 0, 0]), [1, 0, 0, 0])


def test_pauli_det_reverse_inverse():
    assert oracles.pauli_det([2, 1, 0, 0]) == pytest.approx(3)  # 4 - 1
    assert oracles.pauli_det([1j, 0, 0, 1]) == pytest.approx(-2)  # -1 - 1
    assert abs(oracles.pauli_det([1 + 0.5j, 1 + 0.5j, 0, 0])) < 1e-15
    close(oracles.pauli_reverse([1, 2, 3j, 4]), [1, -2, -3j, -4])
    close(oracles.pauli_inverse([2, 1, 0, 0]), [2 / 3, -1 / 3, 0, 0])


def test_matrix_round_trip():
    p = np.array([0.5 - 1j, 2j, -1.5, 0.25 + 0.75j])
    close(oracles.from_matrix(oracles.to_matrix(p)), p)


# -- monomial-rule oracle --------------------------------------------------------

CUBE_X = (np.array([[0, 3, 0, 0]]), np.array([[1, 0, 0, 0]], complex))  # A = [x^3; 0]
AT_X2 = np.array([0, 2, 0, 0], complex)


def test_monomial_rule_d_dx_x_cubed_is_3x_squared():
    exps, coeffs = oracles.poly_partial(*CUBE_X, 1)
    assert exps.tolist() == [[0, 2, 0, 0]]
    close(coeffs, [[3, 0, 0, 0]])
    close(oracles.poly_value(exps, coeffs, AT_X2), [12, 0, 0, 0])
    e_t, c_t = oracles.poly_partial(*CUBE_X, 0)  # no t in x^3
    assert e_t.shape == (0, 4) and c_t.shape == (0, 4)


def test_operators_of_x_cubed():
    close(oracles.poly_div4(*CUBE_X, AT_X2), [0, 12, 0, 0])  # E_x * 3x^2
    close(oracles.poly_grad4(*CUBE_X, AT_X2), [0, -12, 0, 0])
    close(oracles.poly_box4(*CUBE_X, AT_X2), [-12, 0, 0, 0])  # -d_x^2 x^3 = -6x


def test_div4_curl_term():
    # A = [0; 0, x, 0]: div4 A = E_x (0; 0, 1, 0) = (0; 0, 0, i) = i curl A
    exps, coeffs = np.array([[0, 1, 0, 0]]), np.array([[0, 0, 1, 0]], complex)
    close(oracles.poly_div4(exps, coeffs, AT_X2), [0, 0, 0, 1j])
    close(oracles.poly_grad4(exps, coeffs, AT_X2), [0, 0, 0, -1j])


def test_poly_value_merges_duplicate_terms():
    exps = np.array([[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2]])
    coeffs = np.array([[1, 0, 0, 0], [2, 0, 0, 0], [0, 1j, 0, 0]])
    close(oracles.poly_value(exps, coeffs, [2, 0, 0, 3]), [6, 9j, 0, 0])


# -- report properties ----------------------------------------------------------

def report(cases, suite="algebra", **over):
    obj = {"suite": suite, "seed": 42, "samples": 5,
           "tolerances": {"exact": 1e-10, "numeric": 1e-5, "step": 1e-5},
           "cases": cases,
           "passed": sum(c["pass"] for c in cases),
           "failed": sum(not c["pass"] for c in cases)}
    obj.update(over)
    return (json.dumps(obj) + "\n").encode()


def case(name, residual, threshold=1e-10):
    return {"name": name, "residual": residual, "threshold": threshold,
            "pass": residual <= threshold}


def judge(stdout, code=0, suite="algebra"):
    return checks.check_report(stdout, code, suite=suite, seed=42, samples=5, verbose=False)


def test_valid_report_passes():
    v = judge(report([case("algebra/a", 0.0), case("algebra/b", 1e-12)]))
    assert (v.operations, v.failed, v.problems) == (2, [], [])


def test_failed_case_is_a_failed_operation_not_a_problem():
    v = judge(report([case("algebra/a", 0.0), case("algebra/b", 3e-10)]), code=1)
    assert v.problems == []
    assert v.failed == [{"seed": 42, "suite": "algebra", "case": "b", "samples": 5,
                         "residual": 3e-10, "threshold": 1e-10}]


def test_exit_code_must_match_failures():
    assert judge(report([case("algebra/b", 3e-10)]), code=0).problems
    assert judge(report([case("algebra/a", 0.0)]), code=1).problems


def test_nan_residual_is_invalid_json():
    bad = report([case("algebra/a", 0.0)]).replace(b'"residual": 0.0', b'"residual": NaN')
    assert "invalid JSON" in judge(bad).problems[0]


def test_key_order_and_counts_are_checked():
    out = json.loads(report([case("algebra/a", 0.0)]))
    reordered = {k: out[k] for k in ["seed", "suite"] + list(out)[2:]}
    assert judge((json.dumps(reordered) + "\n").encode()).problems
    assert judge(report([case("algebra/a", 0.0)], passed=2)).problems


def test_pass_flag_must_match_threshold():
    lying = dict(case("algebra/a", 5e-10), **{"pass": True})
    assert any("pass=True" in p for p in judge(report([lying], failed=0)).problems)


def test_negative_residual_and_foreign_names_are_problems():
    assert judge(report([case("algebra/a", -1.0)])).problems
    assert judge(report([case("diffop/a", 0.0)])).problems


def test_suites_in_documented_order():
    ok = report([case("algebra/a", 0.0), case("wave/b", 0.0)], suite="all")
    swapped = report([case("wave/b", 0.0), case("algebra/a", 0.0)], suite="all")
    assert judge(ok, suite="all").problems == []
    assert judge(swapped, suite="all").problems


# -- convergence property ---------------------------------------------------------

def table(rows):
    lines = [f"{'h':>12}  {'max_error':>14}  {'ratio':>10}"]
    for h, err, ratio in rows:
        lines.append(f"{h:>12.6g}  {err:>14.6e}  {ratio:>10}")
    return ("\n".join(lines) + "\n").encode()


def test_second_order_table_passes():
    out = table([(0.1, 4e-3, "4.000"), (0.05, 1e-3, "4.000"), (0.025, 2.5e-4, "n/a")])
    v = checks.check_convergence(out, 0, ["0.1", "0.05", "0.025"])
    assert (v.operations, v.failed, v.problems) == (2, [], [])


def test_off_band_pair_fails_and_needs_exit_1():
    steps = ["0.1", "0.05", "0.025", "0.0125"]
    out = table([(0.1, 4e-3, "4.000"), (0.05, 1e-3, "5.000"), (0.025, 2e-4, "3.636"),
                 (0.0125, 5.5e-5, "n/a")])
    assert checks.check_convergence(out, 0, steps).problems
    v = checks.check_convergence(out, 1, steps)
    assert v.problems == [] and [f["pair"] for f in v.failed] == [["0.05", "0.025"]]


def test_flat_error_passes_the_band_but_not_the_order():
    # steps 0.962 apart predict a ratio of 1.08, so a ratio of 1 is inside the band
    out = table([(0.1, 12.79, "1.000"), (0.0962, 12.79, "1.000"), (0.0925444, 12.79, "n/a")])
    v = checks.check_convergence(out, 0, ["0.1", "0.0962", "0.0925444"])
    assert v.failed == [] and any("h^0.000" in p for p in v.problems)


def test_printed_ratio_must_follow_printed_errors():
    out = table([(0.1, 4e-3, "4.100"), (0.05, 1e-3, "n/a")])
    assert checks.check_convergence(out, 0, ["0.1", "0.05"]).problems
