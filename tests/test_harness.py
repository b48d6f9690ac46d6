import json
import math

import pytest

import numpy as np

from paracalc.algebra import Paravector
from paracalc.cli import main
from paracalc.fields import Field, LeftMulField, PolynomialField, random_field
from paracalc.harness import (
    ConfigError,
    SUITE_NAMES,
    SuiteConfig,
    case_rng,
    convergence_ok,
    ConvergenceRow,
    Worst,
    report_to_json,
    run_convergence,
    run_suite,
)


def small_cfg(suite, **kw):
    kw.setdefault("samples", 3)
    return SuiteConfig(suite=suite, **kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(suite="bogus")
    with pytest.raises(ConfigError):
        SuiteConfig(suite="algebra", samples=0)
    with pytest.raises(ConfigError):
        SuiteConfig(suite="algebra", tol_exact=0.0)
    with pytest.raises(ConfigError):
        SuiteConfig(suite="algebra", h=-1.0)
    with pytest.raises(ConfigError):
        SuiteConfig(suite="algebra", seed=-1)
    for bad in (math.inf, math.nan):
        for key in ("tol_exact", "tol_numeric", "h"):
            with pytest.raises(ConfigError):
                SuiteConfig(suite="algebra", **{key: bad})
    for key in ("tol_exact", "tol_numeric"):  # finite, but the scaled threshold overflows
        with pytest.raises(ConfigError):
            SuiteConfig(suite="algebra", **{key: 1e308})


def test_worst_keeps_non_finite_samples():
    w = Worst()
    for sample in (1.0, math.nan, 2.0):
        w.offer([sample])
    assert math.isnan(w.value)
    w = Worst()
    w.floor_deficit(math.nan, 1.0)
    assert math.isnan(w.value)


def test_json_reports_are_byte_identical():
    a = report_to_json(run_suite(small_cfg("algebra", samples=10, seed=42)))
    b = report_to_json(run_suite(small_cfg("algebra", samples=10, seed=42)))
    assert a == b
    assert a.endswith("\n")
    assert a.encode("utf-8").decode("utf-8") == a


def test_json_schema_and_key_order():
    rep = run_suite(small_cfg("algebra", seed=7))
    obj = json.loads(report_to_json(rep))
    assert list(obj.keys()) == [
        "suite", "seed", "samples", "tolerances", "cases", "passed", "failed",
    ]
    assert list(obj["tolerances"].keys()) == ["exact", "numeric", "step"]
    for case in obj["cases"]:
        assert list(case.keys()) == ["name", "residual", "threshold", "pass"]
        assert case["pass"] == (case["residual"] <= case["threshold"])
    assert obj["passed"] + obj["failed"] == len(obj["cases"])


def test_verbose_json_adds_components():
    rep = run_suite(small_cfg("algebra", seed=7))
    obj = json.loads(report_to_json(rep, verbose=True))
    assert any("components" in case for case in obj["cases"])


def test_all_concatenates_in_fixed_order():
    cfg = small_cfg("all", samples=1)
    rep = run_suite(cfg)
    prefixes = [c.name.split("/")[0] for c in rep.cases]
    seen = []
    for p in prefixes:
        if not seen or seen[-1] != p:
            seen.append(p)
    assert seen == list(SUITE_NAMES)


def test_substreams_stable_across_all_and_single_runs():
    all_rep = run_suite(small_cfg("all", samples=2, seed=5))
    tr_rep = run_suite(small_cfg("transforms", samples=2, seed=5))
    all_res = {c.name: c.residual for c in all_rep.cases if c.name.startswith("transforms/")}
    tr_res = {c.name: c.residual for c in tr_rep.cases}
    assert all_res == tr_res


def test_case_rng_substreams_differ():
    a = case_rng(1, "algebra", 0).integers(0, 2**31)
    b = case_rng(1, "algebra", 1).integers(0, 2**31)
    c = case_rng(1, "diffop", 0).integers(0, 2**31)
    assert len({int(a), int(b), int(c)}) == 3


def test_forced_failure_via_tolerance():
    rep = run_suite(small_cfg("transforms", tol_exact=1e-30))
    assert rep.failed > 0


def test_default_suites_pass():
    for suite in SUITE_NAMES:
        rep = run_suite(small_cfg(suite, samples=3))
        failed = [c.name for c in rep.cases if not c.passed]
        assert not failed, f"{suite}: {failed}"


# -- convergence ------------------------------------------------------------------

def test_run_convergence_poly_ratio_band():
    rows = run_convergence("poly", [1e-3, 5e-4], seed=42)
    assert rows[0].ratio is not None
    assert 3.2 <= rows[0].ratio <= 4.8
    assert rows[-1].ratio is None
    assert convergence_ok(rows)


def test_run_convergence_planewave_ratio_band():
    rows = run_convergence("planewave", [1e-3, 5e-4], seed=42)
    assert 3.2 <= rows[0].ratio <= 4.8


def test_run_convergence_constant_field_reports_not_applicable():
    const = PolynomialField.constant(Paravector(1.0, (1.0, 2.0, 3.0)))
    rows = run_convergence("poly", [1e-3, 5e-4], seed=1, fields=[const])
    assert all(r.max_error == 0.0 for r in rows)
    assert all(r.ratio is None for r in rows)
    assert convergence_ok(rows)


def test_run_convergence_validation():
    with pytest.raises(ConfigError):
        run_convergence("bogus", [1e-3, 5e-4])
    with pytest.raises(ConfigError):
        run_convergence("poly", [1e-3])
    with pytest.raises(ConfigError):
        run_convergence("poly", [5e-4, 1e-3])
    with pytest.raises(ConfigError):
        run_convergence("poly", [1e-3, 0.0])
    with pytest.raises(ConfigError):
        run_convergence("poly", [math.inf, 1e-3])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_convergence_ok_band_check():
    rows = [ConvergenceRow(1e-3, 1e-6, 9.0), ConvergenceRow(5e-4, 1.1e-7, None)]
    assert not convergence_ok(rows)  # 9.0 is far from the predicted 4.0
    rows = run_convergence("poly", [1e200, 1e199])  # overflows to NaN errors
    assert math.isnan(rows[0].max_error)
    assert not convergence_ok(rows)


class _SteepY(Field):
    """A field whose exact y-partial is 1.5 times too large."""

    def __init__(self, inner):
        self.inner = inner
        self._init_base(inner.depth + 1)

    def _value(self, x):
        return self.inner._value(x)

    def _partial(self, c):
        part = self.inner.partial(c)
        return LeftMulField(Paravector(1.5), part) if c == 2 else part


def test_convergence_ok_rejects_flat_error():
    steps = [0.1, 0.0962, 0.0925444, 0.089]
    good = run_convergence("poly", steps, seed=42)
    assert convergence_ok(good)
    broken = [_SteepY(random_field(np.random.default_rng(i))) for i in range(3)]
    rows = run_convergence("poly", steps, seed=42, fields=broken)
    errors = [r.max_error for r in rows]
    assert min(errors) > 0.5 * max(errors)  # the error does not fall with h
    # every adjacent ratio sits inside its +-20% band, so only the
    # whole-sweep order shows that nothing converges
    for cur, nxt in zip(rows, rows[1:]):
        assert 0.8 * (cur.h / nxt.h) ** 2 <= cur.ratio <= 1.2 * (cur.h / nxt.h) ** 2
    assert not convergence_ok(rows)


# -- CLI ---------------------------------------------------------------------------

def test_cli_check_passes(capsys):
    rc = main(["check", "algebra", "--seed", "42", "--samples", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out and "failed=0" in out


def test_cli_json_deterministic(capsys):
    argv = ["check", "algebra", "--seed", "42", "--samples", "3", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")
    json.loads(first)


def test_cli_forced_failure_exit_code():
    assert main(["check", "transforms", "--samples", "2", "--tol-exact", "1e-30"]) == 1


def test_cli_unknown_suite_exit_code(capsys):
    assert main(["check", "bogus"]) == 2
    capsys.readouterr()


def test_cli_bad_samples_exit_code(capsys):
    assert main(["check", "algebra", "--samples", "0"]) == 2
    capsys.readouterr()


def test_cli_non_finite_step_exit_code(capsys):
    assert main(["check", "transforms", "--step", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_overflowing_step_fails_with_strict_json(capsys):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert main(["check", "diffop", "--step", "1e200", "--json", "--verbose"]) == 1
    obj = json.loads(capsys.readouterr().out, parse_constant=reject)
    case = next(c for c in obj["cases"] if c["name"] == "diffop/numeric-agreement")
    assert case["pass"] is False and case["residual"] is None


def test_cli_tolerance_overflow_exit_code(capsys):
    assert main(["check", "algebra", "--tol-exact", "1e308", "--samples", "2"]) == 2
    assert main(["check", "algebra", "--tol-numeric", "1e308", "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_crashed_case_fails_and_the_rest_run(capsys):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    argv = ["check", "transforms", "--step", "1e300", "--samples", "3", "--json"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    obj = json.loads(captured.out, parse_constant=reject)
    assert len(obj["cases"]) == 13
    case = next(c for c in obj["cases"] if c["name"] == "transforms/div-left-transport-numeric")
    assert case["pass"] is False and case["residual"] is None
    assert "error: transforms/div-left-transport-numeric: ValueError" in captured.err
    assert "Traceback" not in captured.err
    assert obj["passed"] == 8  # the exact-mode cases are unaffected


def test_assembly_oracle_catches_a_wrong_assembly(monkeypatch):
    from paracalc import diffops

    right = diffops.assemble_div

    def flipped_curl(d):
        out = right(d)
        out[1] = d[1, 0] + d[0, 1] - 1j * (d[3, 2] - d[2, 3])
        return out

    monkeypatch.setattr(diffops, "assemble_div", flipped_curl)
    rep = run_suite(small_cfg("diffop"))
    case = next(c for c in rep.cases if c.name == "diffop/assembly-matches-oracle")
    assert not case.passed


def test_cli_observer_rotation_seed3_passes(capsys):
    # Ill-conditioned rotations make both sides ~1e3; the residual is relative.
    assert main(["check", "transforms", "--seed", "3", "--samples", "50"]) == 0
    capsys.readouterr()


def test_cli_convergence(capsys):
    rc = main(["convergence", "--field", "poly", "--steps", "1e-3,5e-4"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "max_error" in out and "n/a" in out


def test_cli_convergence_bad_steps(capsys):
    assert main(["convergence", "--field", "poly", "--steps", "1e-3"]) == 2
    assert main(["convergence", "--field", "poly", "--steps", "5e-4,1e-3"]) == 2
    assert main(["convergence", "--field", "poly", "--steps", "abc"]) == 2
    capsys.readouterr()


def test_cli_verbose_table(capsys):
    rc = main(["check", "algebra", "--samples", "2", "--verbose"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "components:" in out


def test_numeric_transform_cases_share_exact_substreams():
    from paracalc import harness

    cases = harness._transforms_cases()
    by_name = {c.name: c for c in cases}
    order = [c.name for c in cases]
    for exact_name in ("div-left-transport", "grad-left-transport",
                       "div-right-transport", "grad-right-transport",
                       "right-factor"):
        numeric = by_name[f"{exact_name}-numeric"]
        assert numeric.substream == order.index(f"{exact_name}-exact")
