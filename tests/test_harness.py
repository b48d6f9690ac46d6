import dataclasses
import json
import math
import tracemalloc

import pytest

import numpy as np
from hypothesis import given, settings, strategies as st

from paracalc import harness
from paracalc.algebra import IDENTITY, Paravector, det, inverse, mul, reverse
from paracalc.cli import main
from paracalc.diffops import central_differences, max_partial_errors
from paracalc.fields import (
    Field,
    _random_complexes,
    central_difference,
    random_event,
    random_field,
    random_plane_wave,
)
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

from util import random_rows


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
    for key in ("tol_exact", "tol_numeric"):  # the scaled threshold overflows or underflows
        for bad in (1e308, 5e-324):
            with pytest.raises(ConfigError):
                SuiteConfig(suite="algebra", **{key: bad})


_EDGE_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, -1e-5, 1e308, 5e-324, 1e-5, 1e-10]
)


@settings(max_examples=300, deadline=None)
@given(
    tol_exact=st.floats() | _EDGE_FLOATS,
    tol_numeric=st.floats() | _EDGE_FLOATS,
    h=st.floats() | _EDGE_FLOATS,
    samples=st.integers(),
    seed=st.integers(),
)
def test_accepted_config_gives_every_case_a_usable_threshold(tol_exact, tol_numeric, h,
                                                             samples, seed):
    from paracalc import harness

    try:
        cfg = SuiteConfig(suite="all", seed=seed, samples=samples,
                          tol_exact=tol_exact, tol_numeric=tol_numeric, h=h)
    except ConfigError:
        return
    for build in harness._SUITE_BUILDERS.values():  # the cases are built, never run
        for case in build():
            thr = case.threshold(cfg)
            if case.kind == "fixed":  # floor deficits and exact values: always 0
                assert thr == case.base_threshold
            else:
                assert math.isfinite(thr) and thr > 0, (case.name, thr)


def test_worst_keeps_non_finite_samples():
    w = Worst()
    for sample in (1.0, math.nan, 2.0):
        w.offer([sample])
    assert math.isnan(w.value)
    w = Worst()
    w.floor_deficit(math.nan, 1.0)
    assert math.isnan(w.value)


class LoopWorst:
    """Worst.offer as it took one difference at a time: the reference."""

    def __init__(self):
        self.value = 0.0
        self.components = np.zeros(4, np.complex128)

    def offer(self, diff):
        diff = np.atleast_1d(np.asarray(diff, dtype=np.complex128))
        m = float(np.max(np.abs(diff)))
        if m >= self.value or math.isnan(m):
            self.value = m
            self.components = diff


def test_worst_offer_of_a_stack_is_its_rows_in_turn():
    rng = np.random.default_rng(6)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        # ties at the maximum, NaN rows, and a last column that tells rows apart
        rows = rng.choice([0.0, 0.5, 1.0, math.nan], size=(n, 3), p=[0.3, 0.3, 0.35, 0.05])
        rows = np.column_stack([rows + 0j, 0.01j * np.arange(n)])
        want = LoopWorst()
        for row in rows:
            want.offer(row)
        got = Worst()
        cuts = np.sort(rng.integers(0, n + 1, size=2))
        for block in np.split(rows, cuts):  # blocks in turn, empty ones too
            got.offer(block)
        assert got.value == want.value or math.isnan(got.value) and math.isnan(want.value)
        assert got.components.tobytes() == want.components.tobytes()


def loop_algebra_runs(attempts):
    """The blocked algebra cases as the per-sample loop ran them: the reference.

    Each sample draws its paravectors one at a time, redrawing each until its
    |det| reaches 0.1, and offers its differences one at a time.
    ``attempts`` collects the attempts each draw took.
    """
    def draw(rng):
        n = 1
        while True:
            p = Paravector.from_data(_random_complexes(rng, 2.0, 4))
            if abs(det(p)) >= 0.1:
                attempts.append(n)
                return p
            n += 1

    def rel(lhs, rhs):
        lhs = np.atleast_1d(np.asarray(lhs, dtype=np.complex128))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=np.complex128))
        return (lhs - rhs) / max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))

    def associativity(rng):
        a, b, c = (draw(rng) for _ in range(3))
        return [rel(mul(mul(a, b), c).data, mul(a, mul(b, c)).data)]

    def reversion(rng):
        a, b = draw(rng), draw(rng)
        return [rel(reverse(mul(a, b)).data, mul(reverse(b), reverse(a)).data)]

    def det_mult(rng):
        a, b = draw(rng), draw(rng)
        return [rel([det(mul(a, b))], [det(a) * det(b)])]

    def inverse_identity(rng):
        a = draw(rng)
        return [mul(a, inverse(a)).data - IDENTITY.data, mul(inverse(a), a).data - IDENTITY.data]

    def loop(sample):
        def run(rng, cfg):
            w = LoopWorst()
            for _ in range(20 * cfg.samples):
                for diff in sample(rng):
                    w.offer(diff)
            return w
        return run

    return {"associativity": loop(associativity),
            "reversion-antiautomorphism": loop(reversion),
            "det-multiplicativity": loop(det_mult),
            "inverse-identity": loop(inverse_identity)}


def test_blocked_algebra_cases_match_the_per_sample_loop(monkeypatch):
    attempts = []
    loop_runs = loop_algebra_runs(attempts)
    blocked = harness._algebra_cases()
    assert {c.name for c in blocked} >= set(loop_runs)

    def loop_cases():
        return [dataclasses.replace(c, run=loop_runs[c.name]) if c.name in loop_runs else c
                for c in blocked]

    # a case takes 20 * samples samples: 13 and 26 end the last block mid-way
    for seed, samples in [*((s, 13) for s in range(20)), (20, 26), (21, 1)]:
        cfg = small_cfg("algebra", samples=samples, seed=seed)
        got = report_to_json(run_suite(cfg), verbose=True)
        with monkeypatch.context() as m:
            m.setitem(harness._SUITE_BUILDERS, "algebra", loop_cases)
            want = report_to_json(run_suite(cfg), verbose=True)
        assert got == want, (seed, samples)
    assert max(attempts) > 1  # some draw went through the redraw loop


def test_algebra_peak_memory_does_not_grow_with_samples():
    def peak(samples):
        tracemalloc.start()
        try:
            run_suite(small_cfg("algebra", samples=samples))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-use allocations
    # one unblocked case at 500 samples stacks 10000 samples, several MB of arrays
    assert peak(500) - peak(50) < 128 * 1024


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
    def entries(suite):  # verbose JSON case entries: residual and components
        text = report_to_json(run_suite(small_cfg(suite, samples=2, seed=5)), verbose=True)
        return [json.dumps(c) for c in json.loads(text)["cases"]]

    assert entries("all") == [e for suite in SUITE_NAMES for e in entries(suite)]


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
    const = Field.constant(Paravector(1.0, (1.0, 2.0, 3.0)))
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
    with pytest.raises(ConfigError, match="seed must be a natural number"):
        run_convergence("poly", [1e-3, 5e-4], seed=-1)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_convergence_ok_band_check():
    rows = [ConvergenceRow(1e-3, 1e-6, 9.0), ConvergenceRow(5e-4, 1.1e-7, None)]
    assert not convergence_ok(rows)  # 9.0 is far from the predicted 4.0
    rows = run_convergence("poly", [1e200, 1e199])  # overflows to NaN errors
    assert math.isnan(rows[0].max_error)
    assert not convergence_ok(rows)


class _SteepY:
    """Values of a field, but an exact y-partial 1.5 times too large."""

    def __init__(self, inner):
        self.inner = inner

    def _value(self, x):
        return self.inner._value(x)

    def partial(self, c):
        part = self.inner.partial(c)
        return part.left_mul(Paravector(1.5)) if c == 2 else part


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


@pytest.mark.parametrize("value_fn", [
    Field.sum(random_field(np.random.default_rng(1)),
              random_plane_wave(np.random.default_rng(2)))._value,
    # the sign bits of the points: a -0.0 that a shift turned into +0.0 shows
    lambda x: np.signbit(x.real) + 2j * np.signbit(x.imag),
])
def test_stacked_central_differences_match_central_difference_bit_for_bit(value_fn):
    rng = np.random.default_rng(9)
    xs = random_rows(rng, 20)  # spread rows, then exact and signed-zero rows
    for h in (0.5, 1e-3, 1e-5):
        with np.errstate(all="ignore"):  # the spread rows reach exp overflow
            got = central_differences(value_fn, xs, h)
            assert got.shape == (4 * len(xs), 4)
            for p, x in enumerate(xs):
                for c in range(4):
                    want = central_difference(value_fn, x, c, h)
                    assert got[4 * p + c].tobytes() == want.tobytes(), (h, p, c)


def _max_partial_errors_per_point(fields, points, steps):
    """The per-point loop that diffops.max_partial_errors stacks: the reference."""
    exact = [(f, x, c, f.partial(c)._value(x)) for f in fields for x in points for c in range(4)]
    errors = []
    for h in steps:
        worst = 0.0
        for f, x, c, value in exact:
            num = central_difference(f._value, x, c, h)
            worst = float(np.maximum(worst, np.max(np.abs(num - value))))
        errors.append(worst)
    return errors


def _convergence_draws(kind, seed):
    """The fields and points run_convergence draws."""
    rng = case_rng(seed, "convergence", 0)
    draw = random_field if kind == "poly" else random_plane_wave
    fields = [draw(rng) for _ in range(3)]
    return fields, [random_event(rng).data for _ in range(20)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kind, steps", [
    ("poly", [1e-3, 5e-4]),
    ("planewave", [1e-3, 5e-4]),
    ("poly", [0.1, 0.0962, 0.0925444, 0.089]),
    ("planewave", [0.0755911, 0.0729079, 0.0703188, 0.00102491]),
    ("poly", [1e200, 1e100]),  # overflows: the errors read nan
    ("planewave", [400.0, 300.0]),  # exp overflows
    ("steep-y", [0.1, 0.0962, 0.0925444, 0.089]),
])
def test_stacked_partial_errors_match_the_per_point_loop(kind, steps):
    for seed in (42, 3, 5):
        fields, points = _convergence_draws("poly" if kind == "steep-y" else kind, seed)
        if kind == "steep-y":
            fields = [_SteepY(f) for f in fields]
        got = max_partial_errors(fields, points, steps)
        ref = _max_partial_errors_per_point(fields, points, steps)
        assert [e.hex() for e in got] == [e.hex() for e in ref]
    if steps[0] == 1e200:
        assert math.isnan(got[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacked_partial_errors_name_the_point_that_does_not_move():
    fields, points = _convergence_draws("poly", 7)
    points = [x.copy() for x in points[:3]]
    points[1][2] = 1e300 + 0.5j  # only coordinate 2 of point 1 stays put under h = 1.0
    with pytest.raises(ValueError) as ref:
        _max_partial_errors_per_point(fields, points, [1.0])
    with pytest.raises(ValueError) as got:
        max_partial_errors(fields, points, [1.0])
    assert str(got.value) == str(ref.value)
    assert str(got.value) == "step 1.0 does not move coordinate 2 from (1e+300+0.5j)"
    points[2][0] = -1e300  # a later point stays put too: the loop names the first
    with pytest.raises(ValueError) as got:
        max_partial_errors(fields, points, [1.0])
    assert str(got.value) == str(ref.value)


def test_convergence_peak_memory_does_not_grow_with_steps():
    def peak(count):
        steps = list(0.05 * 0.99 ** np.arange(count))
        tracemalloc.start()
        try:
            run_convergence("poly", steps, seed=42)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # first-use allocations
    short, long = peak(12), peak(600)
    # stacking every step at once would take about 10 MB at 600 steps
    assert long - short <= 128 * 1024
    assert long < 1024 * 1024


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


def test_cli_step_that_does_not_move_the_stencil_fails(capsys):
    # 2 + 1e-300 == 2: differencing would read every derivative as 0
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert main(["check", "transforms", "--step", "1e-300", "--samples", "2", "--json"]) == 1
    captured = capsys.readouterr()
    obj = json.loads(captured.out, parse_constant=reject)
    failed = [c for c in obj["cases"] if not c["pass"]]
    assert [c["name"].split("/")[1] for c in failed] == [
        "div-left-transport-numeric", "grad-left-transport-numeric",
        "div-right-transport-numeric", "grad-right-transport-numeric",
        "right-factor-numeric",
    ]
    assert all(c["residual"] is None for c in failed)
    assert captured.err.count("error:") == 5 and "does not move" in captured.err


def test_cli_gauss_law_slice_reads_the_step(capsys):
    assert main(["check", "maxwell", "--step", "1e-300", "--samples", "2", "--json"]) == 1
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    failed = [c["name"] for c in obj["cases"] if not c["pass"]]
    assert failed == ["maxwell/gauss-law-slice"] and obj["passed"] == 7
    assert "does not move" in captured.err


def test_cli_convergence_step_that_does_not_move_exit_code(capsys):
    assert main(["convergence", "--field", "poly", "--steps", "1e-300,1e-301"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: step 1e-300 does not move")


def test_cli_convergence_refuses_a_negative_seed(capsys):
    assert main(["convergence", "--field", "poly", "--steps", "1e-3,5e-4", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: seed must be a natural number\n"


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


def test_cli_scalar_product_rule_seed40_passes(capsys):
    # The worst draw has |div4[rho f]| ~ 6e3, so its rounding exceeds 1e-12
    # absolutely; the residual is relative, and the threshold stays 1e-12.
    assert main(["check", "diffop", "--seed", "40"]) == 0
    out = capsys.readouterr().out
    assert "scalar-product-rule" in out and "threshold=1.000e-12  PASS" in out


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
