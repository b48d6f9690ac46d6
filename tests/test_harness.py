import dataclasses
import json
import math
import tracemalloc
import warnings

import pytest

import numpy as np
from hypothesis import given, settings, strategies as st

from paracalc import (
    harness,
    kernels,
    suite_algebra,
    suite_diffop,
    suite_maxwell,
    suite_transforms,
    suite_wave,
)
from paracalc.algebra import (
    IDENTITY,
    Event,
    Paravector,
    act_left,
    act_right,
    det,
    inverse,
    mul,
    reverse,
)
from paracalc.cli import main
from paracalc.transforms import InvarianceForm, form_point
from paracalc.diffops import EXACT, bundle, central_differences, max_partial_errors
from paracalc.electromag import PhysConstants
from paracalc.fields import (
    Field,
    _random_complexes,
    random_event,
    random_field,
    random_plane_wave,
)
from paracalc.harness import (
    ConfigError,
    SUITE_NAMES,
    SuiteConfig,
    case_rng,
    Worst,
    report_to_json,
    run_suite,
)
from paracalc.convergence import ConvergenceRow, convergence_ok, run_convergence

from util import (
    block_of,
    central_difference,
    conjugate_rotate,
    gauss_slice_draw,
    lorenz_gauge_potential,
    maxwell_event,
    normalize_value,
    null_plane_wave,
    random_orthogonal,
    random_paravector,
    random_rows,
    random_scalar_field,
    random_wave_row,
    rows,
    sample_field,
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
    """Worst.offer as a loop over the rows of a stack: the reference."""

    def __init__(self):
        self.value = 0.0
        self.components = np.zeros(4, np.complex128)

    def offer(self, diff):
        rows = np.atleast_2d(np.asarray(diff, dtype=np.complex128))
        best = None
        for k, m in enumerate(np.abs(rows).max(axis=1).tolist()):
            if m >= self.value or math.isnan(m):
                self.value, best = m, k
        if best is not None:
            self.components = rows[best].copy()


def assert_same_worst(got, want):
    assert got.value == want.value or math.isnan(got.value) and math.isnan(want.value)
    assert type(got.value) is float
    assert got.components.tobytes() == want.components.tobytes()


def test_worst_offer_of_a_stack_is_its_rows_in_turn():
    rng = np.random.default_rng(6)
    # ties at the maximum, NaN rows, all-zero rows and signed zeros
    pool = [0.0, -0.0, 0.5, 1.0, -1.0, math.inf, math.nan]
    for _ in range(600):
        n = int(rng.integers(1, 12))
        rows = rng.choice(pool, size=(n, 3), p=[0.3, 0.1, 0.2, 0.2, 0.12, 0.02, 0.06])
        rows = rows + 1j * rng.choice([0.0, -0.0], size=(n, 3))
        if rng.random() < 0.5:  # a last column that tells rows apart
            rows = np.column_stack([rows, 0.01j * np.arange(n)])
        want, got = LoopWorst(), Worst()
        for row in rows:
            want.offer(row)
        cuts = np.sort(rng.integers(0, n + 1, size=2))
        for block in np.split(rows, cuts):  # blocks in turn, empty ones too
            got.offer(block)
        assert_same_worst(got, want)


def test_worst_offer_edge_cases():
    def offered(*stacks):
        got, want = Worst(), LoopWorst()
        for stack in stacks:
            got.offer(stack)
            want.offer(stack)
        assert_same_worst(got, want)
        return got

    nan, z = math.nan, -0.0
    assert offered([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]]).components.tolist() == [2.0, 1.0]
    assert offered([[0.0, 0.0], [z, 0.0], [0.0, z]]).components.tobytes() == \
        np.array([0.0, z], np.complex128).tobytes()  # all zero: the last row
    w = offered([[1.0, 0.0], [nan, 3.0], [2.0, 0.0], [nan, 4.0], [5.0, 0.0]])
    assert math.isnan(w.value) and w.components[1] == 4.0  # the last NaN row
    w = offered([[nan, 1.0]], [[9.0, 9.0]], np.zeros((0, 2)), [[7.0, 7.0]])
    assert math.isnan(w.value) and w.components[1] == 1.0  # a held NaN sticks
    assert offered([[3.0, 0.0]], [[1.0, 1.0]]).components.tolist() == [3.0, 0.0]


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

    def event(rng):  # random_event
        return Event.from_data(_random_complexes(rng, 2.0, 4))

    def orthogonal_unit(rng):
        lam = normalize_value(draw(rng))  # random_orthogonal
        return [mul(lam, reverse(lam)).data - IDENTITY.data]

    def action_consistency(rng):
        g, x = draw(rng), event(rng)
        return [act_left(g, x).data - kernels.pv_mul(g.data, x.data),
                act_right(x, g).data - kernels.pv_mul(x.data, g.data)]

    def rotation_round_trip(rng):
        lam = normalize_value(draw(rng))
        x = event(rng)
        back = conjugate_rotate(reverse(lam), conjugate_rotate(lam, x))
        return [back.data - x.data]

    def loop(sample, k=20):
        def run(rng, cfg):
            w = LoopWorst()
            for _ in range(k * cfg.samples):
                for diff in sample(rng):
                    w.offer(diff)
            return w
        return run

    return {"associativity": loop(associativity),
            "reversion-antiautomorphism": loop(reversion),
            "det-multiplicativity": loop(det_mult),
            "inverse-identity": loop(inverse_identity),
            "orthogonal-unit": loop(orthogonal_unit, 1),
            "action-matches-product": loop(action_consistency, 1),
            "rotation-round-trip": loop(rotation_round_trip, 1)}


def test_blocked_algebra_cases_match_the_per_sample_loop(monkeypatch):
    attempts = []
    loop_runs = loop_algebra_runs(attempts)
    blocked = suite_algebra.cases()
    assert {c.name for c in blocked} >= set(loop_runs)

    def loop_cases():
        return [dataclasses.replace(c, run=loop_runs[c.name]) if c.name in loop_runs else c
                for c in blocked]

    # the four largest cases take 20 * samples samples: 13 and 26 end the last
    # block mid-way; blocks of 5 end the other three's blocks mid-way too
    for seed, samples in [*((s, 13) for s in range(20)), (20, 26), (21, 1), (22, 13)]:
        cfg = small_cfg("algebra", samples=samples, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(harness, "BLOCK", 5 if seed == 22 else harness.BLOCK)
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


def test_convergence_ok_band_check():
    rows = [ConvergenceRow(1e-3, 1e-6, 9.0), ConvergenceRow(5e-4, 1.1e-7, None)]
    assert not convergence_ok(rows)  # 9.0 is far from the predicted 4.0
    rows = run_convergence("poly", [1e200, 1e199])  # overflows to NaN errors
    assert math.isnan(rows[0].max_error)
    assert not convergence_ok(rows)


def _steep_y(monkeypatch):
    """Make every exact y-partial 1.5 times too large; values are untouched."""
    partial = Field.partial

    def steep(f, coord):
        d = partial(f, coord)
        return d.left_mul(Paravector(1.5)) if coord == 2 else d

    monkeypatch.setattr(Field, "partial", steep)


def test_convergence_ok_rejects_flat_error(monkeypatch):
    steps = [0.1, 0.0962, 0.0925444, 0.089]
    good = run_convergence("poly", steps, seed=42)
    assert convergence_ok(good)
    broken = [random_field(np.random.default_rng(i)) for i in range(3)]
    _steep_y(monkeypatch)
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
            assert got.shape == (len(xs), 4, 4)
            for p, x in enumerate(xs):
                for c in range(4):
                    want = central_difference(value_fn, x, c, h)
                    assert got[p, :, c].tobytes() == want.tobytes(), (h, p, c)


def _max_partial_errors_per_point(fields, points, steps):
    """The per-point loop that diffops.max_partial_errors stacks: the reference."""
    exact = [(f, x, c, bundle(f, Event.from_data(x), EXACT)[:, c])
             for f in fields for x in points for c in range(4)]
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
    # several passes for both kinds: a pass of a dense cubic takes one step,
    # of plane waves several
    ("poly", list(0.08 * 0.96 ** np.arange(17))),
    ("planewave", list(0.08 * 0.96 ** np.arange(17))),
])
def test_stacked_partial_errors_match_the_per_point_loop(kind, steps, monkeypatch):
    if kind == "steep-y":
        _steep_y(monkeypatch)
    for seed in (42, 3, 5):
        fields, points = _convergence_draws("poly" if kind == "steep-y" else kind, seed)
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
    # a step of a later pass: 2..20 move 1e16 (its spacing is 2), 0.5 does not
    points[1][2], points[2][0] = 1e16 + 0.5j, 1.0
    steps = [float(h) for h in range(20, 1, -1)] + [0.5, 0.25]
    with pytest.raises(ValueError) as ref:
        _max_partial_errors_per_point(fields, points, steps)
    with pytest.raises(ValueError) as got:
        max_partial_errors(fields, points, steps)
    assert str(got.value) == str(ref.value) == "step 0.5 does not move coordinate 2 from (1e+16+0.5j)"


@pytest.mark.parametrize("kind", ["poly", "planewave"])
def test_convergence_peak_memory_does_not_grow_with_steps(kind):
    def peak(count):
        steps = list(0.05 * 0.99 ** np.arange(count))
        tracemalloc.start()
        try:
            run_convergence(kind, steps, seed=42)
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


def test_cli_overflowing_step_fails_with_strict_json(capsys):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    assert main(["check", "diffop", "--step", "1e200", "--json", "--verbose"]) == 1
    obj = json.loads(capsys.readouterr().out, parse_constant=reject)
    case = next(c for c in obj["cases"] if c["name"] == "diffop/numeric-agreement")
    assert case["pass"] is False and case["residual"] is None


@pytest.mark.parametrize("argv", [
    ["check", "diffop", "--step", "1e300", "--samples", "10", "--json", "--verbose"],
    ["convergence", "--field", "planewave", "--steps", "1e300,1e299"],
], ids=["check-diffop", "convergence"])
def test_cli_overflow_raises_no_numpy_warning(capsys, argv):
    # overflow reads as a failed case or table; numpy warnings would print
    # source paths on stderr, so they are silenced, and none is raised
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = main(argv), capsys.readouterr().out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == quiet and code == 1
    assert captured.err == ""


def test_cli_tolerance_overflow_exit_code(capsys):
    assert main(["check", "algebra", "--tol-exact", "1e308", "--samples", "2"]) == 2
    assert main(["check", "algebra", "--tol-numeric", "1e308", "--samples", "2"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 2 and "Traceback" not in err


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
    # each drawn event has a nonzero time, the first coordinate differenced
    assert [line.split(" from ")[0] for line in captured.err.splitlines()] == [
        f"error: {c['name']}: ValueError: step 1e-300 does not move coordinate 0" for c in failed
    ]


def test_cli_gauss_law_slice_reads_the_step(capsys):
    assert main(["check", "maxwell", "--step", "1e-300", "--samples", "2", "--json"]) == 1
    captured = capsys.readouterr()
    obj = json.loads(captured.out)
    failed = [c["name"] for c in obj["cases"] if not c["pass"]]
    assert failed == ["maxwell/gauss-law-slice"] and obj["passed"] == 7
    # the slice sits at t = 0.0, which t +- 1e-300 moves, so x is the first stuck coordinate
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(
        "error: maxwell/gauss-law-slice: ValueError: step 1e-300 does not move coordinate 1 from ")


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
    from paracalc import diffops, transforms

    right = diffops.assemble_div

    def flipped_curl(d):
        out = right(d)
        out[..., 1] = d[..., 1, 0] + d[..., 0, 1] - 1j * (d[..., 3, 2] - d[..., 2, 3])
        return out

    # the case assembles in transforms.block_assembly_sides, which binds
    # diffops.assemble_div at import: a wrong formula there reaches both
    for module in (diffops, transforms):
        monkeypatch.setattr(module, "assemble_div", flipped_curl)
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
    cases = suite_transforms.cases()
    by_name = {c.name: c for c in cases}
    order = [c.name for c in cases]
    for exact_name in ("div-left-transport", "grad-left-transport",
                       "div-right-transport", "grad-right-transport",
                       "right-factor"):
        numeric = by_name[f"{exact_name}-numeric"]
        assert numeric.substream == order.index(f"{exact_name}-exact")


# -- block draws -----------------------------------------------------------------

def _per_sample_draws(name, rng, count, attempts):
    """The draws of a block case, one sample at a time, as the per-sample loop
    took them: the reference for the block draws.  Each sample is the tuple
    of what the case's block evaluator receives; ``attempts`` collects the
    candidates each plane-wave draw's two loops took."""
    singular = Paravector(1.0 + 0.5j, (1.0 + 0.5j, 0.0, 0.0))
    k2 = PhysConstants(c=2.0) if name.startswith("c2-") else PhysConstants()
    out = []
    for i in range(count):
        if name.startswith("form"):
            lam, f, X = random_orthogonal(rng), random_field(rng), random_event(rng)
            form = InvarianceForm(int(name[4]))
            out.append((lam.data, block_of(f), form_point(form, rows(lam), rows(X))[0]))
        elif name == "observer-rotation-exact":
            lam, f = random_orthogonal(rng), sample_field(rng, i)
            out.append((lam.data, block_of(f), conjugate_rotate(lam, random_event(rng)).data))
        elif name == "pullback-group-composition":
            g1, g2 = random_paravector(rng), random_paravector(rng)
            f = sample_field(rng, i)
            out.append((g1.data, g2.data, block_of(f), random_event(rng).data))
        elif "transport" in name or "right-factor" in name:
            g = singular if "singular" in name else random_paravector(rng)
            f = sample_field(rng, i)
            out.append((g.data, block_of(f), random_event(rng).data))
        elif name == "null-plane-wave-box":
            out.append((block_of(null_plane_wave(rng)), random_event(rng).data))
        elif name == "additivity":
            f, g = random_field(rng), sample_field(rng, i)
            out.append((block_of(f), block_of(g), random_event(rng).data))
        elif name == "scalar-product-rule":
            rho, f = random_scalar_field(rng), sample_field(rng, i)
            out.append((block_of(rho)[2][0, :, 0], block_of(f), random_event(rng).data))
        elif name == "convergence-band-deficit":
            f = sample_field(rng, i)
            out.append((block_of(f), np.array([random_event(rng).data for _ in range(10)])))
        elif "plane-wave" in name:
            c, k = random_wave_row(rng, k2, attempts)
            out.append(((None, k[None], c[None]), maxwell_event(rng).data))
        elif name in ("polynomial-gauge-scalar", "factorization-chain"):
            out.append((block_of(lorenz_gauge_potential(rng)), maxwell_event(rng).data))
        elif name == "gauss-law-slice":
            pot, X = gauss_slice_draw(rng)
            out.append((block_of(pot), X.data))
        else:  # the diffop cases of one field and one event
            out.append((block_of(sample_field(rng, i)), random_event(rng).data))
    return out


def _record_block_draws(monkeypatch, seen):
    """Replace the block evaluators the suites call by ones that record
    their inputs, in the per-sample layout, and return zero sides."""
    def zeros(x):
        return np.zeros((len(x), 4), np.complex128)

    def record(*draws, result):
        def fn(*args, **kw):
            seen.append(tuple(args[i] for i in draws))
            return result(args[draws[-1]])
        return fn

    pair = lambda x: (zeros(x), zeros(x))
    for name, fn in [
        ("transport_sides", record(2, 3, 4, result=pair)),
        ("right_factor_sides", lambda f, g, x, mode=EXACT: (
            seen.append((g, f, x)) or (pair(x), pair(x)))),
        ("observer_rotation_sides", record(1, 0, 2, result=pair)),
        ("pullback_composition_sides", record(0, 1, 2, 3, result=pair)),
        ("wave_invariance_sides", record(2, 1, 3, result=pair)),
        ("block_assembly_sides", record(0, 1, result=lambda x: (pair(x), pair(x)))),
        ("block_numeric_partials", lambda f, x, *steps: seen.append((f, x)) or (
            *[np.ones(x.shape + (4,))] * len(steps), np.zeros(x.shape + (4,)), np.zeros(len(x)))),
        ("block_factorization_sides", record(0, 1, result=lambda x: (*pair(x), zeros(x)))),
        ("block_factorization_numeric_sides", record(0, 1, result=pair)),
        ("jets", record(0, 1, result=lambda x: [zeros(x), *[np.zeros((len(x), 4, 4))] * 2])),
        ("block_additivity_sides", record(0, 1, 2, result=pair)),
        ("block_leibniz_sides", record(0, 1, 2, result=pair)),
        ("block_em_from_potential", record(0, 1, result=zeros)),
        ("block_sources", record(0, 1, result=zeros)),
        ("block_wave_sides", record(0, 1, result=pair)),
        ("block_gauss_law_sides", record(0, 1, result=lambda x: (np.zeros(len(x)),) * 2)),
    ]:
        for suite in (suite_diffop, suite_transforms, suite_wave, suite_maxwell):
            if hasattr(suite, name):  # the suite that calls it
                monkeypatch.setattr(suite, name, fn)


def _arrays(draw):
    """A draw's arrays in order: a field block as its coefficients and phases."""
    out = []
    for value in draw:
        if isinstance(value, tuple):
            m, k, c = value
            assert m is None
            out += [c, np.zeros((len(c), 4), np.complex128) if k is None else k]
        else:
            out.append(np.atleast_2d(value))
    return out


def _block_cases():
    """(suite, substream, case) of every case that runs through _blocked
    and draws per sample."""
    for suite in ("diffop", "transforms", "wave", "maxwell"):
        for index, case in enumerate(harness._SUITE_BUILDERS[suite]()):
            if (suite == "wave" and not case.name[4].isdigit()  # the four wave forms
                    or case.kind == "fixed" and case.name != "convergence-band-deficit"):
                continue
            yield suite, index if case.substream is None else case.substream, case


@pytest.mark.parametrize("seed", [42, 3])
def test_block_draws_take_the_per_sample_draws(monkeypatch, seed):
    # 300 samples end the second block mid-way; the _fifth cases take 60,
    # the _times(2) ones 600, and convergence-band-deficit 6
    cfg = small_cfg("all", samples=300, seed=seed)
    names, attempts = [], []
    for suite, sub, case in _block_cases():
        seen = []
        with monkeypatch.context() as m:
            _record_block_draws(m, seen)
            case.run(case_rng(seed, suite, sub), cfg)
        count = 6 if "convergence" in case.name else 60 if case.name in (
            "right-factor-singular-exact", "factorization-numeric") else 600 if case.name in (
            "assembly-matches-oracle", "numeric-agreement", "additivity", "scalar-product-rule",
            "plane-wave-gauge-scalar", "plane-wave-sources", "c2-plane-wave-gauge-scalar",
            "c2-plane-wave-sources") else 300
        want = _per_sample_draws(case.name, case_rng(seed, suite, sub), count, attempts)
        got = [np.concatenate(arrays) for arrays in zip(*map(_arrays, seen))]
        ref = [np.concatenate(arrays) for arrays in zip(*map(_arrays, want))]
        assert len(got) == len(ref) and len(got[0]) == count, case.name
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes(), case.name
        names.append(case.name)
    assert len(names) == 13 + 4 + 8 + 7
    # the plane-wave cases went through both redraw loops, the wave vector's
    # and the polarization's
    tries = np.array(attempts)
    assert len(tries) == 4 * 600 and (tries > 1).any(axis=0).all()


@pytest.mark.parametrize("suite", ["diffop", "transforms", "wave", "maxwell"])
def test_block_suites_peak_memory_does_not_grow_past_a_block(suite):
    def peak(samples):
        tracemalloc.start()
        try:
            run_suite(small_cfg(suite, samples=samples))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-use allocations
    # past BLOCK samples, every case that takes one sample per --samples
    # evaluates full blocks; drawing all samples at once would grow with them
    assert peak(600) - peak(300) < 128 * 1024


@pytest.mark.parametrize("block", [1, 7])
def test_reports_do_not_depend_on_the_block_size(monkeypatch, capsys, block):
    # every row is offered in sample order, so the last row at the maximum
    # wins across block boundaries as within a block
    def report(suite):
        assert main(["check", suite, "--samples", "20", "--json", "--verbose"]) == 0
        return capsys.readouterr().out

    want = {suite: report(suite) for suite in ("algebra", "diffop", "maxwell")}
    monkeypatch.setattr(harness, "BLOCK", block)
    for suite, out in want.items():
        assert report(suite) == out, suite
