"""paracalc benchmark: the CLI end to end in fresh processes, and layer by layer.

    python3 perfbench/run.py --workload check-all --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each exists):

* ``check-all``          ``check all --json --verbose --samples 20``
* ``check-algebra``      ``check algebra --json --samples 200``
* ``convergence-sweep``  ``convergence --field poly`` and ``--field planewave``
                         over one 120-step, strictly decreasing step list

A *round* runs the workload's CLI invocations once each, every one in a fresh
``python3 -m paracalc.cli`` process; with ``--trace 0`` each round also times
one fresh ``import paracalc.cli``, a fresh perfbench/calibrate.py runs before
the first round and after every round, and the reported times are scaled to
the host speed at which calibrate.py takes ``CALIBRATION_REF_S``.  Rounds
repeat, one process at a time, while the next round is expected to end within
``--seconds``, and at least twice.  ``--trace 1`` runs the same rounds under
perfbench/tracer.py and reports per-layer counts and times instead.

``--seed`` seeds the benchmark's own inputs: the Pauli and monomial-rule
oracle draws and the convergence step list.  The CLI itself runs at its
default seed (42) unless ``--program-seed`` says otherwise; ``--samples``
overrides a check workload's sample count.  Every output is judged by
perfbench/checks.py after timing ends.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  Raw records go to
perfbench/results/.  Exit code 0 when the outputs are correct, 1 when they
are not, 2 when the checkout's paracalc cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from statistics import median
from typing import Callable, List, Optional

import numpy as np

import checks
from tracer import KERNELS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

CHECK_ALL_SAMPLES = 20
CHECK_ALGEBRA_SAMPLES = 200
SWEEP_STEPS = 120
PROGRAM_SEED = 42  # the CLI's default --seed
MIN_ROUNDS = 2  # byte-identity needs a repeat
CALIBRATION_REF_S = 0.5  # calibrate.py's wall time at the reference host speed
CHILD_LIMIT_S = 150.0

WORKLOADS = ("check-all", "check-algebra", "convergence-sweep")

CLI_KINDS = {
    "check-all": ("all", CHECK_ALL_SAMPLES, True),
    "check-algebra": ("algebra", CHECK_ALGEBRA_SAMPLES, False),
}


class BenchError(RuntimeError):
    """The benchmark cannot run the checkout's program."""


@dataclass
class Invocation:
    args: List[str]  # paracalc CLI arguments
    judge: Callable  # (stdout bytes, exit code) -> checks.Verdict


def shell(args: List[str]) -> str:
    """The CLI command, as typed from the checkout's root."""
    return "PYTHONPATH=src python3 -m paracalc.cli " + shlex.join(args)


@dataclass
class Outcome:
    wall: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def sweep_steps(seed: int) -> List[str]:
    """120 geometric steps from h0 in [0.05, 0.1) with ratio q in [0.955, 0.965).

    Steps are written with 6 significant digits, as the CLI prints them, and
    stay strictly decreasing; the smallest is above 2e-4, where the error
    (~h^2) stays far above rounding noise.
    """
    rng = np.random.default_rng(abs(seed))
    h0 = 0.05 + 0.05 * rng.uniform()
    q = 0.955 + 0.01 * rng.uniform()
    steps = [format(h0 * q ** i, ".6g") for i in range(SWEEP_STEPS)]
    values = [float(s) for s in steps]
    if any(a <= b for a, b in zip(values, values[1:])):
        raise BenchError(f"step list is not strictly decreasing: {steps}")
    return steps


def workload(name: str, seed: int, program_seed: Optional[int],
             samples: Optional[int]) -> List[Invocation]:
    seed_args = [] if program_seed is None else ["--seed", str(program_seed)]
    cli_seed = PROGRAM_SEED if program_seed is None else program_seed
    if name in CLI_KINDS:
        suite, n, verbose = CLI_KINDS[name]
        n = n if samples is None else samples
        args = ["check", suite, "--json"] + (["--verbose"] if verbose else [])
        args += ["--samples", str(n)] + seed_args
        judge = partial(checks.check_report, suite=suite, seed=cli_seed, samples=n,
                        verbose=verbose)
        return [Invocation(args, judge)]
    steps = sweep_steps(seed)
    judge = partial(checks.check_convergence, steps=steps)
    return [Invocation(["convergence", "--field", kind, "--steps", ",".join(steps)]
                       + seed_args, judge) for kind in ("poly", "planewave")]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: List[str], env: dict) -> Outcome:
    """Run one child to completion; wall time and peak RSS come from wait4."""
    with open(os.devnull, "rb") as stdin, tempfile.TemporaryFile(dir=RESULTS) as out, \
            tempfile.TemporaryFile(dir=RESULTS) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=stdin, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        killer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode, out.read(),
                       err.read())


def import_checkout_paracalc():
    """Import paracalc from this checkout's src/, and fail loudly otherwise."""
    init = SRC / "paracalc" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"{init.relative_to(ROOT)} not found: run from a paracalc checkout")
    sys.path.insert(0, str(SRC))
    import paracalc

    if os.path.realpath(paracalc.__file__) != os.path.realpath(init):
        raise BenchError(f"imported paracalc from {paracalc.__file__}, not {init}")
    return paracalc


PROBE = """\
import json, os, platform
import numpy, paracalc
try:
    from paracalc.kernels import BACKEND as backend
except ImportError:
    backend = None
print(json.dumps({"paracalc": os.path.realpath(paracalc.__file__),
                  "python": platform.python_version(), "numpy": numpy.__version__,
                  "backend": backend}))
"""


def host_facts(env: dict) -> dict:
    """Facts about the interpreter the CLI children run in (also warms bytecode)."""
    out = spawn([sys.executable, "-c", PROBE], env)
    if out.code != 0:
        raise BenchError(f"probe failed: {out.stderr.decode(errors='replace')}")
    facts = json.loads(out.stdout)
    want = os.path.realpath(SRC / "paracalc" / "__init__.py")
    if facts["paracalc"] != want:
        raise BenchError(f"CLI children import paracalc from {facts['paracalc']}, not {want}")
    facts["paracalc"] = os.path.relpath(facts["paracalc"], ROOT)
    facts["nproc"] = len(os.sched_getaffinity(0))
    facts["cpu_count"] = os.cpu_count()
    facts["machine"] = platform.machine()
    facts["commit"] = git_commit()
    return facts


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def calibrate(env: dict) -> float:
    """The wall time of one fresh perfbench/calibrate.py."""
    cal = spawn([sys.executable, str(HERE / "calibrate.py")], env)
    if cal.code != 0:
        raise BenchError(f"calibrate.py failed: {cal.stderr.decode(errors='replace')}")
    return cal.wall


def measure(invocations: List[Invocation], seconds: float, env: dict, trace: bool):
    """Whole rounds, one process at a time, until the next would overrun.

    Untraced, a calibration runs before the first round and after every
    round, so that each round sits between two of them.
    """
    rounds, setup, cals, stats = [], [], [], []
    start = time.perf_counter()
    if not trace:
        cals.append(calibrate(env))
    while True:
        if trace:
            outs, round_stats = [], []
            for inv in invocations:
                path = RESULTS / f"trace-stats-{os.getpid()}.json"
                outs.append(spawn([sys.executable, str(HERE / "tracer.py"), str(path), "--"]
                                  + inv.args, env))
                try:
                    round_stats.append(json.loads(path.read_text()))
                except (OSError, ValueError) as exc:
                    raise BenchError(f"tracer wrote no stats ({exc}): "
                                     f"{outs[-1].stderr.decode(errors='replace')}") from exc
                finally:
                    path.unlink(missing_ok=True)
            stats.append(round_stats)
        else:
            imp = spawn([sys.executable, "-c", "import paracalc.cli"], env)
            if imp.code != 0:
                raise BenchError(f"import paracalc.cli failed: {imp.stderr.decode(errors='replace')}")
            setup.append(imp.wall)
            outs = [spawn([sys.executable, "-m", "paracalc.cli"] + inv.args, env)
                    for inv in invocations]
            cals.append(calibrate(env))
        rounds.append(outs)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds, setup, cals, stats


def judge(invocations: List[Invocation], rounds, env: dict):
    """Apply every output check; returns (attempted, failed, failures, problems)."""
    attempted = failed = 0
    failures, problems = {}, []
    for r, outs in enumerate(rounds):
        for inv, out, first in zip(invocations, outs, rounds[0]):
            if out.stdout != first.stdout:
                problems.append(f"round {r}: stdout of `{shell(inv.args)}` differs from round 0")
            v = inv.judge(out.stdout, out.code)
            problems += [f"round {r}: `{shell(inv.args)}`: {p}" for p in v.problems]
            if v.problems and out.stderr:
                problems.append(f"stderr: {out.stderr.decode(errors='replace')[-2000:]}")
            attempted += v.operations
            failed += len(v.failed)
            for f in v.failed:
                failures.setdefault(json.dumps(f, sort_keys=True), (inv, f))
    records = []
    for inv, f in failures.values():
        rec = dict(f, command=shell(inv.args))
        if "case" in f:
            rec["reproduce"] = _replay_case(f, env, problems)
        records.append(rec)
    return attempted, failed, records, problems


def _replay_case(f: dict, env: dict, problems: List[str]) -> str:
    """Re-run a failed case's suite on its own; it must fail with the same residual."""
    args = ["check", f["suite"], "--json", "--seed", str(f["seed"]),
            "--samples", str(f["samples"])]
    out = spawn([sys.executable, "-m", "paracalc.cli"] + args, env)
    name = f"{f['suite']}/{f['case']}"
    try:
        got = [c for c in json.loads(out.stdout)["cases"] if c["name"] == name]
    except (ValueError, KeyError, TypeError):
        got = []
    if not got or got[0]["residual"] != f["residual"] or got[0]["pass"]:
        problems.append(f"`{shell(args)}` does not reproduce {name} "
                        f"residual={f['residual']!r}")
    return shell(args)


def end_to_end(invocations, rounds, setup, cals) -> dict:
    """Medians over rounds, each round scaled by the calibrations around it."""
    per_round = [sum(o.wall for o in outs) / len(invocations) for outs in rounds]
    scale = [2 * CALIBRATION_REF_S / (a + b) for a, b in zip(cals, cals[1:])]
    return {
        "wall_s": {"value": median(w * k for w, k in zip(per_round, scale)), "unit": "s"},
        "setup_s": {"value": median(s * k for s, k in zip(setup, scale)), "unit": "s"},
        "peak_rss_mb": {"value": median(max(o.rss_mb for o in outs) for outs in rounds),
                        "unit": "MB"},
    }


COUNTS = {  # metric -> (layer, field)
    "fields.build.polys": ("fields.build", "calls"),
    "fields.partial.calls": ("fields.partial", "entries"),
    "fields.draw.calls": ("fields.draw", "calls"),
    "fields.eval.calls": ("fields.eval", "calls"),
    "kernels.poly_eval.calls": ("kernels.poly_eval", "calls"),
    "kernels.pv_mul.calls": ("kernels.pv_mul", "calls"),
    "kernels.plane_wave_eval.calls": ("kernels.plane_wave_eval", "calls"),
    "algebra.values": ("algebra.values", "calls"),
    "algebra.mul.calls": ("algebra.mul", "calls"),
    "diffops.bundle.calls": ("diffops.bundle", "calls"),
    "diffops.box4.calls": ("diffops.box4", "calls"),
    "transforms.residual.calls": ("transforms.residual", "calls"),
    "electromag.calls": ("electromag", "calls"),
    "harness.offers": ("harness.offer", "calls"),
}
BUSY = ("fields.build", "fields.partial", "fields.draw", "fields.eval",
        "kernels.poly_eval", "kernels.pv_mul", "kernels.plane_wave_eval",
        "algebra.values", "algebra.mul", "diffops.bundle", "diffops.box4",
        "transforms.residual", "electromag", "harness.offer", "harness.report",
        "harness.convergence", "cli.main")
SELF = ("fields.build", "fields.partial", "fields.draw", "fields.eval", "algebra.values",
        "algebra.mul", "diffops.bundle", "diffops.box4", "transforms.residual",
        "electromag", "harness.offer", "harness.report", "harness.convergence", "cli.main")
SUITES = checks.SUITE_ORDER


def _round_layers(round_stats) -> dict:
    """Sum each layer's figures over the invocations of one round."""
    total = {}
    for st in round_stats:
        for name, rec in st["layers"].items():
            acc = total.setdefault(name, dict.fromkeys(rec, 0))
            for k, v in rec.items():
                acc[k] += v
    return total


def _layer_counts(layers) -> dict:
    def get(layer, key):
        return layers.get(layer, {}).get(key, 0)

    c = {m: get(layer, key) for m, (layer, key) in COUNTS.items()}
    c["kernels.calls"] = sum(get(f"kernels.{k}", "calls") for k in KERNELS)
    c["harness.cases"] = sum(get(f"harness.suite.{s}", "calls") for s in SUITES)
    c["_partial_hits"] = get("fields.partial", "hits")
    return c


def _layer_times(layers) -> dict:
    def get(layer, key):
        return layers.get(layer, {}).get(key, 0.0)

    t = {f"{layer}_s": get(layer, "busy") for layer in BUSY}
    t.update({f"{layer}.self_s": get(layer, "self") for layer in SELF})
    t["kernels_s"] = sum(get(f"kernels.{k}", "busy") for k in KERNELS)
    for s in SUITES:
        t[f"harness.suite.{s}_s"] = get(f"harness.suite.{s}", "busy")
    t["harness.case.self_s"] = sum(get(f"harness.suite.{s}", "self") for s in SUITES)
    return t


def per_layer(invocations, rounds, stats, problems: List[str]) -> dict:
    layers = [_round_layers(rs) for rs in stats]
    counts = [_layer_counts(ls) for ls in layers]
    if any(c != counts[0] for c in counts):
        problems.append("traced counts differ between identical rounds")
    missing = sorted({m for rs in stats for st in rs for m in st["missing"]})
    if missing:
        print(f"tracer found nothing to wrap at: {', '.join(missing)}", file=sys.stderr)
    first = counts[0]
    metrics = {k: {"value": v, "unit": "count"} for k, v in first.items()
               if not k.startswith("_")}
    calls = first["fields.partial.calls"]
    metrics["fields.partial.hit_ratio"] = {
        "value": first["_partial_hits"] / calls if calls else 0.0, "unit": "ratio"}
    times = [_layer_times(ls) for ls in layers]
    for k in times[0]:
        metrics[k] = {"value": median(t[k] for t in times), "unit": "s"}
    per_round = [sum(o.wall for o in outs) / len(invocations) for outs in rounds]
    metrics["trace.wall_s"] = {"value": median(per_round), "unit": "s"}
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--program-seed", type=int, default=None,
                   help="pass --seed to the CLI (default: the CLI's own default, 42)")
    p.add_argument("--samples", type=int, default=None,
                   help="sample count for the check workloads")
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    try:
        pc = import_checkout_paracalc()
        RESULTS.mkdir(exist_ok=True)
        env = child_env()
        facts = host_facts(env)
        invocations = workload(args.workload, args.seed, args.program_seed, args.samples)
        rounds, setup, cals, stats = measure(invocations, args.seconds, env,
                                             bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    attempted, failed, failures, problems = judge(invocations, rounds, env)
    problems += checks.run_oracles(pc, args.seed)
    if args.trace:
        metrics = per_layer(invocations, rounds, stats, problems)
    else:
        metrics = end_to_end(invocations, rounds, setup, cals)
    correct = not problems
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    command = [Path(sys.executable).name, "perfbench/run.py"] + argv
    raw = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({
        "command": command,
        "cli": [shell(inv.args) for inv in invocations],
        "host": facts,
        "rounds": [[{"wall": o.wall, "rss_mb": o.rss_mb, "code": o.code} for o in outs]
                   for outs in rounds],
        "setup": setup,
        "calibration": cals,
        "failures": failures,
        "problems": problems,
        "result": result,
    }, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(rounds)} rounds, {attempted} operations, {failed} failed")
    print("command: " + shlex.join(command))
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    walls = [sum(o.wall for o in outs) / len(invocations) for outs in rounds]
    print(f"unadjusted medians: wall {median(walls):.4f} s"
          + (f", setup {median(setup):.4f} s, calibrate.py {median(cals):.4f} s"
             if cals else ""))
    for inv in invocations:
        cmd = shell(inv.args)
        print("cli: " + (cmd if len(cmd) < 200 else cmd[:200] + " ..."))
    for f in failures:
        print("FAILED " + json.dumps(f))
    for p in problems:
        print(f"INCORRECT {p}", file=sys.stderr)
    print(f"raw: {raw.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
