"""Correctness checks on the CLI's outputs, and the program-versus-oracle checks.

Each check returns a :class:`Verdict`: how many operations it judged, which of
them the program itself reported as failed, and any *problems*.  A problem
means the output is wrong (malformed, inconsistent, or disagreeing with an
oracle); a failed operation is a case or step pair the program correctly
reported as not passing.  No check compares against a stored copy of earlier
output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

import oracles

SUITE_ORDER = ("algebra", "diffop", "transforms", "wave", "maxwell")
TOP_KEYS = ["suite", "seed", "samples", "tolerances", "cases", "passed", "failed"]
TOLERANCE_KEYS = ["exact", "numeric", "step"]
CASE_KEYS = ["name", "residual", "threshold", "pass"]
NOISE_FLOOR = 1e-12  # run_convergence reports no ratio below this error
ORDER_BAND = 0.2  # a ratio must lie within 20% of (h_i / h_{i+1})^2
ORDER_SPAN_TOL = 0.1  # the order fitted over the whole sweep must be 2 +- 0.1


@dataclass
class Verdict:
    operations: int = 0
    failed: List[dict] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)


def _unique_pairs(pairs):
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError(f"duplicate keys in {keys}")
    return dict(pairs)


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text: str):
    """json.loads that refuses NaN/Infinity and duplicate keys."""
    return json.loads(text, object_pairs_hook=_unique_pairs, parse_constant=_reject_constant)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_report(stdout: bytes, exit_code: int, suite: str, seed: int, samples: int,
                 verbose: bool) -> Verdict:
    """Judge one `check <suite> --json` report by its documented properties."""
    v = Verdict()
    try:
        text = stdout.decode("utf-8")
        if not text.endswith("\n") or text.count("\n") != 1:
            raise ValueError("report is not exactly one newline-terminated line")
        rep = strict_json(text)
    except ValueError as exc:
        v.problems.append(f"invalid JSON report: {exc}")
        return v
    if not isinstance(rep, dict) or list(rep) != TOP_KEYS:
        v.problems.append(f"top-level keys {list(rep) if isinstance(rep, dict) else rep!r}")
        return v
    if (rep["suite"], rep["seed"], rep["samples"]) != (suite, seed, samples):
        v.problems.append(
            f"report echoes {rep['suite']!r}/{rep['seed']!r}/{rep['samples']!r}, "
            f"asked for {suite!r}/{seed!r}/{samples!r}")
    tol = rep["tolerances"]
    if not isinstance(tol, dict) or list(tol) != TOLERANCE_KEYS or not all(
            _is_number(x) and math.isfinite(x) and x > 0 for x in tol.values()):
        v.problems.append(f"tolerances {tol!r}")
    cases = rep["cases"]
    if not isinstance(cases, list) or not cases:
        v.problems.append("no cases")
        return v
    v.operations = len(cases)
    want_keys = CASE_KEYS + (["components"] if verbose else [])
    suites = SUITE_ORDER if suite == "all" else (suite,)
    names, order = set(), []
    n_pass = 0
    for c in cases:
        if not isinstance(c, dict) or list(c) != want_keys:
            v.problems.append(f"case keys {list(c) if isinstance(c, dict) else c!r}")
            continue
        name, res, thr, ok = c["name"], c["residual"], c["threshold"], c["pass"]
        prefix = name.split("/", 1)[0] if isinstance(name, str) else None
        if prefix not in suites or name in names:
            v.problems.append(f"case name {name!r} is foreign or repeated")
        names.add(name)
        order.append(prefix)
        if not (_is_number(res) and math.isfinite(res) and res >= 0):
            v.problems.append(f"{name}: residual {res!r} is not a finite number >= 0")
            continue
        if not (_is_number(thr) and math.isfinite(thr) and thr >= 0):
            v.problems.append(f"{name}: threshold {thr!r}")
            continue
        if not isinstance(ok, bool) or ok != (res <= thr):
            v.problems.append(f"{name}: pass={ok!r} but residual={res!r} threshold={thr!r}")
            continue
        if verbose:
            comps = c["components"]
            if not isinstance(comps, list) or not all(
                    isinstance(z, list) and len(z) == 2
                    and all(_is_number(p) and math.isfinite(p) for p in z) for z in comps):
                v.problems.append(f"{name}: components {comps!r}")
        if ok:
            n_pass += 1
        else:
            v.failed.append({"seed": rep["seed"], "suite": prefix,
                             "case": name.split("/", 1)[1], "samples": rep["samples"],
                             "residual": res, "threshold": thr})
    if order != sorted(order, key=lambda s: suites.index(s) if s in suites else -1):
        v.problems.append("suites are not reported in the documented order")
    if rep["passed"] != n_pass or rep["failed"] != len(cases) - n_pass:
        v.problems.append(
            f"passed={rep['passed']!r} failed={rep['failed']!r} for {len(cases)} cases, "
            f"{n_pass} passing")
    if exit_code != (0 if rep["failed"] == 0 else 1):
        v.problems.append(f"exit code {exit_code} with failed={rep['failed']!r}")
    return v


def check_convergence(stdout: bytes, exit_code: int, steps: List[str]) -> Verdict:
    """Judge one `convergence` table: one operation per adjacent step pair.

    Ratios are recomputed from the printed `max_error` column and must match
    the printed ratio; a pair whose ratio lies outside 20% of (h_i/h_{i+1})^2
    is a failed operation, and the exit code must say so.  When adjacent
    steps are close, that band also admits a ratio of 1 (no convergence at
    all), so the order fitted between the first and last rows must be 2.
    """
    v = Verdict(operations=len(steps) - 1)
    lines = stdout.decode("utf-8", "replace").splitlines()
    if not lines or lines[0].split() != ["h", "max_error", "ratio"]:
        v.problems.append("missing table header")
        return v
    rows = [line.split() for line in lines[1:]]
    if len(rows) != len(steps) or any(len(r) != 3 for r in rows):
        v.problems.append(f"expected {len(steps)} rows of 3 columns")
        return v
    errors = []
    for row, step in zip(rows, steps):
        if row[0] != format(float(step), ".6g"):
            v.problems.append(f"row h={row[0]} for requested step {step}")
        try:
            err = float(row[1])
        except ValueError:
            err = math.nan
        if not (math.isfinite(err) and err >= 0):
            v.problems.append(f"h={row[0]}: max_error {row[1]!r}")
        errors.append(err)
    if v.problems:
        return v
    if rows[-1][2] != "n/a":
        v.problems.append("last row has a ratio")
    for i in range(len(steps) - 1):
        shown = rows[i][2]
        if errors[i] < NOISE_FLOOR or errors[i + 1] < NOISE_FLOOR:
            if shown != "n/a":
                v.problems.append(f"h={rows[i][0]}: ratio {shown} below the noise floor")
            continue
        want = errors[i] / errors[i + 1]
        try:
            ratio = float(shown)
        except ValueError:
            v.problems.append(f"h={rows[i][0]}: ratio {shown!r}")
            continue
        if abs(ratio - want) > 5e-4 + 1e-5 * want:  # %.3f ratio, 7-digit errors
            v.problems.append(f"h={rows[i][0]}: ratio {shown} but errors give {want:.6f}")
        predicted = (float(steps[i]) / float(steps[i + 1])) ** 2
        if not (1 - ORDER_BAND) * predicted <= ratio <= (1 + ORDER_BAND) * predicted:
            v.failed.append({"pair": [steps[i], steps[i + 1]], "ratio": ratio,
                             "predicted": predicted})
    if min(errors[0], errors[-1]) >= NOISE_FLOOR:
        order = math.log(errors[0] / errors[-1]) / math.log(float(steps[0]) / float(steps[-1]))
        if not abs(order - 2.0) <= ORDER_SPAN_TOL:
            v.problems.append(f"error falls as h^{order:.3f} over the sweep, not h^2")
    if exit_code != (0 if not v.failed else 1):
        v.problems.append(f"exit code {exit_code} with {len(v.failed)} failed pairs")
    return v


def _draw_complex(rng, size, radius):
    return rng.uniform(-radius, radius, size) + 1j * rng.uniform(-radius, radius, size)


def check_algebra_oracle(pc, rng, draws: int = 200) -> List[str]:
    """mul, det, reverse and inverse of the program against the Pauli oracle."""
    worst = {"mul": 0.0, "det": 0.0, "reverse": 0.0, "inverse": 0.0}
    for _ in range(draws):
        a, b = _draw_complex(rng, 4, 2.0), _draw_complex(rng, 4, 2.0)
        pa, pb = pc.Paravector(a[0], a[1:]), pc.Paravector(b[0], b[1:])
        gaps = {
            "mul": oracles.relative_gap(pc.mul(pa, pb).data, oracles.pauli_mul(a, b)),
            "det": oracles.relative_gap(pc.det(pa), oracles.pauli_det(a)),
            "reverse": oracles.relative_gap(pc.reverse(pa).data, oracles.pauli_reverse(a)),
        }
        if abs(oracles.pauli_det(a)) >= 0.1:
            gaps["inverse"] = oracles.relative_gap(
                pc.inverse(pa).data, oracles.pauli_inverse(a))
        for k, g in gaps.items():
            worst[k] = max(worst[k], g)
    limits = {"mul": 1e-12, "det": 1e-12, "reverse": 1e-12, "inverse": 1e-10}
    problems = [f"Pauli oracle: {k} differs by {worst[k]:.3e} > {limits[k]:.0e}"
                for k in worst if not worst[k] <= limits[k]]
    singular = pc.Paravector(1 + 0.5j, (1 + 0.5j, 0, 0))  # s I + s sigma_x: det 0
    try:
        pc.inverse(singular)
        problems.append("Pauli oracle: inverse of a det-0 paravector did not raise")
    except pc.SingularParavector:
        pass
    return problems


def check_operator_oracle(pc, rng, fields: int = 20, points: int = 5) -> List[str]:
    """Exact div4/grad4/box4 and point values against the monomial-rule oracle."""
    worst = {"value": 0.0, "div4": 0.0, "grad4": 0.0, "box4": 0.0}
    for _ in range(fields):
        exps = rng.integers(0, 3, size=(10, 4))
        exps[-2:] = exps[:2]  # duplicate rows exercise the canonical merge
        coeffs = _draw_complex(rng, (10, 4), 1.0)
        f = pc.PolynomialField(exps, coeffs)
        for _ in range(points):
            x = _draw_complex(rng, 4, 1.5)
            X = pc.Event(x[0], x[1:])
            got = {"value": f.at(X).data, "div4": pc.div4(f, X).data,
                   "grad4": pc.grad4(f, X).data, "box4": pc.box4(f, X).data}
            want = {"value": oracles.poly_value(exps, coeffs, x),
                    "div4": oracles.poly_div4(f.exps, f.coeffs, x),
                    "grad4": oracles.poly_grad4(f.exps, f.coeffs, x),
                    "box4": oracles.poly_box4(f.exps, f.coeffs, x)}
            for k in worst:
                worst[k] = max(worst[k], oracles.relative_gap(got[k], want[k]))
    return [f"monomial oracle: {k} differs by {g:.3e} > 1e-12"
            for k, g in worst.items() if not g <= 1e-12]


def run_oracles(pc, seed: int) -> List[str]:
    rng = np.random.default_rng(abs(seed))
    return check_algebra_oracle(pc, rng) + check_operator_oracle(pc, rng)
