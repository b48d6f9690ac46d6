"""Command-line driver: `paracalc check <suite>` and `paracalc convergence`.

Exit codes: 0 all selected checks pass, 1 any failure, 2 configuration error.
A command loads only the modules it runs: ``check`` the suites it selects
(``harness._SUITE_BUILDERS``), ``convergence`` the fields and operators.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import Optional, Sequence

from .harness import (SAMPLES, SEED, STEP, SUITE_NAMES, TOL_EXACT, TOL_NUMERIC, ConfigError,
                      SuiteConfig, report_to_json, run_suite)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paracalc",
        description="Numerical verification of paravector field calculus",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="run a verification suite")
    check.add_argument("suite", choices=SUITE_NAMES + ("all",))
    check.add_argument("--seed", type=int, default=SEED)
    check.add_argument("--samples", type=int, default=SAMPLES)
    check.add_argument("--tol-exact", type=float, default=TOL_EXACT)
    check.add_argument("--tol-numeric", type=float, default=TOL_NUMERIC)
    check.add_argument("--step", type=float, default=STEP,
                       help="central-difference step for numeric-mode cases, "
                            "except diffop/factorization-numeric, which always "
                            "steps by 1e-4: its nested second difference loses "
                            "~eps/h^2 to rounding")
    check.add_argument("--json", action="store_true", dest="as_json")
    check.add_argument("--verbose", action="store_true")

    conv = sub.add_parser("convergence", help="difference-quotient order table")
    conv.add_argument("--field", choices=("poly", "planewave"), required=True)
    conv.add_argument("--steps", required=True,
                      help="comma-separated strictly decreasing step sizes")
    conv.add_argument("--seed", type=int, default=SEED)
    return parser


def _print_check_report(rep, verbose: bool) -> None:
    width = max(len(c.name) for c in rep.cases)
    for c in rep.cases:
        state = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  residual={c.residual:.3e}  "
              f"threshold={c.threshold:.3e}  {state}")
        if verbose and c.components is not None:
            comps = ", ".join(repr(complex(z)) for z in c.components)
            print(f"{'':<{width}}  components: [{comps}]")
    cfg = rep.config
    print(f"suite={cfg.suite} seed={cfg.seed} passed={rep.passed} failed={rep.failed}")


def _print_convergence(rows) -> None:
    print(f"{'h':>12}  {'max_error':>14}  {'ratio':>10}")
    for row in rows:
        ratio = "n/a" if row.ratio is None else f"{row.ratio:.3f}"
        print(f"{row.h:>12.6g}  {row.max_error:>14.6e}  {ratio:>10}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code) if exc.code is not None else 0
    # The parser is cyclic garbage from here on.  Collected (in under 1 ms)
    # before the command's modules compile, it leaves `check all`'s peak RSS
    # about 0.1 MB lower (README, Peak memory).
    del parser
    gc.collect(1)

    try:
        if args.command == "check":
            cfg = SuiteConfig(
                suite=args.suite,
                seed=args.seed,
                samples=args.samples,
                tol_exact=args.tol_exact,
                tol_numeric=args.tol_numeric,
                h=args.step,
            )
            rep = run_suite(cfg)
            if args.as_json:
                sys.stdout.write(report_to_json(rep, verbose=args.verbose))
            else:
                _print_check_report(rep, args.verbose)
            return 0 if rep.failed == 0 else 1

        from .convergence import convergence_ok, run_convergence  # fields and operators only

        steps = [s for s in args.steps.split(",") if s]
        try:
            steps = [float(s) for s in steps]
        except ValueError as exc:
            raise ConfigError(f"bad step list {args.steps!r}") from exc
        rows = run_convergence(args.field, steps, seed=args.seed)
        _print_convergence(rows)
        return 0 if convergence_ok(rows) else 1
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
