"""The package is what the CLI runs.

Every function in ``src/paracalc`` is either reached by the CLI's own runs
and the benchmark's correctness gate (``perfbench/checks.run_oracles``), or
is named in the README's *Public API* list.  Test-only references live in
``tests/util.py``.
"""

import ast
import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

import paracalc
from paracalc import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(paracalc.__file__).parent

#: The functions that no CLI run calls and that stay as public API (the
#: README's "Public API"), per module, by qualified name: the Field type's
#: closure operations, the value types' accessors, the console script and
#: box4's numeric mode.  Dunder methods are public API too.
PUBLIC_API = {
    "fields.py": {
        "Field.pullback", "Field.left_mul", "Field.right_mul", "Field._times",
        "Field.scalar_mul", "Field.sum", "Field.zero", "Field.constant",
    },
    "algebra.py": {"Paravector.s", "Paravector.v", "Event.t", "Event.r"},
    "cli.py": {"entry"},
    "diffops.py": {"_second_partials.<locals>.firsts"},
}

#: The CLI runs of the trace: at these sizes they reach the same functions
#: as the benchmark's full-size runs.
RUNS = (
    ["check", "all", "--json", "--verbose", "--samples", "2"],
    ["check", "all", "--samples", "2"],
    ["convergence", "--field", "poly", "--steps", "0.1,0.05"],
    ["convergence", "--field", "planewave", "--steps", "0.1,0.05"],
)


@pytest.fixture(scope="module")
def checks():
    """perfbench/checks.py, the benchmark's correctness gate."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import checks
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return checks


def defined_functions():
    """(module file, line of the code object) -> qualified name, for every
    function and method defined in the package, nested ones included."""
    out = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path.name, first)] = prefix + child.name
                walk(child, path, prefix + child.name + ".<locals>.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


def traced_calls(checks):
    """(module file, first line) of every package function that the CLI runs
    and run_oracles call.  The package's caches are cleared first, so that a
    cached function is called as in a fresh process."""
    for name, module in list(sys.modules.items()):
        if name.startswith("paracalc."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
    called = set()
    root = str(PACKAGE) + os.sep  # as the code objects name their files

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(root):
            code = frame.f_code
            called.add((Path(code.co_filename).name, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for args in RUNS:
                cli.main(args)
        checks.run_oracles(paracalc, 1)
    finally:
        sys.setprofile(None)
    return called


@pytest.mark.parametrize("seed", [1, 2001])
def test_the_benchmark_oracle_gate_passes_on_the_checkout(checks, seed):
    assert checks.run_oracles(paracalc, seed) == []


def test_every_package_function_is_reached_or_public_api(checks):
    defined = defined_functions()
    public = {(path, name) for path, names in PUBLIC_API.items() for name in names}
    assert public <= {(path, name) for (path, _), name in defined.items()}, "a stale entry"
    called = traced_calls(checks)
    unreached = sorted(
        f"{path}:{name}" for (path, line), name in defined.items()
        if (path, line) not in called and (path, name) not in public
        and not (name.rsplit(".", 1)[-1].startswith("__") and name.endswith("__")))
    assert unreached == [], "move these to tests/util.py, or name them in the README's Public API"
