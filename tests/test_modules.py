"""Each CLI command loads only the modules it runs, and the package's
top-level names load lazily (``paracalc/__init__.py``)."""

import json
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import paracalc

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(paracalc.__file__).resolve().parents[1]

#: Prints what a fresh process has loaded of the package after one step:
#: importing it (and listing its names), importing the CLI, or a CLI command.
PROBE = """
import contextlib, io, json, sys
step = sys.argv[1:]
if step == ["import"]:
    import paracalc
    dir(paracalc)
elif step == ["import-cli"]:
    import paracalc.cli
else:
    from paracalc.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        main(step)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "paracalc")))
"""

#: Each step's modules.  No submodule for ``import paracalc``; no field,
#: operator, transform or field suite for ``check algebra``; no suite, tape
#: or transform for ``convergence``.
CORE = {"paracalc", "paracalc.cli", "paracalc.harness"}
FIELD_SUITES = {f"paracalc.suite_{s}" for s in ("diffop", "transforms", "wave", "maxwell")}
LOADS = {
    "import": {"paracalc"},
    "import-cli": CORE,
    "check algebra --samples 2": CORE | {
        "paracalc.suite_algebra", "paracalc.tape", "paracalc.algebra", "paracalc.kernels"},
    "convergence --field poly --steps 0.1,0.05": CORE | {
        "paracalc.convergence", "paracalc.fields", "paracalc.diffops", "paracalc.algebra",
        "paracalc.kernels"},
    "check all --samples 1": CORE | FIELD_SUITES | {
        "paracalc.suite_algebra", "paracalc.tape", "paracalc.algebra", "paracalc.kernels",
        "paracalc.fields", "paracalc.diffops", "paracalc.transforms", "paracalc.electromag"},
}


def loaded(step: str) -> set:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, "-c", PROBE, *step.split()], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return set(json.loads(run.stdout))


@pytest.mark.parametrize("step", list(LOADS))
def test_each_command_loads_only_what_it_runs(step):
    assert loaded(step) == LOADS[step]


def public_api() -> dict:
    """The README's Public API table: name -> module."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Public API"):]
    section = section[:section.index("\n## ")]
    table = re.findall(r"^\| `(\w+)` \| (.+) \|$", section, re.MULTILINE)
    return {name: module for module, names in table for name in re.findall(r"`(\w+)`", names)}


def test_every_public_name_resolves_from_its_module():
    api = public_api()
    assert len(api) > 40
    assert set(api) == set(paracalc.__all__)
    for name, module in api.items():
        assert getattr(paracalc, name) is getattr(import_module(f"paracalc.{module}"), name)
        assert name in dir(paracalc)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from paracalc import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(paracalc.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        paracalc.no_such_name
    assert not hasattr(paracalc, "harness_core")
    with pytest.raises(ImportError):
        exec("from paracalc import no_such_name", {})
