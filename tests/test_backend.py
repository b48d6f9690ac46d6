"""One numeric backend: the package's arithmetic runs on numpy's own loops.

numpy's matrix products (``@``, ``matmul``, ``dot`` and their kin, and
``np.linalg``) call the BLAS library, and an OpenBLAS built with
``DYNAMIC_ARCH`` picks its kernels for the CPU at run time, so their
rounding depends on the host.  ``einsum`` with ``optimize`` may route a
contraction to ``tensordot`` and so to BLAS as well.  Every contraction in
``src/paracalc`` is an elementwise sum in a fixed order or a plain
``einsum``, so a report depends only on its invocation.  numpy's own loops
dispatch on the CPU too (real ``np.exp`` rounds differently without
AVX512_SKX), so the reports are also compared with those loops turned off.
"""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paracalc

PACKAGE = Path(paracalc.__file__).parent

#: numpy functions that reach BLAS, by attribute or imported name
BLAS = {"matmul", "dot", "vdot", "inner", "tensordot", "vecdot", "matvec", "vecmat", "linalg"}


def blas_uses(source: str):
    """(line, what) for every BLAS entry point the source names."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Import):
            yield from ((node.lineno, a.name) for a in node.names if a.name.startswith("numpy.linalg"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = [node.module] if node.module.startswith("numpy.linalg") else []
            yield from ((node.lineno, n) for n in names + [a.name for a in node.names if a.name in BLAS])
        elif (isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
              and getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
              and any(k.arg == "optimize" for k in node.keywords)):
            yield node.lineno, "einsum(optimize=...)"


def test_the_scan_finds_each_blas_entry_point():
    for source in ("a @ b", "a @= b", "np.matmul(a, b)", "a.dot(b)", "np.vdot(a, b)",
                   "np.inner(a, b)", "np.tensordot(a, b)", "np.vecdot(a, b)",
                   "np.linalg.norm(a)", "import numpy.linalg", "from numpy.linalg import norm",
                   "from numpy import matmul", "np.einsum('i,i', a, b, optimize=False)",
                   "einsum('i,i', a, b, optimize=True)"):
        assert list(blas_uses(source)), source
    assert not list(blas_uses("np.einsum('i,i', a, b); a * b; inner = 1; from numpy import einsum"))


def test_the_package_calls_no_blas():
    found = {f"{path.name}:{line}: {what}" for path in sorted(PACKAGE.glob("*.py"))
             for line, what in blas_uses(path.read_text())}
    assert not found, sorted(found)


def _dynamic_openblas() -> bool:
    """Whether numpy links an OpenBLAS that picks its kernels at run time."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return False
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dicts mode
        return False
    return ("openblas" in blas.get("name", "").lower()
            and "DYNAMIC_ARCH" in blas.get("openblas configuration", ""))


def _cpu_feature(name: str) -> bool:
    """Whether numpy dispatches loops for the CPU feature in this process."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get(name))


REPORTS = pytest.mark.parametrize("args", [
    ["check", "all", "--json", "--verbose", "--samples", "20"],
    ["convergence", "--field", "poly", "--steps", "1e-1,1e-2,1e-3,1e-4"],
], ids=["check-all", "convergence-poly"])


def _run(args, variable: str, value):
    """A child process with the environment variable set to value (or unset)."""
    env = {k: v for k, v in os.environ.items() if k != variable}
    if value:
        env[variable] = value
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent)] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    run = subprocess.run([sys.executable, *args], env=env, capture_output=True, timeout=300)
    return run.returncode, run.stdout, run.stderr


@pytest.mark.skipif(not _dynamic_openblas(),
                    reason="needs an x86-64 OpenBLAS built with DYNAMIC_ARCH")
@REPORTS
def test_reports_do_not_depend_on_the_blas_kernels(args):
    # OPENBLAS_CORETYPE forces OpenBLAS's kernels for an older CPU, in the
    # CLI's own process only
    outputs = {core: _run(["-m", "paracalc.cli", *args], "OPENBLAS_CORETYPE", core)
               for core in (None, "Prescott", "Nehalem")}
    assert outputs[None][0] == 0, outputs[None][2].decode()
    assert outputs["Prescott"] == outputs[None]
    assert outputs["Nehalem"] == outputs[None]


@pytest.mark.skipif(not _cpu_feature("AVX512_SKX"),
                    reason="numpy dispatches no AVX512_SKX loops on this CPU, so turning "
                           "off X86_V4 would compare a run with itself")
@REPORTS
def test_reports_do_not_depend_on_numpy_simd_dispatch(args):
    # NPY_DISABLE_CPU_FEATURES=X86_V4 turns off numpy's AVX512_SKX loops, in
    # the CLI's own process only
    probe = ["-c", "import numpy; core = getattr(numpy, '_core', None) or numpy.core; "
                   "print(core._multiarray_umath.__cpu_features__['AVX512_SKX'])"]
    off = _run(probe, "NPY_DISABLE_CPU_FEATURES", "X86_V4")
    assert off[1].split() == [b"False"], off[2].decode()  # the variable took effect
    outputs = {v4: _run(["-m", "paracalc.cli", *args], "NPY_DISABLE_CPU_FEATURES", v4)
               for v4 in (None, "X86_V4")}
    assert outputs[None][0] == 0, outputs[None][2].decode()
    assert outputs["X86_V4"] == outputs[None]
