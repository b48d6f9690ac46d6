"""Per-layer tracing of one paracalc CLI invocation, from outside the program.

Run in a fresh process:

    python3 perfbench/tracer.py STATS.json -- check all --json --verbose

It imports paracalc from the checkout's ``src/``, wraps the public functions
and value constructors of each layer (algebra, kernels, fields, diffops,
transforms, electromag, harness, cli), runs ``paracalc.cli.main`` with the
given arguments, and writes per-layer counts and times to STATS.json.  The
program's stdout and exit code are those of the untraced CLI.

Every wrapped call is a span.  A layer's *busy* time sums its outermost spans
(a span not nested in another span of the same layer) and its ``calls`` count
them; its *self* time is each span's duration minus the time of the spans it
directly encloses.  Wrappers that find nothing to wrap (a name the program no
longer has) are listed under ``missing`` instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
from pathlib import Path

KERNELS = ("pv_mul", "matvec4", "poly_eval", "scalar_poly_eval", "plane_wave_eval")
DRAWS = ("random_paravector", "random_orthogonal", "random_event", "random_field",
         "random_scalar_field", "random_plane_wave", "null_plane_wave")


class Layer:
    __slots__ = ("calls", "entries", "busy", "self_time", "hits", "depth")

    def __init__(self):
        self.calls = self.entries = self.hits = self.depth = 0
        self.busy = self.self_time = 0.0


class Tracer:
    def __init__(self):
        self.layers = {}
        self.missing = []
        self._stack = []  # one [child seconds] cell per open span

    def layer(self, name: str) -> Layer:
        return self.layers.setdefault(name, Layer())

    def wrap(self, name: str, fn):
        rec = self.layer(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            rec.depth += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                rec.depth -= 1
                rec.entries += 1
                rec.self_time += elapsed - cell[0]
                if rec.depth == 0:
                    rec.calls += 1
                    rec.busy += elapsed
                if stack:
                    stack[-1][0] += elapsed

        return traced

    def stats(self) -> dict:
        return {
            "layers": {n: {"calls": r.calls, "entries": r.entries, "hits": r.hits,
                           "busy": r.busy, "self": r.self_time}
                       for n, r in sorted(self.layers.items())},
            "missing": self.missing,
        }


def _paracalc_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "paracalc" or n.startswith("paracalc."))]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the imported paracalc package."""
    import paracalc.cli  # noqa: F401  (imports every layer)

    mods = {m.__name__: m for m in _paracalc_modules()}
    everywhere = list(mods.values())
    layer_module = {name.rsplit(".", 1)[-1]: m for name, m in mods.items()}

    def function(module: str, attr: str, layer: str):
        """Wrap a module-level function and every `from ... import` binding of it."""
        fn = getattr(layer_module.get(module), attr, None)
        if not callable(fn):
            tracer.missing.append(f"{module}.{attr}")
            return
        new = tracer.wrap(layer, fn)
        for m in everywhere:
            for k, v in list(vars(m).items()):
                if v is fn:
                    setattr(m, k, new)

    def method(module: str, cls_name: str, attr: str, layer: str):
        cls = getattr(layer_module.get(module), cls_name, None)
        raw = getattr(cls, "__dict__", {}).get(attr)
        if raw is None:
            tracer.missing.append(f"{module}.{cls_name}.{attr}")
            return
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(layer, raw.__func__)))
        else:
            setattr(cls, attr, tracer.wrap(layer, raw))

    def public(module: str, layer: str):
        mod = layer_module.get(module)
        names = [n for n in getattr(mod, "__all__", ())
                 if inspect.isfunction(getattr(mod, n, None))]
        if not names:
            tracer.missing.append(f"{module}.*")
        for n in names:
            function(module, n, layer)

    for k in KERNELS:
        function("kernels", k, f"kernels.{k}")
    for cls in ("Paravector", "Event"):
        method("algebra", cls, "__init__", "algebra.values")
        method("algebra", cls, "from_data", "algebra.values")
    function("algebra", "mul", "algebra.mul")
    method("fields", "PolynomialField", "__init__", "fields.build")
    method("fields", "ScalarField", "__init__", "fields.build")
    for d in DRAWS:
        function("fields", d, "fields.draw")
    fields = layer_module.get("fields")
    base = getattr(fields, "Field", None)
    for obj in list(vars(fields).values()) if fields else ():
        if isinstance(obj, type) and base and issubclass(obj, base) and "_value" in vars(obj):
            method("fields", obj.__name__, "_value", "fields.eval")
    _install_partial(tracer, base, getattr(fields, "coord_index", None))
    function("diffops", "bundle", "diffops.bundle")
    function("diffops", "box4", "diffops.box4")
    public("transforms", "transforms.residual")
    public("electromag", "electromag")
    for attr in ("offer", "offer_rel", "floor_deficit"):
        method("harness", "Worst", attr, "harness.offer")
    function("harness", "report_to_json", "harness.report")
    function("cli", "_print_check_report", "harness.report")
    function("cli", "_print_convergence", "harness.report")
    function("harness", "run_convergence", "harness.convergence")
    _install_suites(tracer, layer_module.get("harness"))


def _install_partial(tracer: Tracer, base, coord_index) -> None:
    """Field.partial, counting calls answered from the per-field cache."""
    inner = getattr(base, "__dict__", {}).get("partial")
    if inner is None or coord_index is None:
        tracer.missing.append("fields.Field.partial")
        return
    rec = tracer.layer("fields.partial")
    traced = tracer.wrap("fields.partial", inner)

    @functools.wraps(inner)
    def partial(self, coord):
        if coord_index(coord) in getattr(self, "_pcache", ()):
            rec.hits += 1
        return traced(self, coord)

    base.partial = partial


def _install_suites(tracer: Tracer, harness) -> None:
    """Each case's run, attributed to its suite (harness.suite.<name>)."""
    builders = getattr(harness, "_SUITE_BUILDERS", None)
    if not isinstance(builders, dict):
        tracer.missing.append("harness._SUITE_BUILDERS")
        return
    for sname, build in list(builders.items()):
        def traced_build(build=build, layer=f"harness.suite.{sname}"):
            return [dataclasses.replace(c, run=tracer.wrap(layer, c.run)) for c in build()]

        builders[sname] = traced_build


def main(argv) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py STATS.json -- <paracalc CLI arguments>")
    import paracalc.cli

    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.main", paracalc.cli.main)
    start = time.perf_counter()
    try:
        code = run(cli_args)
    finally:
        sys.stdout.flush()
        stats = tracer.stats()
        stats["main_wall"] = time.perf_counter() - start
        Path(out).write_text(json.dumps(stats))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
