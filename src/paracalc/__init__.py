"""paracalc: complex paravector algebra, space-time operators, verification CLI.

The top-level names load lazily (PEP 562): ``import paracalc`` imports no
submodule, and the first access to ``paracalc.<name>`` imports the module
that defines it.  So each CLI command compiles and loads only the modules it
runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: The public names, by the module that defines them.
_PUBLIC = {
    "algebra": ("BASIS", "Event", "IDENTITY", "Paravector", "SingularParavector", "act_left",
                "act_right", "det", "inverse", "left_matrix", "mul", "reverse",
                "right_matrix"),
    "convergence": ("run_convergence",),
    "diffops": ("EXACT", "Exact", "Numeric", "box4", "bundle", "div4", "grad4",
                "product_rule_failure_witness", "scalar_order_gap"),
    "electromag": ("PhysConstants", "em_from_potential"),
    "fields": ("Field", "PolynomialField", "random_event", "random_field",
               "random_plane_wave"),
    "harness": ("CaseReport", "ConfigError", "SuiteConfig", "SuiteReport", "run_suite"),
    "transforms": ("InvarianceForm", "NotOrthogonal", "TransformedValues",
                   "right_factor_sides", "transformed_field_values", "transformed_wave_field",
                   "transport_sides", "wave_invariance_sides"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
