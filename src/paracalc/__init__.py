"""paracalc: complex paravector algebra, space-time operators, verification CLI."""

# harness first.  It is by far the largest module, and compiling it needs a few
# MB of transient parser memory.  Compiled before the other modules load, that
# memory is not stacked on theirs, which lowers the peak RSS of every run that
# compiles the package from source (see the README's "Peak memory").
from .harness import (
    CaseReport,
    ConfigError,
    SuiteConfig,
    SuiteReport,
    run_convergence,
    run_suite,
)
from .algebra import (
    BASIS,
    Event,
    IDENTITY,
    Paravector,
    SingularParavector,
    act_left,
    act_right,
    det,
    inverse,
    left_matrix,
    mul,
    reverse,
    right_matrix,
)
from .diffops import (
    EXACT,
    Exact,
    Numeric,
    box4,
    bundle,
    div4,
    grad4,
    product_rule_failure_witness,
    scalar_order_gap,
)
from .electromag import (
    PhysConstants,
    em_from_potential,
)
from .fields import (
    Field,
    PolynomialField,
    random_event,
    random_field,
    random_plane_wave,
)
from .transforms import (
    InvarianceForm,
    NotOrthogonal,
    TransformedValues,
    right_factor_sides,
    transformed_field_values,
    transformed_wave_field,
    transport_sides,
    wave_invariance_sides,
)

__version__ = "0.1.0"
