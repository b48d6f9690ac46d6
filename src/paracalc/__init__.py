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
    conjugate_rotate,
    det,
    event_as_paravector,
    inverse,
    left_matrix,
    mul,
    normalize_orthogonal,
    paravector_as_event,
    reverse,
    right_matrix,
    scale,
)
from .diffops import (
    EXACT,
    Exact,
    Numeric,
    box4,
    bundle,
    div4,
    div4_field,
    grad4,
    grad4_field,
    product_rule_failure_witness,
    scalar_order_gap,
)
from .electromag import (
    NonTransverse,
    PhysConstants,
    PotentialField,
    ZeroWaveVector,
    em_field_from_potential,
    em_from_potential,
    lorenz_gauge_potential,
    plane_wave_potential,
    source_field_from_em,
    sources_from_em,
)
from .fields import (
    Field,
    PolynomialField,
    null_plane_wave,
    random_event,
    random_field,
    random_orthogonal,
    random_paravector,
    random_plane_wave,
    random_scalar_field,
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
