"""Dimensions of linear systems of surfaces in P^3 with fat base points.

The package pairs a conjectural reduction procedure (cubic Cremona transforms,
fixed-component and base-quadric removal, base-line corrections) with an exact
prime-field interpolation oracle that measures the true dimension as a matrix
corank at random general points.
"""

from .cremona import (
    CREMONA,
    REMOVE_COMPONENT,
    REMOVE_QUADRIC,
    ReductionStep,
    ReductionTrace,
    cremona_curve,
    cremona_curve_full,
    cremona_system,
    cremona_with_lines,
    curve_invariants,
    grouped_steps,
    has_fixed_plane,
    is_standard_form,
    line_orbit,
    reduce_to_standard,
    render_trace,
)
from .literals import format_curve, format_system, parse_curve, parse_system
from .oracle import (
    ALL_RANDOM,
    DEFAULT_CONFIG,
    DEFAULT_PRIME,
    FUNDAMENTAL,
    ConditionsMatrix,
    GridReport,
    GridRow,
    OracleConfig,
    OracleReport,
    SeedDisagreement,
    WindowRow,
    conditions_matrix,
    cremona_equivariance_check,
    monomial_basis,
    oracle_dimension,
    oracle_h1,
    oracle_report,
    rank_mod_p,
    verify_grid,
    verify_homogeneous,
)
from .speciality import (
    QuadricPencilReport,
    VERDICT_EMPTY,
    VERDICT_NON_SPECIAL,
    VERDICT_PROCEDURE,
    VERDICT_SPECIAL,
    classify_homogeneous,
    conjectured_dimension,
    gamma_cycle,
    is_special,
    line_speciality_bound,
    quadric_pencil_dimension,
    quadric_pencil_system,
    quadric_triple,
    remove_quadrics,
    speciality_correction,
)
from .systems import (
    CurveClass,
    DivisorClass,
    LinearSystem,
    LineCycle,
    canonical_class,
    expected_dimension,
    intersect_curve,
    normalize,
    point_conditions,
    to_divisor,
    triple_product,
    virtual_dimension,
)

__version__ = "0.1.0"
