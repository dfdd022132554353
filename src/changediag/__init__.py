"""Optimal Bayesian sequential change diagnosis on finite alphabets.

Detect an abrupt, unobservable change in the distribution of a symbol
stream and identify which of finitely many post-change regimes took over,
trading detection delay against false alarms and wrong identifications.
The package solves the joint problem exactly on a discretized posterior
simplex (value iteration with a proven truncation bound), extracts and
verifies the per-type stopping regions, compresses 2-type boundaries to
spline curves for constant-time online decisions, and validates everything
by reproducible Monte Carlo simulation.
"""

from .model import (
    ProblemSpec,
    SpecValidationError,
    SuspendedAnimationSpec,
    derive_suspended_animation,
    load_sa_spec,
    load_spec,
    make_hypothesis_testing,
    make_shiryaev,
    phi_binary,
    phi_cardinality,
    phi_min_index,
    save_sa_spec,
    save_spec,
    theta_prior,
    validate,
)
from .posterior import (
    ImpossibleObservation,
    d_vector,
    h_costs,
    initial_posterior,
    predictive,
    update,
    update_many,
)
from .solver import (
    GridSizeError,
    SimplexGrid,
    ValueTable,
    build_grid,
    interpolate,
    load_table,
    save_table,
    value_iterate,
)
from .regions import (
    StoppingRegion,
    boundary_nodes,
    check_region_properties,
    embed,
    export_region,
    extract_region,
    import_region,
)
from .boundary import (
    DegenerateCorner,
    InsufficientBoundary,
    PolarPoint,
    SplineBoundary,
    fast_member,
    fast_member_many,
    fit_boundary,
    from_polar,
    load_boundaries,
    save_boundaries,
    save_boundary,
    to_polar,
)
from .simulator import (
    Environment,
    PosteriorThreshold,
    RiskEstimate,
    SplineStrategy,
    StopAfter,
    Strategy,
    TableStrategy,
    estimate_risk,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemSpec",
    "SpecValidationError",
    "SuspendedAnimationSpec",
    "derive_suspended_animation",
    "load_sa_spec",
    "load_spec",
    "make_hypothesis_testing",
    "make_shiryaev",
    "phi_binary",
    "phi_cardinality",
    "phi_min_index",
    "save_sa_spec",
    "save_spec",
    "theta_prior",
    "validate",
    "ImpossibleObservation",
    "d_vector",
    "h_costs",
    "initial_posterior",
    "predictive",
    "update",
    "update_many",
    "GridSizeError",
    "SimplexGrid",
    "ValueTable",
    "build_grid",
    "interpolate",
    "load_table",
    "save_table",
    "value_iterate",
    "StoppingRegion",
    "boundary_nodes",
    "check_region_properties",
    "embed",
    "export_region",
    "extract_region",
    "import_region",
    "DegenerateCorner",
    "InsufficientBoundary",
    "PolarPoint",
    "SplineBoundary",
    "fast_member",
    "fast_member_many",
    "fit_boundary",
    "from_polar",
    "load_boundaries",
    "save_boundaries",
    "save_boundary",
    "to_polar",
    "Environment",
    "PosteriorThreshold",
    "RiskEstimate",
    "SplineStrategy",
    "StopAfter",
    "Strategy",
    "TableStrategy",
    "estimate_risk",
    "__version__",
]
