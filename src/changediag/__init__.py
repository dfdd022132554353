"""Optimal Bayesian sequential change diagnosis on finite alphabets.

Detect an abrupt, unobservable change in the distribution of a symbol
stream and identify which of finitely many post-change regimes took over,
trading detection delay against false alarms and wrong identifications.
The package solves the joint problem exactly on a discretized posterior
simplex (value iteration with a proven truncation bound), extracts and
verifies the per-type stopping regions, compresses 2-type boundaries to
spline curves for constant-time online decisions, and validates everything
by reproducible Monte Carlo simulation.

Importing the package loads none of its library modules: each is in
``sys.modules`` and an attribute of the package from the start, but its
body (and numpy) runs at the first access to one of its attributes.  A
name the package exports is looked up in its home module on every access,
so a name replaced there is replaced here too.
"""

import importlib.util
import sys

__version__ = "0.1.0"

#: Default cap on observations per Monte Carlo run; hitting it flags the
#: run.  Defined here so the CLI can show it without loading numpy.
DEFAULT_N_MAX = 100_000


def _decimal(text: str, number: type = int):
    """``text`` as an int, or a float, only if it is ASCII with no
    underscore and no surrounding space: int() and float() alone also read
    "1_0" as 10 and "٣" as 3.  What is left they read only as decimal text
    (float() also as inf or nan).  Defined here so the CLI reads numbers
    without loading numpy."""
    if not text.isascii() or "_" in text or text != text.strip():
        raise ValueError(f"{text!r} is not a decimal {number.__name__}")
    return number(text)


#: The names the package exports, by home module.
_EXPORTS = {
    "model": (
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
    ),
    "posterior": (
        "ImpossibleObservation",
        "d_vector",
        "h_costs",
        "initial_posterior",
        "predictive",
        "update",
        "update_many",
    ),
    "solver": (
        "GridSizeError",
        "SimplexGrid",
        "ValueTable",
        "build_grid",
        "interpolate",
        "load_table",
        "save_table",
        "value_iterate",
    ),
    "regions": (
        "StoppingRegion",
        "boundary_nodes",
        "check_region_properties",
        "embed",
        "export_region",
        "extract_region",
        "import_region",
    ),
    "boundary": (
        "InsufficientBoundary",
        "SplineBoundary",
        "fast_member",
        "fast_member_many",
        "fit_boundary",
        "load_boundaries",
        "save_boundaries",
        "save_boundary",
    ),
    "simulator": (
        "Environment",
        "PosteriorThreshold",
        "RiskEstimate",
        "SplineStrategy",
        "StopAfter",
        "Strategy",
        "TableStrategy",
        "estimate_risk",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names] + ["__version__"]


def _lazy(name: str):
    """Register submodule ``name`` in ``sys.modules``; its body runs at the
    first access to one of its attributes."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


model = _lazy("model")
posterior = _lazy("posterior")
solver = _lazy("solver")
regions = _lazy("regions")
boundary = _lazy("boundary")
simulator = _lazy("simulator")

#: Each exported name's home module.
_HOME = {name: globals()[module] for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(home, name)


def __dir__():
    return sorted({*globals(), *__all__})
