"""Problem definitions for sequential change diagnosis.

A problem instance couples a hidden change model with an observation model
and a cost structure.  At an unobservable time theta the distribution of the
observed symbols switches from a known baseline ``f0`` to one of M known
alternatives ``f_mu``, where the index mu is itself unobservable.  The change
time carries a zero-modified geometric prior (an atom ``p0`` at zero, then
geometric with success probability ``p``) and the change type carries a prior
``nu`` independent of the change time.  Decisions are judged by a delay cost
``c`` per late period plus a terminal cost matrix ``a`` charging false alarms
and wrong identifications.

The module also builds the classical special cases (pure change detection,
fixed-sample-free sequential hypothesis testing) as cost/prior settings of the
same structure, and derives instances for "suspended animation" systems in
which the first component failure freezes all other components.

Observation spaces are finite alphabets; symbols are the integers
``0 .. alphabet_size-1``.
"""

from __future__ import annotations

import itertools
import json
import numbers
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

__all__ = [
    "ProblemSpec",
    "SuspendedAnimationSpec",
    "SpecValidationError",
    "validate",
    "theta_prior",
    "make_shiryaev",
    "make_hypothesis_testing",
    "derive_suspended_animation",
    "phi_min_index",
    "phi_cardinality",
    "phi_binary",
    "load_spec",
    "save_spec",
    "spec_to_dict",
    "spec_from_dict",
    "load_sa_spec",
    "save_sa_spec",
]

#: Normalization slack for probability vectors (density rows, nu).
NORM_TOL = 1e-12

#: Most post-change types: a node's or a run's action (0, or the type
#: announced) is stored in one signed byte.
MAX_TYPES = 127


class SpecValidationError(ValueError):
    """A problem instance, or a JSON document read by the package, is invalid."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=np.float64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """Immutable description of one change-diagnosis problem.

    Attributes:
        p0: prior mass of an immediate change (change time equal to 0).
        p: success probability of the geometric tail of the change time.
        nu: prior over the M change types, shape (M,).
        f: densities, shape (M+1, alphabet_size); row 0 is the pre-change
            density, row i >= 1 the density after a change of type i.
        c: delay cost charged per period between the change and the alarm.
        a: terminal costs, shape (M+1, M); ``a[i][j]`` is the cost of
            terminal decision j when the truth is i, with row 0 holding the
            false-alarm costs (no change has happened yet).
        alphabet_size: number of observable symbols, the columns of ``f``.
        num_types: number M of post-change alternatives, the rows of ``f``
            after the first.

    The two sizes are read off ``f`` and are not constructor arguments.
    Construction runs ``validate``, so a spec that exists is valid.
    """

    p0: float
    p: float
    nu: np.ndarray
    f: np.ndarray
    c: float
    a: np.ndarray
    alphabet_size: int = field(init=False)
    num_types: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", _freeze(np.atleast_1d(self.nu)))
        object.__setattr__(self, "f", _freeze(np.atleast_2d(self.f)))
        object.__setattr__(self, "a", _freeze(np.atleast_2d(self.a)))
        object.__setattr__(self, "num_types", self.f.shape[0] - 1)
        object.__setattr__(self, "alphabet_size", self.f.shape[1])
        validate(self)

    def _key(self) -> tuple:
        return (
            self.alphabet_size,
            self.num_types,
            self.p0,
            self.p,
            self.nu.tobytes(),
            self.f.tobytes(),
            self.c,
            self.a.tobytes(),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProblemSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def validate(spec: ProblemSpec) -> None:
    """Check every structural invariant of ``spec``; ``ProblemSpec`` runs it.

    Raises:
        SpecValidationError: with a message naming the offending field,
            row and constraint.  Returns silently when the spec is valid.
    """
    M = spec.num_types
    if spec.f.ndim != 2 or M < 1 or spec.alphabet_size < 1:
        raise SpecValidationError(
            f"f has shape {spec.f.shape}, expected (M+1, alphabet_size) with M >= 1 "
            "types and at least one symbol"
        )
    if M > MAX_TYPES:
        raise SpecValidationError(f"num_types={M} is over the limit of {MAX_TYPES} types")
    for name in ("p0", "p", "c", "nu", "f", "a"):
        value = np.asarray(getattr(spec, name))
        if not np.isfinite(value).all():
            bad = tuple(np.argwhere(~np.isfinite(value))[0])
            index = "".join(f"[{i}]" for i in bad)
            raise SpecValidationError(f"{name}{index}={value[bad]} is not finite")
    if not 0.0 <= spec.p0 <= 1.0:
        raise SpecValidationError(f"p0={spec.p0} outside [0, 1]")
    if not 0.0 < spec.p < 1.0:
        raise SpecValidationError(f"p={spec.p} outside the open interval (0, 1)")
    if spec.c <= 0.0:
        raise SpecValidationError(f"delay cost c={spec.c} must be positive")

    if spec.nu.shape != (M,):
        raise SpecValidationError(
            f"nu has shape {spec.nu.shape}, expected ({M},)"
        )
    if np.any(spec.nu <= 0.0):
        bad = int(np.argmin(spec.nu))
        raise SpecValidationError(
            f"nu[{bad}]={spec.nu[bad]} must be strictly positive"
        )
    total = float(spec.nu.sum())
    if abs(total - 1.0) > NORM_TOL:
        raise SpecValidationError(f"nu sums to {total!r}, not 1 within {NORM_TOL}")

    if np.any(spec.f < 0.0):
        row, col = np.unravel_index(int(np.argmin(spec.f)), spec.f.shape)
        raise SpecValidationError(f"f[{row}][{col}]={spec.f[row, col]} is negative")
    sums = spec.f.sum(axis=1)
    for i, s in enumerate(sums):
        if abs(float(s) - 1.0) > NORM_TOL:
            raise SpecValidationError(
                f"density row {i} not normalized: sums to {float(s)!r}"
            )

    if spec.a.shape != (M + 1, M):
        raise SpecValidationError(
            f"a has shape {spec.a.shape}, expected ({M + 1}, {M})"
        )
    if np.any(spec.a < 0.0):
        row, col = np.unravel_index(int(np.argmin(spec.a)), spec.a.shape)
        raise SpecValidationError(f"a[{row}][{col}]={spec.a[row, col]} is negative")
    for j in range(1, M + 1):
        if spec.a[j, j - 1] != 0.0:
            raise SpecValidationError(
                f"diagonal isolation cost nonzero: a[{j}][{j}]={spec.a[j, j - 1]}"
            )


def theta_prior(spec: ProblemSpec, t: int) -> float:
    """Prior probability that the change happens exactly at time ``t``.

    The change time has an atom ``p0`` at zero; conditioned on being
    positive it is geometric with success probability ``p``.

    Raises:
        ValueError: if ``t`` is not an integer, or is negative.
    """
    if _check_int("t", t, None) < 0:
        raise ValueError(f"change time t={t} must be nonnegative")
    if t == 0:
        return spec.p0
    return (1.0 - spec.p0) * (1.0 - spec.p) ** (t - 1) * spec.p


def make_shiryaev(
    p0: float,
    p: float,
    nu: np.ndarray,
    f: np.ndarray,
    c: float,
) -> ProblemSpec:
    """Pure quickest-detection instance: unit false-alarm cost, free isolation.

    Every false alarm costs 1 and any identification after the change is
    free, so the terminal loss reduces to the indicator of a false alarm and
    the risk becomes P{alarm before change} plus ``c`` times the expected
    detection delay.

    Args:
        p0, p: change-time prior parameters.
        nu: prior over post-change alternatives (length M >= 1).
        f: density rows f0, f1, ..., fM.
        c: delay cost per period.
    """
    M = len(f) - 1
    a = np.zeros((M + 1, M))
    a[0, :] = 1.0
    return ProblemSpec(p0=p0, p=p, nu=nu, f=f, c=c, a=a)


def make_hypothesis_testing(
    nu: np.ndarray,
    f: np.ndarray,
    c: float,
    a: np.ndarray,
) -> ProblemSpec:
    """Sequential multi-hypothesis test: the change has already happened.

    Sets the prior mass of an immediate change to one, so the posterior
    stays on the face pi_0 = 0 and the problem reduces to paying ``c`` per
    observation until a terminal decision is made.  The geometric
    parameter p is fixed at 0.5.  It is not inert off the face: the solver
    covers the whole simplex, and its truncation bound has a term |h|/p.
    On the 3-type instance of ``tests/test_posterior.py``, p = 0.5 and
    p = 0.9 give ``error_bound`` 1.5 and 1.056 at Q = 10; at Q = 30 both
    give the value 0.6667 at the prior and equal values at every node of
    the face, while the labels off the face differ.

    Args:
        nu: prior over the M hypotheses.
        f: density rows f0, f1, ..., fM (f0 matters only off the face).
        c: cost per observation.
        a: terminal cost matrix of shape (M+1, M).
    """
    return ProblemSpec(p0=1.0, p=0.5, nu=nu, f=f, c=c, a=a)


# ---------------------------------------------------------------------------
# Suspended-animation systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuspendedAnimationSpec:
    """A system of K concealed components that freezes on first failure.

    Component k fails at an independent geometric time with per-period
    failure probability ``component_failure_probs[k]``.  The first failure
    switches the observation density; simultaneous failures are possible and
    the label of the observed regime is ``phi(A)`` where A is the set of
    components that failed first.

    Attributes:
        component_failure_probs: per-component failure probabilities, each
            strictly inside (0, 1).
        phi: total map from nonempty subsets of {1..K} (as frozensets) to
            labels 1..M.
        label_densities: shape (M+1, alphabet); row 0 is the pre-failure
            density, row k >= 1 the density observed under label k.

    Construction raises ``SpecValidationError`` for an inconsistent system.
    """

    component_failure_probs: tuple[float, ...]
    phi: Mapping[frozenset[int], int]
    label_densities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "component_failure_probs",
            tuple(float(q) for q in self.component_failure_probs),
        )
        object.__setattr__(
            self, "phi", {frozenset(k): int(v) for k, v in self.phi.items()}
        )
        object.__setattr__(
            self, "label_densities", _freeze(np.atleast_2d(self.label_densities))
        )
        _validate_sa(self)

    @property
    def num_components(self) -> int:
        return len(self.component_failure_probs)

    @property
    def num_labels(self) -> int:
        return max(self.phi.values())


def _nonempty_subsets(K: int) -> Iterator[tuple[int, ...]]:
    """Every nonempty subset of the components 1..K, by size, then lexicographically."""
    for n in range(1, K + 1):
        yield from itertools.combinations(range(1, K + 1), n)


def _validate_sa(sa: SuspendedAnimationSpec) -> None:
    K = sa.num_components
    if K < 1:
        raise SpecValidationError("at least one component required")
    for k, q in enumerate(sa.component_failure_probs, start=1):
        if not 0.0 < q < 1.0:
            raise SpecValidationError(
                f"component {k} failure probability {q} outside (0, 1)"
            )
    all_subsets = {frozenset(s) for s in _nonempty_subsets(K)}
    missing = all_subsets - set(sa.phi)
    if missing:
        shown = sorted(min(missing, key=sorted))
        raise SpecValidationError(
            f"phi is not total: no label for subset {shown} "
            f"({len(missing)} subsets unlabeled)"
        )
    extra = set(sa.phi) - all_subsets
    if extra:
        raise SpecValidationError(
            f"phi labels {len(extra)} subsets outside 1..{K}, e.g. "
            f"{sorted(next(iter(extra)))}"
        )
    for subset in sorted(sa.phi, key=sorted):
        if sa.phi[subset] < 1:
            raise SpecValidationError(
                f"phi labels subset {sorted(subset)} with {sa.phi[subset]}; labels start at 1"
            )
    labels = set(sa.phi.values())
    M = max(labels)
    if labels != set(range(1, M + 1)):
        unused = sorted(set(range(1, M + 1)) - labels)
        raise SpecValidationError(
            f"labels must cover 1..{M} with every label used; unused: {unused}"
        )
    if sa.label_densities.shape[0] != M + 1:
        raise SpecValidationError(
            f"label_densities has {sa.label_densities.shape[0]} rows, "
            f"expected {M + 1} (pre-failure row plus one per label)"
        )


def phi_min_index(K: int) -> dict[frozenset[int], int]:
    """Label a failure set by its smallest component index."""
    return {frozenset(s): min(s) for s in _nonempty_subsets(K)}


def phi_cardinality(K: int) -> dict[frozenset[int], int]:
    """Label a failure set by how many components failed together."""
    return {frozenset(s): len(s) for s in _nonempty_subsets(K)}


def phi_binary(K: int) -> dict[frozenset[int], int]:
    """Label a failure set by the binary encoding sum of 2^(k-1) over members.

    Distinguishes every failure pattern: labels run over 1..2^K - 1.
    """
    return {frozenset(s): sum(2 ** (k - 1) for k in s) for s in _nonempty_subsets(K)}


def derive_suspended_animation(
    sa: SuspendedAnimationSpec,
    c: float,
    a: np.ndarray,
) -> ProblemSpec:
    """Reduce a suspended-animation system to a change-diagnosis instance.

    The first failure time of K independent geometric components is itself
    geometric with success probability ``p = 1 - prod(1 - p_k)``, and the
    label of the first-failing set is independent of that time, with
    weights proportional to the one-period failure-pattern probabilities.

    Args:
        sa: system description.
        c: delay cost per period.
        a: terminal cost matrix of shape (M+1, M).

    Raises:
        SpecValidationError: if a derived type weight vanishes or the
            derived instance is invalid (for instance a bad cost matrix).
    """
    probs = np.asarray(sa.component_failure_probs)
    K = sa.num_components
    M = sa.num_labels

    p = 1.0 - float(np.prod(1.0 - probs))
    nu = np.zeros(M)
    for subset, label in sa.phi.items():
        inside = np.array([k in subset for k in range(1, K + 1)])
        weight = float(np.prod(np.where(inside, probs, 1.0 - probs)))
        nu[label - 1] += weight
    nu /= p

    if np.any(nu <= 0.0):
        bad = int(np.argmin(nu)) + 1
        raise SpecValidationError(
            f"derived type weight for label {bad} is zero (label unreachable)"
        )

    return ProblemSpec(p0=0.0, p=p, nu=nu, f=sa.label_densities, c=c, a=a)


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _dump_json(doc, path: str) -> None:
    """Write ``doc`` as indented JSON and a newline to the file ``path``."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _fmt(x: float) -> str:
    """``x`` to 17 significant digits, which read back as the same float64."""
    return format(float(x), ".17g")


def _load_json(path: str):
    """Parse the JSON document in the file ``path``; text that is not JSON
    is refused with a message naming the path."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _integer(x) -> int:
    """An integer field of a JSON document: 2 and 2.0 read as 2, while 2.9,
    true and "2" are refused rather than rounded or converted."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


def _check_int(name: str, value: int, low: int | None, key: bool = False) -> int:
    """``value`` as a Python int, refused unless an integer of at least ``low``.

    Python and numpy integers pass; bools and floats do not, so a seed of
    1.5 cannot run the stream of seed 1.  A ``key`` is a Philox key word
    and must also fit in 64 unsigned bits.  With ``low`` None the range is
    left to the caller, whose message can then name what the integer counts.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name}={value!r} must be an integer")
    if key and not 0 <= value < 2**64:
        raise ValueError(f"{name}={value} must be in [0, 2**64)")
    if low is not None and value < low:
        rule = "nonnegative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name}={value} must be {rule}")
    return int(value)


def _nonnegative(name: str, value: float) -> float:
    """``value``, refused unless finite and nonnegative."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name}={value} must be finite and nonnegative")
    return value


def _flag(x) -> bool:
    """A boolean field of a JSON document: true or false, not 1 or "true"."""
    if not isinstance(x, bool):
        raise ValueError(f"{x!r} is not true or false")
    return x


def _reals(x, field: str) -> np.ndarray:
    """A real array field of a JSON document, nested lists of numbers, as a
    float64 array of any shape: a boolean, or anything else that is not a
    number, at any depth is refused naming ``field`` rather than read as
    1.0/0.0 or converted.  The shape is left to the object's own checks."""
    cells = np.asarray(x, dtype=object)
    for v in cells.flat:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ValueError(f"{field} holds {v!r}, not a number")
    return cells.astype(np.float64)


def _real(x, field: str) -> float:
    """A real scalar field of a JSON document, or a real parameter, read as
    by :func:`_reals`; a list, even of one number, is refused naming ``field``."""
    out = _reals(x, field)
    if out.ndim != 0:
        raise ValueError(f"{field} is {x!r}, not one number")
    return float(out)


def _read_doc(what: str, doc, fields: Callable[[Mapping], dict]) -> dict:
    """The constructor arguments ``fields`` reads from the JSON document ``doc``,
    which must be an object: a missing key or a wrongly typed value ends in
    one error naming ``what``.  Every JSON document the package loads is read
    here; callers construct outside the wrap, so validation keeps its text."""
    if not isinstance(doc, Mapping):
        raise SpecValidationError(f"{what} must be a JSON object")
    try:
        return fields(doc)
    except KeyError as exc:
        raise SpecValidationError(f"{what} missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SpecValidationError(f"malformed {what}: {exc}") from exc


def spec_to_dict(spec: ProblemSpec) -> dict:
    return {
        "alphabet_size": spec.alphabet_size,
        "num_types": spec.num_types,
        "p0": spec.p0,
        "p": spec.p,
        "nu": spec.nu.tolist(),
        "densities": spec.f.tolist(),
        "delay_cost": spec.c,
        "terminal_costs": spec.a.tolist(),
    }


def spec_from_dict(doc: Mapping) -> ProblemSpec:
    """The problem instance a model document describes; the document's
    ``alphabet_size`` and ``num_types`` must be those of its densities."""
    args = _read_doc("model document", doc, lambda d: dict(
        sizes={key: _integer(d[key]) for key in ("alphabet_size", "num_types")},
        p0=_real(d["p0"], "p0"),
        p=_real(d["p"], "p"),
        nu=_reals(d["nu"], "nu"),
        f=_reals(d["densities"], "densities"),
        c=_real(d["delay_cost"], "delay_cost"),
        a=_reals(d["terminal_costs"], "terminal_costs"),
    ))
    sizes = args.pop("sizes")
    spec = ProblemSpec(**args)
    for key, given in sizes.items():
        if given != getattr(spec, key):
            raise SpecValidationError(
                f"model document has {key}={given}, but its densities give {getattr(spec, key)}"
            )
    return spec


def save_spec(spec: ProblemSpec, path: str) -> None:
    _dump_json(spec_to_dict(spec), path)


def load_spec(path: str) -> ProblemSpec:
    """Read and validate a problem instance from a JSON file."""
    return spec_from_dict(_load_json(path))


def sa_to_dict(sa: SuspendedAnimationSpec) -> dict:
    return {
        "component_failure_probs": list(sa.component_failure_probs),
        "phi": [
            {"subset": sorted(subset), "label": label}
            for subset, label in sorted(
                sa.phi.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
            )
        ],
        "label_densities": sa.label_densities.tolist(),
    }


def save_sa_spec(sa: SuspendedAnimationSpec, path: str) -> None:
    _dump_json(sa_to_dict(sa), path)


def load_sa_spec(path: str) -> SuspendedAnimationSpec:
    """Read a suspended-animation system description from a JSON file."""
    args = _read_doc("system document", _load_json(path), lambda d: dict(
        component_failure_probs=tuple(
            _real(q, "component_failure_probs") for q in d["component_failure_probs"]
        ),
        phi={
            frozenset(_integer(k) for k in entry["subset"]): _integer(entry["label"])
            for entry in d["phi"]
        },
        label_densities=_reals(d["label_densities"], "label_densities"),
    ))
    return SuspendedAnimationSpec(**args)
