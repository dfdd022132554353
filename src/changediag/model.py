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
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Mapping

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
        alphabet_size: number of observable symbols.
        num_types: number M of post-change alternatives.
        p0: prior mass of an immediate change (change time equal to 0).
        p: success probability of the geometric tail of the change time.
        nu: prior over the M change types, shape (M,).
        f: densities, shape (M+1, alphabet_size); row 0 is the pre-change
            density, row i >= 1 the density after a change of type i.
        c: delay cost charged per period between the change and the alarm.
        a: terminal costs, shape (M+1, M); ``a[i][j]`` is the cost of
            terminal decision j when the truth is i, with row 0 holding the
            false-alarm costs (no change has happened yet).

    Construction runs ``validate``, so a spec that exists is valid.
    """

    alphabet_size: int
    num_types: int
    p0: float
    p: float
    nu: np.ndarray
    f: np.ndarray
    c: float
    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "nu", _freeze(np.atleast_1d(self.nu)))
        object.__setattr__(self, "f", _freeze(np.atleast_2d(self.f)))
        object.__setattr__(self, "a", _freeze(np.atleast_2d(self.a)))
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
    if spec.alphabet_size < 1:
        raise SpecValidationError("alphabet_size must be a positive integer")
    if M < 1:
        raise SpecValidationError("num_types must be a positive integer")
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
    if abs(float(spec.nu.sum()) - 1.0) > NORM_TOL:
        raise SpecValidationError(
            f"nu sums to {spec.nu.sum()!r}, not 1 within {NORM_TOL}"
        )

    if spec.f.shape != (M + 1, spec.alphabet_size):
        raise SpecValidationError(
            f"f has shape {spec.f.shape}, expected ({M + 1}, {spec.alphabet_size})"
        )
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
    """
    if t < 0:
        raise ValueError(f"change time t={t} must be nonnegative")
    if t == 0:
        return spec.p0
    return (1.0 - spec.p0) * (1.0 - spec.p) ** (t - 1) * spec.p


def make_shiryaev(
    p0: float,
    p: float,
    nu: Iterable[float],
    f: Iterable[Iterable[float]],
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
    f = np.atleast_2d(np.asarray(f, dtype=np.float64))
    M = f.shape[0] - 1
    a = np.zeros((M + 1, M))
    a[0, :] = 1.0
    return ProblemSpec(
        alphabet_size=f.shape[1],
        num_types=M,
        p0=p0,
        p=p,
        nu=np.asarray(list(nu), dtype=np.float64),
        f=f,
        c=c,
        a=a,
    )


def make_hypothesis_testing(
    nu: Iterable[float],
    f: Iterable[Iterable[float]],
    c: float,
    a: Iterable[Iterable[float]],
    p: float = 0.5,
) -> ProblemSpec:
    """Sequential multi-hypothesis test: the change has already happened.

    Sets the prior mass of an immediate change to one, so the pre-change
    hypothesis carries zero posterior weight forever and the problem reduces
    to paying ``c`` per observation until a terminal decision is made.  The
    geometric parameter ``p`` never enters the posterior dynamics in this
    regime; it is kept only to satisfy the common problem shape.

    Args:
        nu: prior over the M hypotheses.
        f: density rows f0, f1, ..., fM (f0 is inert but part of the shape).
        c: cost per observation.
        a: terminal cost matrix of shape (M+1, M).
        p: inert geometric parameter, any value in (0, 1).
    """
    f = np.atleast_2d(np.asarray(f, dtype=np.float64))
    return ProblemSpec(
        alphabet_size=f.shape[1],
        num_types=f.shape[0] - 1,
        p0=1.0,
        p=p,
        nu=np.asarray(list(nu), dtype=np.float64),
        f=f,
        c=c,
        a=np.atleast_2d(np.asarray(a, dtype=np.float64)),
    )


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
    labels = set(sa.phi.values())
    M = max(labels)
    if min(labels) < 1 or labels != set(range(1, M + 1)):
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
    a: Iterable[Iterable[float]],
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

    return ProblemSpec(
        alphabet_size=sa.label_densities.shape[1],
        num_types=M,
        p0=0.0,
        p=p,
        nu=nu,
        f=sa.label_densities,
        c=c,
        a=np.atleast_2d(np.asarray(a, dtype=np.float64)),
    )


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _dump_json(doc, fp: IO[str] | str) -> None:
    """Write ``doc`` as indented JSON and a newline to a path or an open handle."""
    if isinstance(fp, str):
        with open(fp, "w") as handle:
            _dump_json(doc, handle)
        return
    json.dump(doc, fp, indent=2)
    fp.write("\n")


def _load_json(fp: IO[str] | str):
    """Parse one JSON document from a path or an open handle."""
    if isinstance(fp, str):
        with open(fp) as handle:
            return json.load(handle)
    return json.load(fp)


def _integer(x) -> int:
    """An integer field of a JSON document: 2 and 2.0 read as 2, while 2.9,
    true and "2" are refused rather than rounded or converted."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    raise ValueError(f"{x!r} is not an integer")


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
    """A real scalar field of a JSON document, read as by :func:`_reals`;
    a list, even of one number, is refused naming ``field``."""
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
    args = _read_doc("model document", doc, lambda d: dict(
        alphabet_size=_integer(d["alphabet_size"]),
        num_types=_integer(d["num_types"]),
        p0=_real(d["p0"], "p0"),
        p=_real(d["p"], "p"),
        nu=_reals(d["nu"], "nu"),
        f=_reals(d["densities"], "densities"),
        c=_real(d["delay_cost"], "delay_cost"),
        a=_reals(d["terminal_costs"], "terminal_costs"),
    ))
    return ProblemSpec(**args)


def save_spec(spec: ProblemSpec, fp: IO[str] | str) -> None:
    _dump_json(spec_to_dict(spec), fp)


def load_spec(fp: IO[str] | str) -> ProblemSpec:
    """Read and validate a problem instance from a JSON document."""
    return spec_from_dict(_load_json(fp))


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


def save_sa_spec(sa: SuspendedAnimationSpec, fp: IO[str] | str) -> None:
    _dump_json(sa_to_dict(sa), fp)


def load_sa_spec(fp: IO[str] | str) -> SuspendedAnimationSpec:
    """Read a suspended-animation system description from JSON."""
    args = _read_doc("system document", _load_json(fp), lambda d: dict(
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
