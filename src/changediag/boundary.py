"""Compressed stopping-set boundaries for fast online membership.

Deciding whether the running posterior sits in a stopping set by value
interpolation requires the whole table at query time.  For the 2-type
problem the stopping sets are star-shaped around their own corners, so
each boundary compresses to a single function r = g_j(beta): the distance
from the corner to the boundary, as a function of the angle at which the
posterior is seen from that corner, both measured in the plane embedding
of the simplex.  A posterior is then in the stopping set of its own best
decision exactly when its radius is below the fitted curve, and the online
check costs one angle, one spline evaluation, and one comparison.

The squared corner distance has a closed form in the simplex coordinates:
r_i(pi)^2 = c_M * ((1 + sum(pi^2))/2 - pi_i), with c_M = 4/3 for two types
and 3/2 for three.  Angles are arcsin(pi_j / r_i) for designated
coordinates j, one per remaining degree of freedom; the designation is a
fixed convention recorded with every fitted boundary.

Curves are penalized least-squares cubic splines: minimize the sum of
squared residuals plus lambda times the integrated squared second
derivative, over splines on K uniform segments spanning the samples.  The
basis is the clamped cubic B-spline family (K+3 functions); the roughness
matrix is exact (two-point Gauss quadrature on each segment integrates the
piecewise-quadratic integrand exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Mapping

import numpy as np

from .model import (
    ProblemSpec, _dump_json, _integer, _load_json, _read_doc, _real, _reals
)
from .posterior import _announce, h_values_many
from .regions import StoppingRegion, boundary_nodes

__all__ = [
    "DegenerateCorner",
    "InsufficientBoundary",
    "PolarPoint",
    "SplineBoundary",
    "corner_radius",
    "to_polar",
    "from_polar",
    "boundary_samples",
    "fit_spline",
    "fit_boundary",
    "evaluate_boundary",
    "fast_member",
    "fast_member_many",
    "is_concave",
    "save_boundary",
    "save_boundaries",
    "load_boundaries",
]

#: Scale constants of the distance form, per simplex dimension M.
C_M = {2: 4.0 / 3.0, 3: 1.5}

#: Smoothing-parameter grid searched by cross-validation.
LAMBDA_GRID = np.logspace(-9.0, 1.0, 21)


class DegenerateCorner(ValueError):
    """Polar coordinates requested at the corner itself (radius zero)."""


class InsufficientBoundary(ValueError):
    """Too few boundary samples to determine the spline basis."""


@dataclass(frozen=True)
class PolarPoint:
    """A posterior seen from one simplex corner.

    ``beta`` holds arcsin(pi_j / r) for each designated coordinate j; the
    designation drops the largest non-corner index (for M=2 this leaves
    the single coordinate (corner+2) mod 3).
    """

    corner: int
    r: float
    beta: tuple[float, ...]


def _designated(M: int, corner: int) -> tuple[list[int], int]:
    """Coordinates encoded as angles, and the coordinate left implicit."""
    if M == 2:
        keep = [(corner + 2) % 3]
        dropped = 3 - corner - keep[0]
    elif M == 3:
        others = sorted(set(range(4)) - {corner})
        keep, dropped = others[:2], others[2]
    else:
        raise ValueError(f"polar coordinates defined for 2 or 3 types, not M={M}")
    return keep, dropped


def corner_radius(pi: np.ndarray, corner: int) -> float:
    """Embedded Euclidean distance from ``pi`` to the corner."""
    pi = np.asarray(pi, dtype=np.float64)
    M = pi.shape[-1] - 1
    sq = (1.0 + (pi * pi).sum(axis=-1)) / 2.0 - pi[..., corner]
    return np.sqrt(C_M[M] * np.maximum(sq, 0.0))


def _polar(pis: np.ndarray, corner: int) -> tuple[np.ndarray, np.ndarray]:
    """Corner radius r, shape (n,), and angles beta, shape (n, M-1), of each
    row of ``pis``; rows with r = 0 sit at the corner and get no usable
    angle."""
    keep, _ = _designated(pis.shape[1] - 1, corner)
    r = corner_radius(pis, corner)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.arcsin(np.clip(pis[:, keep] / r[:, None], 0.0, 1.0))
    return r, beta


def to_polar(pi: np.ndarray, corner: int) -> PolarPoint:
    """Express a posterior as (radius, angles) at one corner.

    Raises:
        DegenerateCorner: at the corner itself, where angles are undefined.
    """
    r, beta = _polar(np.asarray(pi, dtype=np.float64)[None, :], corner)
    if r[0] <= 0.0:
        raise DegenerateCorner(f"posterior sits at corner {corner}")
    return PolarPoint(corner=corner, r=float(r[0]), beta=tuple(beta[0].tolist()))


def from_polar(point: PolarPoint) -> np.ndarray:
    """Invert to_polar.

    The designated coordinates come straight from the angles; the corner
    coordinate solves a quadratic whose smaller root is the only one inside
    the simplex, and the dropped coordinate takes the remaining mass.
    """
    M = len(point.beta) + 1
    keep, dropped = _designated(M, point.corner)
    pi = np.zeros(M + 1)
    if point.r <= 0.0:
        pi[point.corner] = 1.0
        return pi
    known = point.r * np.sin(np.asarray(point.beta))
    t = 1.0 - float(known.sum())
    q = float(np.dot(known, known))
    const = (t * t + 1.0 + q - 2.0 * point.r * point.r / C_M[M]) / 2.0
    disc = (t + 1.0) ** 2 - 4.0 * const
    u = ((t + 1.0) - np.sqrt(max(disc, 0.0))) / 2.0
    pi[keep] = known
    pi[point.corner] = u
    pi[dropped] = t - u
    np.clip(pi, 0.0, None, out=pi)
    return pi / pi.sum()


def boundary_samples(
    region: StoppingRegion, j: int, node_ids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Polar samples (beta, r) of the type-j stopping boundary, beta-sorted.

    Samples are the Stop(j) nodes adjacent to the continuation set (or an
    explicit node subset, for held-out evaluation), seen from corner j.
    The corner node itself, should it ever surface as a boundary node, has
    no angle and is dropped.
    """
    if region.grid.M != 2:
        raise ValueError("boundary curves are defined for the 2-type problem")
    if j not in (1, 2):
        raise ValueError(f"corner j={j} is not a type of the 2-type model")
    if node_ids is None:
        node_ids = boundary_nodes(region, j)
    r, beta = _polar(region.grid.nodes[node_ids], j)
    live = r > 0.0
    r, beta = r[live], beta[live, 0]
    order = np.argsort(beta, kind="stable")
    return beta[order], r[order]


# ---------------------------------------------------------------------------
# Penalized spline machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SplineBoundary:
    """Fitted boundary curve r = g(beta) for one stopping set.

    ``knots`` are the K+1 uniform breakpoints of a K-segment clamped cubic
    spline, so ``coefficients`` has K+3 entries.  Outside the knot span the
    curve continues linearly from the end value and slope.  The spline and
    its end values and slopes are built once, when the curve is made.

    Raises:
        ValueError: a knot or a coefficient is not finite, the knots are
            not a 1-D strictly increasing array of two or more, or the
            coefficients do not have shape (knots.size + 2,).
    """

    corner: int
    knots: np.ndarray
    coefficients: np.ndarray
    lam: float
    rms: float
    _spline: object = field(init=False, repr=False, compare=False)
    _ends: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        from scipy.interpolate import BSpline

        knots, coef = self.knots, self.coefficients
        if not (np.isfinite(knots).all() and np.isfinite(coef).all()):
            raise ValueError(
                f"boundary curve for corner {self.corner} has a non-finite "
                "knot or coefficient"
            )
        if knots.ndim != 1 or knots.size < 2 or np.any(np.diff(knots) <= 0):
            raise ValueError(
                f"boundary curve for corner {self.corner} needs two or more "
                "strictly increasing knots in a 1-D array"
            )
        if coef.shape != (knots.size + 2,):
            raise ValueError(
                f"boundary curve for corner {self.corner} has coefficients of "
                f"shape {coef.shape}, expected ({knots.size + 2},)"
            )
        spl = BSpline(_full_knots(knots), coef, 3)
        ends = knots[[0, -1]]
        object.__setattr__(self, "_spline", spl)
        # value and slope at each end knot, for the linear extension
        object.__setattr__(self, "_ends", (spl(ends), spl.derivative(1)(ends)))

    def __call__(self, beta):
        return evaluate_boundary(self, beta)


def _full_knots(breaks: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [np.repeat(breaks[0], 3), breaks, np.repeat(breaks[-1], 3)]
    )


def _design(t: np.ndarray, x: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Evaluate every cubic B-spline basis function (column) at ``x``."""
    from scipy.interpolate import BSpline

    basis = BSpline(t, np.eye(t.size - 4), 3)
    if deriv:
        basis = basis.derivative(deriv)
    return basis(np.clip(x, t[0], t[-1]))


def _curvature_rows(t: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """Quadrature root G of the roughness matrix (omega = G.T @ G).

    Two-point Gauss rows per segment integrate the piecewise-quadratic
    products of basis second derivatives exactly.
    """
    mid = (breaks[1:] + breaks[:-1]) / 2.0
    half = (breaks[1:] - breaks[:-1]) / 2.0
    g = 1.0 / np.sqrt(3.0)
    xs = np.concatenate([mid - half * g, mid + half * g])
    ws = np.concatenate([half, half])
    d2 = _design(t, xs, deriv=2)
    return np.sqrt(ws)[:, None] * d2


def _solve_penalized(
    phi: np.ndarray, curvature: np.ndarray, r: np.ndarray, lam: float
) -> np.ndarray:
    # stacked least squares keeps the data block alive however large lam
    # gets, so the smooth limit is the least-squares line rather than the
    # rounded-off normal equations
    stacked = np.vstack([phi, np.sqrt(lam) * curvature])
    rhs = np.concatenate([r, np.zeros(curvature.shape[0])])
    return np.linalg.lstsq(stacked, rhs, rcond=None)[0]


def fit_spline(
    beta: np.ndarray,
    r: np.ndarray,
    K: int,
    lam: float | None = None,
) -> tuple[np.ndarray, np.ndarray, float, float, float | None]:
    """Fit the penalized cubic spline to samples (beta, r).

    With ``lam`` None, picks the smoothing parameter by 5-fold
    cross-validation on a fixed log grid; folds are round-robin over the
    beta-sorted samples so every fold spans the angular range, and the
    whole procedure is deterministic.

    :param K: number of uniform spline segments over the sample range.
    :return: (breakpoints, coefficients, lam, rms of fitted residuals,
        cross-validation SSE of the chosen lam, or None when lam was given).
    :raises ValueError: for K < 1 or a negative or non-finite ``lam``.
    """
    if K < 1:
        raise ValueError(f"K={K} spline segments must be at least 1")
    if lam is not None and not 0.0 <= lam < np.inf:
        raise ValueError(f"lam={lam} must be finite and nonnegative")
    beta = np.asarray(beta, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if beta.size < K + 4:
        raise InsufficientBoundary(
            f"{beta.size} samples cannot determine a {K}-segment spline "
            f"(needs at least {K + 4})"
        )
    lo, hi = float(beta.min()), float(beta.max())
    if hi <= lo:
        raise InsufficientBoundary("all samples share one angle")
    breaks = np.linspace(lo, hi, K + 1)
    t = _full_knots(breaks)
    phi = _design(t, beta)
    curvature = _curvature_rows(t, breaks)

    cv_score = None
    if lam is None:
        order = np.argsort(beta, kind="stable")
        best, best_score = LAMBDA_GRID[0], np.inf
        for cand in LAMBDA_GRID:
            sse = 0.0
            for fold in range(5):
                val = order[fold::5]
                train = np.setdiff1d(order, val)
                coef = _solve_penalized(phi[train], curvature, r[train], cand)
                resid = r[val] - phi[val] @ coef
                sse += float(resid @ resid)
            if sse <= best_score:
                best, best_score = cand, sse
        lam = float(best)
        cv_score = float(best_score)

    coef = _solve_penalized(phi, curvature, r, lam)
    resid = r - phi @ coef
    rms = float(np.sqrt(np.mean(resid * resid)))
    return breaks, coef, float(lam), rms, cv_score


def fit_boundary(
    region: StoppingRegion,
    j: int,
    K: int,
    lam: float | None = None,
    node_ids: np.ndarray | None = None,
) -> SplineBoundary:
    """Extract boundary samples for type ``j`` and fit their polar curve.

    Raises:
        InsufficientBoundary: fewer than K+4 usable boundary samples.
    """
    beta, r = boundary_samples(region, j, node_ids)
    breaks, coef, lam_used, rms, _ = fit_spline(beta, r, K, lam)
    return SplineBoundary(
        corner=j, knots=breaks, coefficients=coef, lam=lam_used, rms=rms
    )


def evaluate_boundary(sb: SplineBoundary, beta) -> np.ndarray | float:
    """Fitted radius at the given angle(s), linear beyond the end knots."""
    x = np.asarray(beta, dtype=np.float64)
    single = x.ndim == 0
    x = np.atleast_1d(x)
    lo, hi = sb.knots[0], sb.knots[-1]
    (g_lo, g_hi), (s_lo, s_hi) = sb._ends
    out = sb._spline(np.clip(x, lo, hi))
    left, right = x < lo, x > hi
    out[left] = g_lo + s_lo * (x[left] - lo)
    out[right] = g_hi + s_hi * (x[right] - hi)
    return float(out[0]) if single else out


def is_concave(sb: SplineBoundary, eps: float = 1e-6) -> bool:
    """Whether the fitted curve's second differences at the knots stay
    below ``eps`` (the knots are uniform, so this is a shape check)."""
    g = evaluate_boundary(sb, sb.knots)
    d2 = g[2:] - 2.0 * g[1:-1] + g[:-2]
    return bool(np.all(d2 <= eps))


def fast_member_many(
    spec: ProblemSpec, boundaries: Mapping[int, SplineBoundary], pis: np.ndarray
) -> np.ndarray:
    """Online stopping check for a batch of posteriors, shape (n, 3).

    Computes each row's cheapest terminal decision i, then tests membership
    in that single stopping set by comparing the posterior's corner radius
    to the fitted boundary radius at its angle.  Only the curves of decisions
    some row picks are consulted; at the corner itself the answer is
    immediate since every stopping set contains its own corner.

    :return: int8 array, the announced type per row or 0 to continue.
    """
    if pis.shape[1] != 3:
        raise ValueError("fast membership is built for the 2-type problem")
    cheapest = _announce(h_values_many(spec, pis), True)
    stop = np.zeros(pis.shape[0], dtype=bool)
    for corner in (1, 2):
        rows = np.flatnonzero(cheapest == corner)
        if rows.size == 0:
            continue
        r, beta = _polar(pis[rows], corner)
        ghat = np.full(rows.size, np.inf)
        live = r > 0.0
        if np.any(live):
            ghat[live] = boundaries[corner](beta[live, 0])
        stop[rows] = r <= ghat
    return cheapest * stop


def fast_member(
    spec: ProblemSpec, boundaries: Mapping[int, SplineBoundary], pi: np.ndarray
) -> int | None:
    """Online stopping check: the announced type, or None to continue."""
    return int(fast_member_many(spec, boundaries, pi[None, :])[0]) or None


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------


def _sb_to_dict(sb: SplineBoundary) -> dict:
    return {
        "corner": sb.corner,
        "knots": sb.knots.tolist(),
        "coefficients": sb.coefficients.tolist(),
        "lambda": sb.lam,
        "rms": sb.rms,
    }


def _sb_from_dict(doc: Mapping) -> SplineBoundary:
    args = _read_doc("boundary curve", doc, lambda d: dict(
        corner=_integer(d["corner"]),
        knots=_reals(d["knots"], "knots"),
        coefficients=_reals(d["coefficients"], "coefficients"),
        lam=_real(d["lambda"], "lambda"),
        rms=_real(d["rms"], "rms"),
    ))
    return SplineBoundary(**args)


def save_boundary(sb: SplineBoundary, fp: IO[str] | str) -> None:
    _dump_json(_sb_to_dict(sb), fp)


def save_boundaries(boundaries: Iterable[SplineBoundary], fp: IO[str] | str) -> None:
    """Write several fitted curves as one JSON array (one per corner)."""
    _dump_json([_sb_to_dict(sb) for sb in boundaries], fp)


def load_boundaries(fp: IO[str] | str) -> dict[int, SplineBoundary]:
    """Read one curve or an array of curves with distinct corners, keyed by corner."""
    doc = _load_json(fp)
    out = {}
    for entry in doc if isinstance(doc, list) else [doc]:
        sb = _sb_from_dict(entry)
        if sb.corner in out:
            raise ValueError(f"two boundary curves for corner {sb.corner}")
        out[sb.corner] = sb
    return out
