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
from .posterior import h_values_many
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
    sq = (1.0 + np.add.reduce(pi * pi, axis=-1)) / 2.0 - pi[..., corner]
    return np.sqrt(C_M[pi.shape[-1] - 1] * np.maximum(sq, 0.0))


def _polar(pis: np.ndarray, corner: int) -> tuple[np.ndarray, np.ndarray]:
    """Corner radius r, shape (n,), and angles beta, shape (n, M-1), of each
    row of ``pis``; rows with r = 0 sit at the corner and get angle 0,
    which is of no use."""
    keep, _ = _designated(pis.shape[1] - 1, corner)
    r = corner_radius(pis, corner)
    # one line per angle, left at angle 0 where r = 0
    beta = np.zeros((len(keep), pis.shape[0]))
    np.divide(pis.T.take(keep, axis=0), r, out=beta, where=r > 0.0)
    beta.clip(0.0, 1.0, out=beta)
    return r, np.arcsin(beta, out=beta).T


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
    curve continues linearly from the end value and slope.  The piece
    table, built when the curve is made, has rows (base, c0, c1, c2, c3)
    and a column per piece, g(x) = c0 + c1 u + c2 u^2 + c3 u^3 with
    u = x - base: the line left of the first knot, each segment's Taylor
    expansion at its left knot, and the line right of the last knot.

    Raises:
        ValueError: the corner is not 1 or 2, a knot or a coefficient is
            not finite, the knots are not a 1-D strictly increasing array
            of two or more, or the coefficients do not have shape
            (knots.size + 2,).
    """

    corner: int
    knots: np.ndarray
    coefficients: np.ndarray
    lam: float
    rms: float
    _pieces: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        knots, coef = self.knots, self.coefficients
        if self.corner not in (1, 2):
            raise ValueError(
                f"boundary curve for corner {self.corner}: not a type of the "
                "2-type model"
            )
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
        t = _full_knots(knots)
        # one column per knot (the first twice): the knot, then g's d-th
        # derivative there over d!; c2 = c3 = 0 turns the end columns into
        # the lines
        taylor = [_bspline(*_splder(t, coef, 3, d), knots) / (1, 1, 2, 6)[d]
                  for d in range(4)]
        pieces = np.vstack([knots, *taylor])[:, np.r_[0, : knots.size]]
        pieces[3:, [0, -1]] = 0.0
        object.__setattr__(self, "_pieces", pieces)

    def __call__(self, beta):
        return evaluate_boundary(self, beta)

    @property
    def _ends(self) -> tuple[np.ndarray, np.ndarray]:
        """Value and slope at each end knot, as the end lines hold them."""
        return self._pieces[1, [0, -1]], self._pieces[2, [0, -1]]


def _full_knots(breaks: np.ndarray) -> np.ndarray:
    return np.concatenate(
        [np.repeat(breaks[0], 3), breaks, np.repeat(breaks[-1], 3)]
    )


def _splder(
    t: np.ndarray, c: np.ndarray, k: int, nu: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Knots, coefficients and degree of the ``nu``-th derivative of the
    spline (t, c, k), in the arithmetic of the reference B-spline library
    that ``tests/test_boundary.py`` checks it against bit for bit."""
    c = np.concatenate([c, np.zeros((t.size - c.shape[0],) + c.shape[1:])])
    for _ in range(nu):
        dt = (t[k + 1 : -1] - t[1 : -k - 1]).reshape((-1,) + (1,) * (c.ndim - 1))
        c = (c[1 : -1 - k] - c[: -2 - k]) * k / dt
        c = np.concatenate([c, np.zeros((k,) + c.shape[1:])])
        t, k = t[1:-1], k - 1
    return t, c, k


def _bspline(t: np.ndarray, c: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """The spline (t, c, k) at the points ``x``, one row per point when c
    is 2-D.

    de Boor's recursion ("On calculating with B-splines", 1972) on the
    interval t[m] <= x < t[m+1], m clipped to [k, t.size-k-2], with the
    operations in the order of the reference library's compiled evaluator,
    so the result is bitwise the same (``tests/test_boundary.py``).  The
    knots are strictly increasing away from the clamped ends, so no
    denominator is zero.
    """
    m = np.clip(np.searchsorted(t, x, "right") - 1, k, t.size - k - 2)
    h = np.zeros((x.size, k + 1))
    h[:, 0] = 1.0
    for j in range(1, k + 1):
        hh = h[:, :j].copy()
        h[:, 0] = 0.0
        for n in range(1, j + 1):
            xb, xa = t[m + n], t[m + n - j]
            w = hh[:, n - 1] / (xb - xa)
            h[:, n - 1] += w * (xb - x)
            h[:, n] = w * (x - xa)
    out = 0.0
    for a in range(k + 1):
        weight = h[:, a].reshape((-1,) + (1,) * (c.ndim - 1))
        out = out + c[m + a - k] * weight
    return out


def _design(t: np.ndarray, x: np.ndarray, deriv: int = 0) -> np.ndarray:
    """Evaluate every cubic B-spline basis function (column) at ``x``."""
    return _bspline(*_splder(t, np.eye(t.size - 4), 3, deriv), np.clip(x, t[0], t[-1]))


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
        # each fold's validation rows (in angle order) and training rows,
        # picked once for every candidate lam
        splits = []
        for fold in range(5):
            val = order[fold::5]
            train = np.ones(beta.size, dtype=bool)
            train[val] = False
            splits.append((phi[val], r[val], phi[train], r[train]))
        best, best_score = LAMBDA_GRID[0], np.inf
        for cand in LAMBDA_GRID:
            sse = 0.0
            for phi_val, r_val, phi_train, r_train in splits:
                coef = _solve_penalized(phi_train, curvature, r_train, cand)
                resid = r_val - phi_val @ coef
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
    """Fitted radius at the given angle(s), linear beyond the end knots:
    each angle's piece by one search over the knots, then Horner's rule."""
    x = np.asarray(beta, dtype=np.float64)
    base, c0, c1, c2, c3 = sb._pieces.take(np.searchsorted(sb.knots, x, "right"), axis=1)
    u = x - base
    out = ((c3 * u + c2) * u + c1) * u + c0
    return float(out) if out.ndim == 0 else out


def is_concave(sb: SplineBoundary, eps: float = 1e-6) -> bool:
    """Whether the fitted curve's second differences at the knots stay
    below ``eps`` (the knots are uniform, so this is a shape check)."""
    g = sb._pieces[1, 1:]
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
    h_all = h_values_many(spec, pis)
    # the cheapest type is 2 where strictly cheaper, else 1: the first on
    # ties, as ``posterior._announce`` picks
    second = h_all[:, 1] < h_all[:, 0]
    stop = np.empty(pis.shape[0], dtype=bool)
    for corner, picked in ((1, ~second), (2, second)):
        rows = picked.nonzero()[0]
        if rows.size:
            r, beta = _polar(pis.T.take(rows, axis=1).T, corner)
            # r >= 0, and r = 0 (the corner) stops whatever the curve says
            stop[rows] = r <= np.maximum(boundaries[corner](beta[:, 0]), 0.0)
    return np.multiply(1 + second, stop, dtype=np.int8, casting="unsafe")


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
