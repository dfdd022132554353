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
r_i(pi)^2 = 4/3 * ((1 + sum(pi^2))/2 - pi_i).  The angle is
arcsin(pi_{i-1} / r_i), so a curve about corner 1 is read by the no-change
mass and one about corner 2 by the type-1 mass; the far corners sit at
angles 0 and 60 degrees.

Curves are penalized least-squares cubic splines: minimize the sum of
squared residuals plus lambda times the integrated squared second
derivative, over splines on K uniform segments spanning the samples.  The
basis is the clamped cubic B-spline family (K+3 functions); the roughness
matrix is exact (two-point Gauss quadrature on each segment integrates the
piecewise-quadratic integrand exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .model import (
    ProblemSpec, _check_int, _dump_json, _integer, _load_json, _nonnegative, _read_doc, _real,
    _reals
)
from .posterior import _check_finite, h_values_many
from .regions import StoppingRegion, boundary_nodes

__all__ = [
    "InsufficientBoundary",
    "SplineBoundary",
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

#: Smoothing-parameter grid searched by cross-validation.
LAMBDA_GRID = np.logspace(-9.0, 1.0, 21)

#: Largest second difference at the knots that ``is_concave`` accepts.
_CONCAVE_EPS = 1e-6


class InsufficientBoundary(ValueError):
    """Too few boundary samples to determine the spline basis."""


def _corner_sq(pis: np.ndarray, corner: int) -> np.ndarray:
    """(1 + sum(pi^2))/2 - pi_c of each row of the (n, 3) array ``pis``:
    3/4 of its squared distance from corner c, up to rounding."""
    return (1.0 + np.add.reduce(pis * pis, axis=-1)) / 2.0 - pis[:, corner]


def _polar(pis: np.ndarray, corner: int) -> tuple[np.ndarray, np.ndarray]:
    """Corner radius r and angle beta, both of shape (n,), of each row of
    the (n, 3) array ``pis`` seen from corner 1 or 2; rows with r = 0 sit
    at the corner and get angle 0, which is of no use."""
    pis = np.asarray(pis, dtype=np.float64)
    return _polar_of(pis, corner, _corner_sq(pis, corner))


def _polar_of(pis: np.ndarray, corner: int, sq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_polar`` of rows whose ``_corner_sq`` is ``sq``."""
    r = np.sqrt(4.0 / 3.0 * np.maximum(sq, 0.0))
    # left at angle 0 where r = 0
    beta = np.zeros(pis.shape[0])
    np.divide(pis[:, corner - 1], r, out=beta, where=r > 0.0)
    beta.clip(0.0, 1.0, out=beta)
    return r, np.arcsin(beta, out=beta)


def boundary_samples(region: StoppingRegion, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar samples (beta, r) of the type-j stopping boundary, beta-sorted.

    Samples are the Stop(j) nodes adjacent to the continuation set, seen
    from corner j.  The corner node itself, should it ever surface as a
    boundary node, has no angle and is dropped.
    """
    if region.grid.M != 2:
        raise ValueError("boundary curves are defined for the 2-type problem")
    if _check_int("j", j, None) not in (1, 2):
        raise ValueError(f"corner j={j} is not a type of the 2-type model")
    r, beta = _polar(region.grid.nodes[boundary_nodes(region, j)], j)
    live = r > 0.0
    r, beta = r[live], beta[live]
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
    ``_reach``, built with it, bounds max(g(beta), 0) from above over the
    angles 0 <= beta <= pi/2 that ``_polar`` returns: on each piece's share
    of that range the cubic lies below its largest Bernstein coefficient,
    and a margin of 1e-9 times the size of the piece's terms covers the
    rounding of that bound and of ``evaluate_boundary``.  On "merged"
    (Q=200, K=12) it is 0.79981, against a sampled maximum of 0.79955.

    Raises:
        ValueError: the corner is not 1 or 2, a knot or a coefficient is
            not finite, the knots are not a 1-D strictly increasing array
            of two or more, the coefficients do not have shape
            (knots.size + 2,), or ``lam`` or ``rms`` is negative or not
            finite.
    """

    corner: int
    knots: np.ndarray
    coefficients: np.ndarray
    lam: float
    rms: float
    _pieces: np.ndarray = field(init=False, repr=False, compare=False)
    _reach: float = field(init=False, repr=False, compare=False)

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
        for name, value in (("lambda", self.lam), ("rms", self.rms)):
            _nonnegative(f"boundary curve for corner {self.corner}: {name}", value)
        t = _full_knots(knots)
        # one column per knot (the first twice): the knot, then g's d-th
        # derivative there over d!; c2 = c3 = 0 turns the end columns into
        # the lines
        taylor = [_bspline(*_splder(t, coef, 3, d), knots) / (1, 1, 2, 6)[d]
                  for d in range(4)]
        pieces = np.vstack([knots, *taylor])[:, np.r_[0, : knots.size]]
        pieces[3:, [0, -1]] = 0.0
        object.__setattr__(self, "_pieces", pieces)
        object.__setattr__(self, "_reach", _reach(pieces, knots))


def _reach(pieces: np.ndarray, knots: np.ndarray) -> float:
    """An upper bound of max(g(beta), 0) over 0 <= beta <= pi/2, the angles
    ``_polar`` returns.

    Each piece's cubic, restricted to its part [lo, hi] of that range, is
    written in the Bernstein basis of [lo - base, hi - base]; the cubic
    lies below its largest Bernstein coefficient there (the convex hull
    property).  The margin 1e-9 (1 + the largest |c_d u^d| over those
    pieces) exceeds the rounding of this conversion and of Horner's rule
    in ``evaluate_boundary``.
    """
    lo = np.maximum(np.r_[-np.inf, knots], 0.0)
    hi = np.minimum(np.r_[knots, np.inf], np.pi / 2)
    used = lo <= hi
    base, c0, c1, c2, c3 = pieces[:, used]
    a, b = lo[used] - base, hi[used] - base
    w = b - a
    # the cubic in t = (u - a)/w, then its Bernstein coefficients
    d0 = ((c3 * a + c2) * a + c1) * a + c0
    d1 = w * ((3.0 * c3 * a + 2.0 * c2) * a + c1)
    d2 = w * w * (3.0 * c3 * a + c2)
    d3 = w * w * w * c3
    bern = np.stack([d0, d0 + d1 / 3.0, d0 + (2.0 * d1 + d2) / 3.0, d0 + d1 + d2 + d3])
    m = np.maximum(np.abs(a), np.abs(b))
    scale = np.abs(c0) + (np.abs(c1) + (np.abs(c2) + np.abs(c3) * m) * m) * m
    return float(max(bern.max(), 0.0) + 1e-9 * (1.0 + scale.max()))


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
    beta: np.ndarray, r: np.ndarray, K: int
) -> tuple[np.ndarray, np.ndarray, float, float, float]:
    """Fit the penalized cubic spline to samples (beta, r).

    The smoothing parameter is picked by 5-fold cross-validation on a fixed
    log grid; folds are round-robin over the beta-sorted samples so every
    fold spans the angular range, and the whole procedure is deterministic.

    :param K: number of uniform spline segments over the sample range.
    :return: (breakpoints, coefficients, lam, rms of fitted residuals,
        cross-validation SSE of the chosen lam).
    :raises ValueError: for K not an integer of at least 1.
    """
    if _check_int("K", K, None) < 1:
        raise ValueError(f"K={K} spline segments must be at least 1")
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

    order = np.argsort(beta, kind="stable")
    # each fold's validation rows (in angle order) and training rows, picked
    # once for every candidate lam
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

    coef = _solve_penalized(phi, curvature, r, lam)
    resid = r - phi @ coef
    rms = float(np.sqrt(np.mean(resid * resid)))
    return breaks, coef, lam, rms, float(best_score)


def fit_boundary(region: StoppingRegion, j: int, K: int) -> SplineBoundary:
    """Extract boundary samples for type ``j`` and fit their polar curve,
    with the smoothing parameter picked by cross-validation.

    Raises:
        InsufficientBoundary: fewer than K+4 usable boundary samples.
    """
    beta, r = boundary_samples(region, j)
    breaks, coef, lam_used, rms, _ = fit_spline(beta, r, K)
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


def is_concave(sb: SplineBoundary) -> bool:
    """Whether the fitted curve's second differences at the knots stay
    below ``_CONCAVE_EPS`` (the knots are uniform, so this is a shape
    check)."""
    g = sb._pieces[1, 1:]
    d2 = g[2:] - 2.0 * g[1:-1] + g[:-2]
    return bool(np.all(d2 <= _CONCAVE_EPS))


def fast_member_many(
    spec: ProblemSpec, boundaries: Mapping[int, SplineBoundary], pis: np.ndarray
) -> np.ndarray:
    """Online stopping check for a batch of posteriors, shape (n, 3).

    Computes each row's cheapest terminal decision i, then tests membership
    in that single stopping set by comparing the posterior's corner radius
    to the fitted boundary radius at its angle.  Only the curves of decisions
    some row picks are consulted; at the corner itself the answer is
    immediate since every stopping set contains its own corner.

    Most rows continue without an angle or a curve evaluation.  A row whose
    ``_polar`` quantity sq = (1 + sum(pi^2))/2 - pi_i exceeds
    3/4 reach^2 (1 + 1e-8), reach being the curve's ``_reach``, has
    r = sqrt(4/3 sq) > reach >= max(g(beta), 0) at whatever angle beta
    ``_polar`` would give it, so the exact test r <= max(g(beta), 0)
    fails; the factor 1 + 1e-8 covers the rounding of r.  Every other row
    takes the exact path with the sq already computed.

    :return: int8 array, the announced type per row or 0 to continue.
    :raises ValueError: for ``pis`` that is not 2-D with rows 3 long, or a
        row with a coordinate that is not finite.
    """
    pis = np.asarray(pis, dtype=np.float64)
    if pis.ndim != 2 or pis.shape[1] != 3:
        raise ValueError(f"fast membership needs 2-type posteriors, shape (n, 3), not {pis.shape}")
    _check_finite(pis)
    h_all = h_values_many(spec, pis)
    # the cheapest type is 2 where strictly cheaper, else 1: the first on
    # ties, as ``posterior._announce`` picks
    second = h_all[:, 1] < h_all[:, 0]
    stop = np.zeros(pis.shape[0], dtype=bool)
    for corner, picked in ((1, ~second), (2, second)):
        rows = picked.nonzero()[0]
        if not rows.size:
            continue
        sb = boundaries[corner]
        near = pis.T.take(rows, axis=1).T
        sq = _corner_sq(near, corner)
        # beyond the curve's reach a row continues
        reached = ~(sq > 0.75 * sb._reach * sb._reach * (1.0 + 1e-8))
        count = np.count_nonzero(reached)
        if not count:
            continue
        if count < rows.size:
            keep = reached.nonzero()[0]
            rows, near, sq = rows.take(keep), near.take(keep, axis=0), sq.take(keep)
        r, beta = _polar_of(near, corner, sq)
        # r >= 0, and r = 0 (the corner) stops whatever the curve says
        stop[rows] = r <= np.maximum(evaluate_boundary(sb, beta), 0.0)
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


def save_boundary(sb: SplineBoundary, path: str) -> None:
    _dump_json(_sb_to_dict(sb), path)


def save_boundaries(boundaries: Iterable[SplineBoundary], path: str) -> None:
    """Write several fitted curves as one JSON array (one per corner)."""
    _dump_json([_sb_to_dict(sb) for sb in boundaries], path)


def load_boundaries(path: str) -> dict[int, SplineBoundary]:
    """Read one curve or an array of curves with distinct corners, keyed by corner."""
    doc = _load_json(path)
    out = {}
    for entry in doc if isinstance(doc, list) else [doc]:
        sb = _sb_from_dict(entry)
        if sb.corner in out:
            raise ValueError(f"two boundary curves for corner {sb.corner}")
        out[sb.corner] = sb
    return out
