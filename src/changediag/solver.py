"""Value iteration for the optimal stopping problem on a simplex grid.

The optimal cost-to-go V solves V = min(h, c*(1 - pi_0) + T V) where T is
the one-step expectation operator of the posterior chain.  We approximate V
on a regular lattice of the simplex: nodes are the rational points k/Q with
k a nonnegative integer vector summing to Q, and functions are extended off
the nodes by barycentric interpolation over a Kuhn (union-jack) subdivision
of the lattice cells.  Because updating every node's posterior lands on
points whose interpolation stencils never change, the whole sweep collapses
to one sparse matrix-vector product.

The sweep count needed for a target accuracy comes with a guarantee: the
N-sweep table overshoots the fixed point by at most (|h|^2/c + |h|/p)/N in
sup norm, where |h| is the largest value of the stopping cost over the
simplex (beyond M = 8 types, an upper bound on it).  Iteration stops when
either the sup-norm change or that bound drops below the tolerance.

Lattice interpolation notes.  Kuhn subdivision on raw simplex coordinates
can place a query's stencil outside the simplex; we therefore triangulate
in cumulative coordinates v_i = Q * sum(pi_j for j >= i), i = 1..M, where
the simplex becomes the monotone staircase Q >= v_1 >= ... >= v_M >= 0 and
the standard floor/sort construction stays inside it (zero-weight stencil
corners are the only ones that may fall outside, and those are discarded).
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .model import (
    ProblemSpec, _dump_json, _load_json, _read_doc, spec_from_dict, spec_to_dict
)
from .posterior import _announce, _step_weights, h_values_many

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "GridSizeError",
    "SimplexGrid",
    "ValueTable",
    "build_grid",
    "interpolate",
    "interpolate_many",
    "transition_matrix",
    "stopping_cost_sup",
    "apply_T",
    "apply_M",
    "value_iterate",
    "save_table",
    "load_table",
]

#: Refuse to build grids beyond this many nodes (memory guard).
DEFAULT_MAX_NODES = 3_000_000

#: Lattice-unit tolerance for snapping near-integer cumulative coordinates.
SNAP_TOL = 1e-9

#: Most square submatrices of the cost matrix that stopping_cost_sup
#: enumerates; C(2M+1, M) stays within it up to M = 8.
_SUP_CANDIDATES = 24_310

#: Rows of T whose stencils _transition computes at a time; the stencil's
#: temporaries scale with it, not with the grid.
_TRANSITION_ROWS = 8192

_MAGIC = b"CDVT"
_VERSION = 1
_HEADER = struct.Struct("<4sIIIIId8sdddB")


class GridSizeError(ValueError):
    """Requested discretization exceeds the configured node budget."""


@dataclass(frozen=True)
class SimplexGrid:
    """Regular lattice discretization of the M-dimensional simplex.

    Attributes:
        M: simplex dimension (posteriors have M+1 coordinates).
        Q: lattice resolution; node coordinates are multiples of 1/Q.
        lattice: integer coordinates, shape (n_nodes, M+1), rows summing
            to Q, in ascending lexicographic order.
        nodes: lattice / Q as float64.
        lookup: dense index array of shape (Q+1,)*M mapping the tail
            coordinates (k_1, ..., k_M) to the node id (k_0 is implied).
    """

    M: int
    Q: int
    lattice: np.ndarray
    nodes: np.ndarray
    lookup: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.lattice.shape[0]


def _strides(M: int, Q: int) -> np.ndarray:
    """Element strides of the C-ordered lookup, so that
    ``lookup.ravel()[tail @ _strides(M, Q)]`` is ``lookup[tuple(tail)]``."""
    return (Q + 1) ** np.arange(M - 1, -1, -1, dtype=np.int64)


def _compositions(total: int, parts: int) -> np.ndarray:
    """Nonnegative integer vectors of length ``parts`` summing to ``total``,
    in ascending lexicographic order.

    Stars and bars: each vector is a choice of ``parts - 1`` bar positions
    among ``total + parts - 1`` slots, its entries the star counts between
    consecutive bars.  Bar positions enumerated in lexicographic order give
    the vectors in lexicographic order.
    """
    bars = parts - 1
    slots = total + bars
    count = math.comb(slots, bars)
    edges = np.empty((count, parts + 1), dtype=np.int32)
    edges[:, 0] = -1
    edges[:, -1] = slots
    edges[:, 1:-1] = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), bars)),
        dtype=np.int32,
        count=count * bars,
    ).reshape(count, bars)
    return np.diff(edges, axis=1) - 1


def build_grid(M: int, Q: int, max_nodes: int = DEFAULT_MAX_NODES) -> SimplexGrid:
    """Enumerate the lattice {k/Q} on the M-simplex.

    Raises:
        GridSizeError: if C(Q+M, M) exceeds ``max_nodes``.
    """
    if M < 1 or Q < 1:
        raise ValueError(f"need M >= 1 and Q >= 1, got M={M}, Q={Q}")
    count = math.comb(Q + M, M)
    if count > max_nodes:
        raise GridSizeError(
            f"grid M={M}, Q={Q} has {count} nodes, over the cap {max_nodes}"
        )
    lattice = _compositions(Q, M + 1)
    lookup = np.full((Q + 1,) * M, -1, dtype=np.int32)
    lookup.ravel()[lattice[:, 1:] @ _strides(M, Q)] = np.arange(count, dtype=np.int32)
    nodes = lattice.astype(np.float64) / Q
    lattice.setflags(write=False)
    nodes.setflags(write=False)
    lookup.setflags(write=False)
    return SimplexGrid(M=M, Q=Q, lattice=lattice, nodes=nodes, lookup=lookup)


def _stencil(grid: SimplexGrid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation stencils for a batch of simplex points.

    :param points: array of shape (n, M+1) of simplex coordinates.
    :return: (node ids of shape (n, M+1), barycentric weights of the same
        shape); weights are nonnegative and sum to 1 per row.
    """
    M, Q = grid.M, grid.Q
    n = points.shape[0]

    # Cumulative tail sums, scaled to lattice units, then forced into the
    # monotone staircase that the triangulation lives on.
    v = np.cumsum(points[:, ::-1], axis=1)[:, ::-1][:, 1:] * Q
    nearest = np.rint(v)
    v = np.where(np.abs(v - nearest) <= SNAP_TOL, nearest, v)
    v = np.clip(v, 0.0, Q)
    v = np.minimum.accumulate(v, axis=1)

    base = np.floor(v).astype(np.int64)
    frac = v - base

    order = np.argsort(-frac, axis=1, kind="stable")
    frac_sorted = np.take_along_axis(frac, order, axis=1)

    weights = np.empty((n, M + 1))
    weights[:, 0] = 1.0 - frac_sorted[:, 0]
    if M > 1:
        weights[:, 1:M] = frac_sorted[:, : M - 1] - frac_sorted[:, 1:]
    weights[:, M] = frac_sorted[:, M - 1]

    # A unit step along cumulative coordinate i moves tail coordinate i up
    # and tail coordinate i-1 down, a constant offset in the flat lookup.
    # Corner t+1 of the Kuhn simplex is corner t stepped along order[t];
    # zero-weight corners may leave the staircase, so they keep the (always
    # valid) base corner.
    strides = _strides(M, Q)
    step = strides - np.concatenate(([0], strides[:-1]))
    offsets = np.zeros((n, M + 1), dtype=np.int64)
    np.cumsum(step[order], axis=1, out=offsets[:, 1:])
    offsets[~(weights > 0.0)] = 0
    ids = grid.lookup.ravel()[(base @ step)[:, None] + offsets]
    if ids.min() < 0:
        raise RuntimeError("interpolation stencil left the simplex lattice")
    return ids, weights


def interpolate_many(
    grid: SimplexGrid, values: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Piecewise-linear interpolation of per-node values at many points."""
    ids, weights = _stencil(grid, np.atleast_2d(points))
    return np.einsum("nk,nk->n", values[ids], weights)


def interpolate(table: "ValueTable", pi: np.ndarray) -> float:
    """Interpolated table value at a single posterior."""
    return float(interpolate_many(table.grid, table.values, pi[None, :])[0])


def _transition(
    spec: ProblemSpec, grid: SimplexGrid, points: np.ndarray
) -> scipy.sparse.csr_matrix:
    """One-step expectation operator from ``points`` onto the grid.

    Row k holds, for every symbol with positive predictive probability at
    point k, that probability spread over the interpolation stencil of the
    updated posterior.  Rows sum to 1, so (T f) at the points is one sparse
    product, and constants are reproduced exactly.

    The entries are written straight in CSR order: one (point, symbol,
    stencil corner) array of column ids and one of values, from which the
    entries of symbols with zero predictive probability are dropped.  That
    is the in-row order a COO -> CSR conversion of per-symbol blocks gives.
    One row may name a node more than once (two symbols may land on one
    stencil, and zero-weight corners fall back on the base corner), and
    ``sum_duplicates`` adds those entries up in that order, so the matrix
    is bitwise the converted one without building the COO triple.
    """
    import scipy.sparse

    n, k = points.shape[0], grid.M + 1
    cols = np.empty((n, spec.alphabet_size, k), dtype=grid.lookup.dtype)
    vals = np.empty((n, spec.alphabet_size, k))
    live = np.empty((n, spec.alphabet_size), dtype=bool)
    # every row is computed alone, so the blocks change no bit of T
    for lo in range(0, n, _TRANSITION_ROWS):
        block = slice(lo, lo + _TRANSITION_ROWS)
        step = _step_weights(spec, points[block])
        for x in range(spec.alphabet_size):
            num = step * spec.f[:, x]
            total = num.sum(axis=1)
            live[block, x] = rows = total > 0.0
            if not rows.any():
                continue
            ids, weights = _stencil(grid, num[rows] / total[rows, None])
            cols[block][rows, x] = ids
            vals[block][rows, x] = total[rows, None] * weights
    if not live.all():
        cols, vals = cols[live], vals[live]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(live.sum(axis=1) * k, out=indptr[1:])
    T = scipy.sparse.csr_matrix(
        (vals.ravel(), cols.ravel(), indptr), shape=(n, grid.n_nodes)
    )
    T.sum_duplicates()
    return T


def transition_matrix(
    spec: ProblemSpec, grid: SimplexGrid
) -> scipy.sparse.csr_matrix:
    """One-step expectation operator at every grid node, row k at node k."""
    return _transition(spec, grid, grid.nodes)


def stopping_cost_sup(spec: ProblemSpec) -> float:
    """Largest value of the stopping cost h over the whole simplex.

    h(pi) = min_j pi·a[:, j] is a minimum of affine functions, hence concave,
    so its maximum need not sit at a simplex corner.  It is the value of the
    matrix game max over pi of min over j of pi·a[:, j], and by Shapley and
    Snow ("Basic solutions of discrete games", 1950) the game has a basic
    optimal pi: for some square submatrix B = a[I, J] it is 1ᵀB⁻¹ scaled to
    sum to 1 on the rows I, and 0 elsewhere.  The candidates of all
    C(2M+1, M) - 1 submatrices come from one batched ``np.linalg.solve`` per
    size; h is evaluated at the corners and at every candidate that lies in
    the simplex, and the largest of those values is sup h.

    Where C(2M+1, M) exceeds ``_SUP_CANDIDATES`` (M > 8) nothing is
    enumerated and the upper bound min_j max_i a[i, j] is returned instead:
    every pi has h(pi) <= pi·a[:, j] <= max_i a[i, j] for each j.  The
    truncation bound built on it then stays a true bound, only a looser one.
    """
    a = spec.a
    rows, M = a.shape
    if math.comb(2 * M + 1, M) > _SUP_CANDIDATES:
        return float(a.max(axis=0).min())
    best = a.min(axis=1).max()
    for k in range(1, M + 1):
        I = np.array(list(itertools.combinations(range(rows), k)))
        J = np.array(list(itertools.combinations(range(M), k)))
        # Bt[b] is the transpose of a[I[b], J[b]], so Bt x = 1 gives 1ᵀB⁻¹
        Bt = a[I[:, None, None, :], J[None, :, :, None]].reshape(-1, k, k)
        I = np.repeat(I, len(J), axis=0)
        # solve refuses the whole batch if one matrix in it is singular
        solvable = np.linalg.det(Bt) != 0.0
        B = Bt[solvable]
        # a (..., k, 1) right-hand side is one column per matrix under both
        # numpy 1.x and 2.x; a 1-D one is broadcast only from numpy 2.0
        x = np.linalg.solve(B, np.ones(B.shape[:-1] + (1,)))[..., 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = x / x.sum(axis=1, keepdims=True)
        inside = (w >= 0.0).all(axis=1)
        pi = np.zeros((np.count_nonzero(inside), rows))
        np.put_along_axis(pi, I[solvable][inside], w[inside], axis=1)
        best = (pi @ a).min(axis=1).max(initial=best)
    return float(best)


@dataclass
class ValueTable:
    """Result of value iteration on a grid.

    ``values`` approximates the optimal cost-to-go at the nodes; ``labels``
    holds the induced action per node (0 = continue, j = stop and announce
    type j, 1-based), computed at ``stop_tol``.
    """

    grid: SimplexGrid
    values: np.ndarray
    labels: np.ndarray
    iterations: int
    sup_change: float
    error_bound: float
    tol: float
    criterion: str
    converged: bool
    stop_tol: float


def apply_T(spec: ProblemSpec, table: ValueTable, pi: np.ndarray) -> float:
    """One-step expected table value after observing one more symbol."""
    return float((_transition(spec, table.grid, pi[None, :]) @ table.values)[0])


def _labels(h_all: np.ndarray, cont: np.ndarray, stop_tol: float) -> np.ndarray:
    """The Bellman stop rule: stop where h <= cont + ``stop_tol``."""
    return _announce(h_all, h_all.min(axis=1) <= cont + stop_tol)


def apply_M(
    spec: ProblemSpec, table: ValueTable, pi: np.ndarray
) -> tuple[float, int | None]:
    """One dynamic-programming backup at ``pi``.

    :return: (backed-up value, action) where action is None to continue or
        the 1-based type to announce.  Ties go to stopping.
    """
    h_all = h_values_many(spec, pi[None, :])
    cont = spec.c * (1.0 - pi[0]) + apply_T(spec, table, pi)
    j = int(_labels(h_all, np.array([cont]), 0.0)[0])
    return (float(h_all[0, j - 1]), j) if j else (float(cont), None)


def value_iterate(
    spec: ProblemSpec,
    grid: SimplexGrid,
    tol: float = 1e-4,
    max_iter: int = 100_000,
) -> ValueTable:
    """Iterate the backup operator from V = h until convergence.

    Stops when the sup-norm sweep change drops below ``tol`` (criterion
    "delta"), when the a priori truncation bound (|h|^2/c + |h|/p)/N drops
    below ``tol`` (criterion "bound"), or at ``max_iter`` sweeps (criterion
    "max_iter", table flagged not converged but still returned).

    Per-node values are non-increasing across sweeps; this is a property of
    the exact operator that could be broken at rounding scale by the sparse
    product, so each sweep is clamped by the previous one.
    """
    if not math.isfinite(tol):
        raise ValueError(f"tol={tol} must be finite")
    if tol <= 0.0:
        raise ValueError(f"tol={tol} must be positive")
    if max_iter < 1:
        raise ValueError(f"max_iter={max_iter} must be at least 1")

    nodes = grid.nodes
    h_all = h_values_many(spec, nodes)
    h = h_all.min(axis=1)
    delay = spec.c * (1.0 - nodes[:, 0])
    T = transition_matrix(spec, grid)

    sup_h = stopping_cost_sup(spec)
    bound_const = sup_h * sup_h / spec.c + sup_h / spec.p

    V = h.copy()
    sup_change = math.inf
    criterion = "max_iter"
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        V_new = np.minimum(h, delay + T @ V)
        np.minimum(V_new, V, out=V_new)
        sup_change = float(np.max(np.abs(V - V_new)))
        V = V_new
        if sup_change < tol:
            criterion = "delta"
            converged = True
            break
        if bound_const / sweeps < tol:
            criterion = "bound"
            converged = True
            break

    stop_tol = sup_change if math.isfinite(sup_change) else tol
    labels = _labels(h_all, delay + T @ V, stop_tol)

    return ValueTable(
        grid=grid,
        values=V,
        labels=labels,
        iterations=sweeps,
        sup_change=sup_change,
        error_bound=bound_const / max(sweeps, 1),
        tol=tol,
        criterion=criterion,
        converged=converged,
        stop_tol=stop_tol,
    )


# ---------------------------------------------------------------------------
# Persistence: binary table + JSON sidecar
# ---------------------------------------------------------------------------


def _sidecar_path(path: str) -> str:
    return path + ".json"


def save_table(table: ValueTable, spec: ProblemSpec, path: str) -> None:
    """Write the table to ``path`` and a JSON sidecar to ``path``.json.

    The binary layout is a fixed-size header followed by the node values as
    little-endian float64 in grid node order, then one action byte per
    node.  The sidecar duplicates the header fields and embeds the problem
    instance so downstream commands can run from the table alone.
    """
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        table.grid.M,
        table.grid.Q,
        spec.alphabet_size,
        table.iterations,
        table.tol,
        table.criterion.encode("ascii").ljust(8, b"\x00"),
        table.sup_change,
        table.error_bound,
        table.stop_tol,
        int(table.converged),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(table.values, dtype="<f8").tobytes())
        fh.write(np.asarray(table.labels, dtype=np.uint8).tobytes())
    sidecar = {
        "magic": _MAGIC.decode("ascii"),
        "version": _VERSION,
        "M": table.grid.M,
        "Q": table.grid.Q,
        "alphabet_size": spec.alphabet_size,
        "iterations": table.iterations,
        "tol": table.tol,
        "criterion": table.criterion,
        "sup_change": table.sup_change,
        "error_bound": table.error_bound,
        "stop_tol": table.stop_tol,
        "converged": table.converged,
        "n_nodes": table.grid.n_nodes,
        "model": spec_to_dict(spec),
    }
    _dump_json(sidecar, _sidecar_path(path))


def load_table(path: str) -> tuple[ValueTable, ProblemSpec | None]:
    """Read a table written by save_table.

    Returns the table and, when the sidecar is readable, the problem
    instance it embeds (None otherwise; commands that need the model then
    fail with a clear message instead of guessing).

    Raises:
        ValueError: on a malformed, truncated or overlong file, a non-finite
            value, a label outside 0..M, or when the sidecar disagrees with
            the header about M, Q or the alphabet.
    """
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        (
            magic,
            version,
            M,
            Q,
            alphabet_size,
            iterations,
            tol,
            criterion_raw,
            sup_change,
            error_bound,
            stop_tol,
            converged,
        ) = _HEADER.unpack(raw)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a value-table file (bad magic)")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        grid = build_grid(M, Q)
        n = grid.n_nodes
        values = np.frombuffer(fh.read(8 * n), dtype="<f8").astype(np.float64)
        labels = np.frombuffer(fh.read(n), dtype=np.uint8)
        if values.shape[0] != n or labels.shape[0] != n:
            raise ValueError(f"{path}: truncated node data")
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the node data")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        node = bad[0]
        raise ValueError(f"{path}: value {values[node]} at node {node} is not finite")
    if (labels > M).any():
        raise ValueError(f"{path}: labels outside 0..{M}")

    table = ValueTable(
        grid=grid,
        values=values,
        labels=labels.astype(np.int8),
        iterations=iterations,
        sup_change=sup_change,
        error_bound=error_bound,
        tol=tol,
        criterion=criterion_raw.rstrip(b"\x00").decode("ascii"),
        converged=bool(converged),
        stop_tol=stop_tol,
    )
    spec = None
    sidecar = _sidecar_path(path)
    if os.path.exists(sidecar):
        doc = _read_doc(f"{sidecar}: table sidecar", _load_json(sidecar), dict)
        # both the sidecar's own fields and its embedded model must describe
        # the grid and alphabet the binary header was written for
        claims = [(key, doc.get(key)) for key in ("M", "Q", "alphabet_size")]
        if "model" in doc:
            spec = spec_from_dict(doc["model"])
            claims += [("M", spec.num_types), ("alphabet_size", spec.alphabet_size)]
        header = {"M": M, "Q": Q, "alphabet_size": alphabet_size}
        for key, claimed in claims:
            if claimed is not None and claimed != header[key]:
                raise ValueError(
                    f"{sidecar}: {key}={claimed} disagrees with the table "
                    f"header ({key}={header[key]})"
                )
    return table, spec
