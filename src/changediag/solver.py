"""Value iteration for the optimal stopping problem on a simplex grid.

The optimal cost-to-go V solves V = min(h, c*(1 - pi_0) + T V) where T is
the one-step expectation operator of the posterior chain.  We approximate V
on a regular lattice of the simplex: nodes are the rational points k/Q with
k a nonnegative integer vector summing to Q, and functions are extended off
the nodes by barycentric interpolation over a Kuhn (union-jack) subdivision
of the lattice cells.  Because updating every node's posterior lands on
points whose interpolation stencils never change, the whole sweep collapses
to one product with a fixed operator of a few entries per node
(``TransitionOperator``).

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

import functools
import itertools
import math
import os
import zlib
from dataclasses import dataclass

import numpy as np

from .model import (
    ProblemSpec, _check_int, _dump_json, _flag, _integer, _load_json, _read_doc, _real,
    _text, spec_from_dict, spec_to_dict
)
from .posterior import _announce, _row_min, _step_weights, h_values_many

__all__ = [
    "GridSizeError",
    "SimplexGrid",
    "TransitionOperator",
    "ValueTable",
    "build_grid",
    "interpolate",
    "interpolate_many",
    "transition_matrix",
    "stopping_cost_sup",
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

#: Rows of T in one block of a TransitionOperator.
_TRANSITION_ROWS = 8192

#: Rows whose entries _transition computes at a time, inside one block of
#: _TRANSITION_ROWS; the temporaries scale with it, not with the grid.
_STENCIL_ROWS = 1024

#: Column that marks an entry to drop: one of a symbol that cannot be
#: observed, or one added into a later entry of its column.  It sorts after
#: every node id.
_DEAD = np.iinfo(np.int32).max

#: The magic and format version that a table sidecar records.
_MAGIC = "CDVT"
_VERSION = 2


class GridSizeError(ValueError):
    """Requested discretization exceeds the configured node budget."""


@dataclass(frozen=True)
class SimplexGrid:
    """Regular lattice discretization of the M-dimensional simplex.

    Attributes:
        M: simplex dimension (posteriors have M+1 coordinates).
        Q: lattice resolution; node coordinates are multiples of 1/Q.
        lattice: integer coordinates, shape (n_nodes, M+1), rows summing
            to Q, in ascending lexicographic order (a node's id is its row).
        nodes: lattice / Q as float64.
    """

    M: int
    Q: int
    lattice: np.ndarray
    nodes: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.lattice.shape[0]


def _compositions(total: int, parts: int) -> np.ndarray:
    """Nonnegative integer vectors of length ``parts`` summing to ``total``,
    in ascending lexicographic order.

    Built one coordinate at a time: each vector so far, with r of the total
    left, is followed by the values 0..r of the next coordinate in
    ascending order, and the last coordinate takes what is left.
    """
    columns = []
    rest = np.array([total], dtype=np.int32)
    for _ in range(parts - 1):
        counts = rest + 1
        starts = np.cumsum(counts) - counts
        # the next coordinate counts up from 0 within each vector's group
        nxt = np.arange(starts[-1] + counts[-1], dtype=np.int32)
        nxt -= starts.repeat(counts).astype(np.int32)
        columns = [c.repeat(counts) for c in columns]
        columns.append(nxt)
        rest = rest.repeat(counts) - nxt
    columns.append(rest)
    return np.stack(columns, axis=1)


def build_grid(M: int, Q: int, max_nodes: int = DEFAULT_MAX_NODES) -> SimplexGrid:
    """Enumerate the lattice {k/Q} on the M-simplex.

    Raises:
        ValueError: if M or Q is not an integer of at least 1.
        GridSizeError: if C(Q+M, M) exceeds ``max_nodes``.
    """
    M, Q = _check_int("M", M, 1), _check_int("Q", Q, 1)
    count = math.comb(Q + M, M)
    if count > max_nodes:
        raise GridSizeError(
            f"grid M={M}, Q={Q} has {count} nodes, over the cap {max_nodes}"
        )
    lattice = _compositions(Q, M + 1)
    nodes = lattice.astype(np.float64) / Q
    lattice.setflags(write=False)
    nodes.setflags(write=False)
    return SimplexGrid(M=M, Q=Q, lattice=lattice, nodes=nodes)


@functools.lru_cache(maxsize=None)
def _kuhn_steps(M: int, Q: int) -> tuple[np.ndarray, np.ndarray]:
    """Constants of the node ranks and stencils on the (M, Q) lattice.

    ``rank`` is the (M, Q+2) table of ``_rank``; a row's binomials are the
    running sums of the next row's (the hockey-stick identity), and its
    column Q+1 names no node.  ``frame`` is the column that ``_stencil``
    sorts the fractions into: -1, then M slots, then -0.0.
    """
    count = math.comb(Q + M, M)
    rank = np.tile(-np.arange(Q + 2, dtype=np.int64), (M, 1))
    for i in range(M - 2, -1, -1):
        np.cumsum(rank[i + 1], out=rank[i])
    rank[0] += count - 1
    rank[:, -1] = -count
    frame = np.zeros((M + 2, 1))
    frame[0], frame[-1] = -1.0, -0.0
    rank.setflags(write=False)
    frame.setflags(write=False)
    return rank, frame


def _rank(grid: SimplexGrid, sums: np.ndarray) -> np.ndarray:
    """Node ids of lattice points from their tail sums R_i = k_i + ... + k_M,
    an integer array of shape (M, ...) with the points along its last axes.

    The id is the rank in the lexicographic order of the lattice,
    C(Q+M, M) - 1 - sum_i C(R_i + M - i, M - i + 1) (the combinatorial
    number system; Knuth, TAOCP 4A, 7.2.1.3), one table entry per
    coordinate.  A sum of -1 or Q+1 reads -C(Q+M, M), so the id is
    negative; other points off the staircase Q >= R_1 >= ... >= R_M >= 0
    are not checked.
    """
    rank = _kuhn_steps(grid.M, grid.Q)[0]
    ids = rank[0].take(sums[0])
    for i in range(1, grid.M):
        ids += rank[i].take(sums[i])
    return ids


def _rank_shifts(grid: SimplexGrid, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Id changes of lattice points whose first tail sums move by one.

    ``sums`` holds the points' tail sums as ``_rank`` reads them, shape
    (M, n).  Row j of ``up`` (``down``) is the change of each point's id
    when R_1, ..., R_{j+1} all move up (down) by one, so moving only
    R_{lo+1}, ..., R_hi changes it by row hi-1 minus row lo-1 (row -1 being
    zero).  Both are int32.  A move of a sum of Q up, or of 0 down, leaves
    the lattice; its row entries are meaningless, and the caller masks them.
    """
    # rise[i, s]: the change of R_{i+1}'s rank-table entry from s to s + 1
    rise = np.diff(_kuhn_steps(grid.M, grid.Q)[0], axis=1).astype(np.int32)
    up = np.empty(sums.shape, dtype=np.int32)
    down = np.empty_like(up)
    for i in range(grid.M):
        rise[i].take(sums[i], out=up[i], mode="clip")
        rise[i].take(sums[i] - 1, out=down[i], mode="clip")
    np.negative(down, out=down)
    # running totals line by line: a cumulative sum down axis 0 would run
    # its inner loop along each point's M sums
    for i in range(1, grid.M):
        up[i] += up[i - 1]
        down[i] += down[i - 1]
    return up, down


def _stencil(grid: SimplexGrid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Interpolation stencils for a batch of simplex points.

    :param points: array of shape (n, M+1) of simplex coordinates.
    :return: (node ids of shape (n, M+1), barycentric weights of the same
        shape); weights are nonnegative and sum to 1 per row.

    The work runs on (coordinate, point) arrays, so every call costs the
    same few numpy operations whatever n is, and each operation runs along
    the n points rather than along a row of M+1.
    """
    M, Q = grid.M, grid.Q
    frame = _kuhn_steps(M, Q)[1]
    n = points.shape[0]

    # Cumulative tail sums v_i = pi_i + ... + pi_M (added from pi_M up, as
    # a cumulative sum adds them), scaled to lattice units, then forced
    # into the monotone staircase that the triangulation lives on.
    v = points.T[1:].copy()
    for i in range(M - 2, -1, -1):
        np.add(v[i + 1], v[i], out=v[i])
    v *= Q
    nearest = np.rint(v)
    gap = np.subtract(v, nearest)
    np.abs(gap, out=gap)
    np.copyto(v, nearest, where=gap <= SNAP_TOL)
    v.clip(0.0, Q, out=v)
    for i in range(1, M):
        np.minimum(v[i - 1], v[i], out=v[i])
    # v lies in [0, Q], so v - int(v) is its fractional part, exactly
    base = v.astype(np.intp)
    neg_frac = v - base
    np.negative(neg_frac, out=neg_frac)

    # Column k of ``framed`` becomes (-1, -frac sorted up, -0.0): point k's
    # fractions in descending order between two values that sort first and
    # last (frac lies in [0, 1)).  The weights 1 - frac_(0), frac_(0) -
    # frac_(1), ..., frac_(M-1) are its consecutive differences, bit for bit.
    framed = frame.repeat(n, axis=1)
    framed[1:-1] = neg_frac
    framed[1:-1].sort(axis=0, kind="stable")
    weights = np.empty((n, M + 1))
    np.subtract(framed[1:], framed[:-1], out=weights.T)

    # Corner t of the Kuhn simplex steps the base corner along the t
    # coordinates of largest fraction, which are those whose fraction
    # exceeds the next one down in sorted order wherever corner t has
    # weight (a tie leaves it none).  Zero-weight corners may leave the
    # staircase, so they keep the (always valid) base corner.  The corners
    # are tail sums, laid out (coordinate, corner, point).
    steps = neg_frac[:, None] < framed[1:]
    steps &= weights.T > 0.0
    ids = _rank(grid, steps + base[:, None]).T
    if ids.min(initial=0) < 0:
        raise RuntimeError("interpolation stencil left the simplex lattice")
    return ids, weights


def interpolate_many(
    grid: SimplexGrid, values: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Piecewise-linear interpolation of per-node values at many points.

    Raises:
        ValueError: if the points do not have the grid's M+1 coordinates,
            or one of them has a coordinate that is not finite.
    """
    points = np.atleast_2d(points)
    if points.shape[-1] != grid.M + 1:
        raise ValueError(
            f"points have {points.shape[-1]} coordinates, the grid's simplex "
            f"has {grid.M + 1}"
        )
    finite = np.isfinite(points)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        raise ValueError(f"point {row} has a non-finite coordinate: {points[row].tolist()}")
    ids, weights = _stencil(grid, points)
    return np.einsum("nk,nk->n", values[ids], weights)


def interpolate(table: "ValueTable", pi: np.ndarray) -> float:
    """Interpolated table value at a single posterior."""
    return float(interpolate_many(table.grid, table.values, pi[None, :])[0])


class TransitionOperator:
    """The one-step expectation operator T of the posterior chain; apply it
    as ``T @ values``.

    The rows are stored in blocks of ``_TRANSITION_ROWS``.  A block is a
    (width, rows) array of column ids and one of weights: column r of the
    block lists row r's distinct columns in ascending order, padded to the
    block's width with column 0 at weight 0.  ``T @ values`` gathers a
    block's values into one buffer, scales it by the weights and adds its
    lines up one after another, so every row is summed from left to right
    from 0.0, as a CSR product sums it.  A padding entry adds a zero, which
    changes no bit of the sum while ``values`` is finite.

    ``indptr``, ``indices`` and ``data`` give the same operator in CSR form,
    with 32-bit indices where they fit; ``indices`` and ``data`` are built
    from the blocks on each access.
    """

    def __init__(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        blocks: list[tuple[np.ndarray, np.ndarray]],
    ):
        self.shape = shape
        self.indptr = indptr
        self._blocks = blocks

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def nbytes(self) -> int:
        """Bytes held: the blocks and ``indptr``."""
        return self.indptr.nbytes + sum(ids.nbytes + w.nbytes for ids, w in self._blocks)

    def _csr(self, part: int) -> np.ndarray:
        """Entries of every block's ids (part 0) or weights (part 1), in
        CSR order."""
        counts = np.diff(self.indptr)
        out = []
        for b, block in enumerate(self._blocks):
            arr = block[part]
            rows = counts[b * _TRANSITION_ROWS : b * _TRANSITION_ROWS + arr.shape[1]]
            out.append(arr.T[np.arange(arr.shape[0]) < rows[:, None]])
        return np.concatenate(out)

    @property
    def indices(self) -> np.ndarray:
        return self._csr(0).astype(self.indptr.dtype)

    @property
    def data(self) -> np.ndarray:
        return self._csr(1)

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        return self.matvec(values)

    def matvec(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``T @ values``, written into ``out`` when one is given."""
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (self.shape[1],):
            raise ValueError(f"T has shape {self.shape}, got values of shape {values.shape}")
        if out is None:
            out = np.empty(self.shape[0])
        buf = np.empty(max((ids.size for ids, _ in self._blocks), default=0))
        for b, (ids, w) in enumerate(self._blocks):
            lo = b * _TRANSITION_ROWS
            row = out[lo : lo + ids.shape[1]]
            terms = buf[: ids.size].reshape(ids.shape)
            # every id is in range; "clip" skips the slower checks of "raise"
            np.take(values, ids, out=terms, mode="clip")
            terms *= w
            # line by line: np.add.reduce sums a one-row block pairwise
            np.add(terms[0], 0.0, out=row)
            for line in terms[1:]:
                row += line
        return out


def _transition(
    spec: ProblemSpec, grid: SimplexGrid, points: np.ndarray
) -> TransitionOperator:
    """One-step expectation operator from ``points`` onto the grid.

    Row k holds, for every symbol with positive predictive probability at
    point k, that probability spread over the interpolation stencil of the
    updated posterior.  Rows sum to 1, so constants are reproduced exactly.

    A row lists its entries in (symbol, stencil corner) order, leaving out
    the symbols of zero predictive probability.  One row may name a node
    more than once (two symbols may land on one stencil, and zero-weight
    corners fall back on the base corner); a stable sort by column brings
    those entries together in that order, and they are added up from left
    to right.  For rows of up to 16 entries that is also the order of a
    COO -> CSR conversion followed by ``sum_duplicates``, whose in-row sort
    is stable only that far; wider rows have the order above.
    """
    n, width = points.shape[0], spec.alphabet_size * (grid.M + 1)
    counts = np.empty(n, dtype=np.int64)
    blocks = []
    for lo in range(0, n, _TRANSITION_ROWS):
        m = min(_TRANSITION_ROWS, n - lo)
        ids, w = np.empty((width, m), dtype=np.intp), np.empty((width, m))
        # every row is computed alone, so the chunks change no bit of T
        for sub in range(lo, lo + m, _STENCIL_ROWS):
            chunk = slice(sub, min(lo + m, sub + _STENCIL_ROWS))
            cols, vals, counts[chunk] = _row_entries(spec, grid, points[chunk])
            ids[:, chunk.start - lo : chunk.stop - lo] = cols.T
            w[:, chunk.start - lo : chunk.stop - lo] = vals.T
        used = counts[lo : lo + m].max()
        if used < width:
            ids, w = ids[:used].copy(), w[:used].copy()
        blocks.append((ids, w))
    nnz = int(counts.sum())
    index = np.int32 if max(nnz, grid.n_nodes) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    return TransitionOperator((n, grid.n_nodes), indptr, blocks)


def _row_entries(
    spec: ProblemSpec, grid: SimplexGrid, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of T at ``points``: columns and weights, both of shape
    (n, alphabet size * (M+1)), and the entry count of each row.

    Each row holds its distinct columns in ascending order, padded with
    column 0 at weight 0.
    """
    n, A, k = points.shape[0], spec.alphabet_size, grid.M + 1
    num = _step_weights(spec, points)[:, None, :] * spec.f.T
    # each symbol's predictive probability adds its row from left to right
    # at every width, the order T's pinned bytes hold (np.add.reduce adds
    # contiguous rows of eight or more pairwise)
    total = num[..., 0].copy()
    for j in range(1, k):
        total += num[..., j]
    live = total > 0.0
    # a symbol of zero predictive probability gets the stencil of the zero
    # vector, whose columns then become _DEAD
    ids, weights = _stencil(grid, (num / np.where(live, total, 1.0)[:, :, None]).reshape(-1, k))
    cols = np.where(live.reshape(-1, 1), ids, _DEAD).reshape(n, A * k)
    vals = (total.reshape(-1, 1) * weights).reshape(n, A * k)
    # a stable sort brings the entries of one column together, in
    # (symbol, corner) order; _DEAD sorts last
    order = np.argsort(cols, axis=1, kind="stable")
    order += np.arange(0, n * A * k, A * k)[:, None]
    cols, vals = cols.take(order), vals.take(order)
    counts = np.full(n, A * k)
    same = cols[:, 1:] == cols[:, :-1]
    short = np.flatnonzero(same.any(axis=1) | (cols[:, -1] == _DEAD))
    if short.size:
        c, v, s = cols[short], vals[short], same[short]
        # running sums add each column's entries up from left to right,
        # into the last of them; the others become _DEAD
        for j in range(1, A * k):
            np.add(v[:, j - 1], v[:, j], out=v[:, j], where=s[:, j - 1])
        c[:, :-1][s] = _DEAD
        order = np.argsort(c, axis=1, kind="stable")
        c, v = np.take_along_axis(c, order, axis=1), np.take_along_axis(v, order, axis=1)
        dropped = c == _DEAD
        c[dropped], v[dropped] = 0, 0.0
        cols[short], vals[short], counts[short] = c, v, A * k - dropped.sum(axis=1)
    return cols, vals, counts


def transition_matrix(spec: ProblemSpec, grid: SimplexGrid) -> TransitionOperator:
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


def _labels(h_all: np.ndarray, cont: np.ndarray, stop_tol: float) -> np.ndarray:
    """The Bellman stop rule: stop where h <= cont + ``stop_tol``."""
    return _announce(h_all, _row_min(h_all) <= cont + stop_tol)


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
    the exact operator that could be broken at rounding scale by the
    product with T, so each sweep is clamped by the previous one.  The
    sweeps reuse two node vectors: the new values, and the old ones, which
    then hold the change.
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

    V, V_new = h.copy(), np.empty_like(h)
    sup_change = math.inf
    criterion = "max_iter"
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        T.matvec(V, out=V_new)
        V_new += delay
        np.minimum(h, V_new, out=V_new)
        np.minimum(V_new, V, out=V_new)
        # V_new <= V, so the change needs no abs; V is not needed after it
        sup_change = float(np.subtract(V, V_new, out=V).max())
        V, V_new = V_new, V
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
# Persistence: node data + JSON sidecar
# ---------------------------------------------------------------------------


def save_table(table: ValueTable, spec: ProblemSpec, path: str) -> None:
    """Write the node data to ``path`` and the table's record to ``path``.json.

    The node data are the values as little-endian float64 in grid node
    order, then one action byte per node, and nothing else.  The JSON
    sidecar is the table's one header: the lattice resolution, the solve
    record, a crc32 of the node data and the problem instance, from which
    the grid and the alphabet follow.
    """
    values = np.asarray(table.values, dtype="<f8").tobytes()
    payload = values + np.asarray(table.labels, dtype=np.uint8).tobytes()
    with open(path, "wb") as fh:
        fh.write(payload)
    sidecar = {
        "magic": _MAGIC,
        "version": _VERSION,
        "Q": table.grid.Q,
        "iterations": table.iterations,
        "tol": table.tol,
        "criterion": table.criterion,
        "sup_change": table.sup_change,
        "error_bound": table.error_bound,
        "stop_tol": table.stop_tol,
        "converged": table.converged,
        "crc32": zlib.crc32(payload),
        "model": spec_to_dict(spec),
    }
    _dump_json(sidecar, path + ".json")


def _record(d) -> dict:
    """The fields of a table sidecar of this version."""
    if d["magic"] != _MAGIC:
        raise ValueError(f"magic {d['magic']!r} is not {_MAGIC!r}")
    if _integer(d["version"]) != _VERSION:
        raise ValueError(f"unsupported version {d['version']}")
    return dict(
        Q=_check_int("Q", _integer(d["Q"]), 1),
        iterations=_integer(d["iterations"]),
        tol=_real(d["tol"], "tol"),
        criterion=_text(d["criterion"]),
        sup_change=_real(d["sup_change"], "sup_change"),
        error_bound=_real(d["error_bound"], "error_bound"),
        stop_tol=_real(d["stop_tol"], "stop_tol"),
        converged=_flag(d["converged"]),
        crc32=_integer(d["crc32"]),
        spec=spec_from_dict(d["model"]),
    )


def load_table(path: str) -> tuple[ValueTable, ProblemSpec]:
    """Read a table written by save_table, with the problem instance its
    sidecar embeds.

    Raises:
        GridSizeError: the sidecar's grid is over the node cap.
        ValueError: on a missing or malformed sidecar, node data of the
            wrong size or with another crc32 than the sidecar's, a
            non-finite value, or a label outside 0..M.
    """
    sidecar = path + ".json"
    if not os.path.exists(sidecar):
        raise ValueError(f"{path}: sidecar with the model is missing")
    record = _read_doc(f"{sidecar}: table sidecar", _load_json(sidecar), _record)
    spec, crc = record.pop("spec"), record.pop("crc32")
    try:
        grid = build_grid(spec.num_types, record.pop("Q"))
    except GridSizeError as exc:
        raise GridSizeError(f"{sidecar}: {exc}") from exc
    n = grid.n_nodes
    with open(path, "rb") as fh:
        payload = fh.read(9 * n + 1)
    if len(payload) < 9 * n:
        raise ValueError(f"{path}: truncated node data")
    if len(payload) > 9 * n:
        raise ValueError(f"{path}: trailing bytes after the node data")
    if zlib.crc32(payload) != crc:
        raise ValueError(f"{path}: node data do not match the crc32 of {sidecar}")
    values = np.frombuffer(payload, dtype="<f8", count=n).astype(np.float64)
    labels = np.frombuffer(payload, dtype=np.uint8, offset=8 * n)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        node = bad[0]
        raise ValueError(f"{path}: value {values[node]} at node {node} is not finite")
    if (labels > grid.M).any():
        raise ValueError(f"{path}: labels outside 0..{grid.M}")
    table = ValueTable(grid=grid, values=values, labels=labels.astype(np.int8), **record)
    return table, spec
