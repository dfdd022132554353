"""Stopping-region extraction, structural checks, and plot-ready export.

A solved value table partitions the grid into a continuation set and one
stopping set per announceable type: stop at a node when the best terminal
cost h is no larger than the continuation cost there, announcing the type
with the smallest terminal cost.  The theory says each per-type stopping
set is convex, closed, non-empty, shrinks as the horizon grows, and
contains its own simplex corner; this module extracts the sets, verifies
those statements in their grid form, counts connected components (the
published figures differ qualitatively in exactly this), and exports rows
for plotting, including the planar embedding of the 2-type simplex and the
spatial embedding of the 3-type simplex.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _decimal
from .model import ProblemSpec, _check_int, _nonnegative
from .posterior import _row_min, h_values_many
from .solver import SimplexGrid, ValueTable, _rank, _rank_shifts, build_grid

__all__ = [
    "StoppingRegion",
    "extract_region",
    "check_region_properties",
    "embed",
    "export_region",
    "import_region",
    "boundary_nodes",
    "corner_node",
]

_SQRT3 = math.sqrt(3.0)

#: Node pairs per stopping set that the convexity check tests: all pairs up
#: to this many, else this many drawn from a PCG64 stream seeded with 0.
_CONVEXITY_PAIRS = 2000


@dataclass
class StoppingRegion:
    """Per-node stop/continue labeling induced by a value table.

    ``labels[k]`` is 0 to continue at node k, or the 1-based type to
    announce, solved at the slack ``stop_tol``.  ``h_all`` and ``values``
    are kept alongside for export.
    """

    grid: SimplexGrid
    labels: np.ndarray
    values: np.ndarray
    h_all: np.ndarray
    N_used: int
    stop_tol: float

    def mask(self, j: int) -> np.ndarray:
        """Boolean node mask of the stopping set for type ``j`` (1-based)."""
        return self.labels == j


def extract_region(spec: ProblemSpec, table: ValueTable) -> StoppingRegion:
    """The stop/continue labeling of every grid node that the solver stored
    with the table, and the terminal costs there.

    A node stops when h(node) <= c*(1 - pi_0) + (T V)(node) + stop_tol, the
    slack being the table's final sweep change, which absorbs the fact that
    V is itself only tol-converged.  Ties go to stopping and the announced
    type is the smallest index attaining the minimum of h.
    """
    grid = table.grid
    return StoppingRegion(
        grid=grid,
        labels=table.labels.astype(np.int8),
        values=table.values,
        h_all=h_values_many(spec, grid.nodes),
        N_used=table.iterations,
        stop_tol=table.stop_tol,
    )


def _tail_sums(points: np.ndarray) -> np.ndarray:
    """Tail sums R_i = k_i + ... + k_M of integer points given as rows
    (k_0, ..., k_M), as the (M, n) array that ``_rank`` reads."""
    sums = np.ascontiguousarray(points[:, :0:-1].T, dtype=np.intp)
    for i in range(1, len(sums)):
        sums[i] += sums[i - 1]
    return sums[::-1]


def corner_node(grid: SimplexGrid, coord: int) -> int:
    """Node id of the simplex corner with all mass on ``coord``."""
    corner = grid.Q * np.eye(grid.M + 1, dtype=int)[[coord]]
    return int(_rank(grid, _tail_sums(corner))[0])


def _neighbor_ids(grid: SimplexGrid, ids: np.ndarray | None = None) -> np.ndarray:
    """Lattice neighbors of nodes along directions e_a - e_b.

    Returns an int32 array with a row per node of ``ids`` (every node when
    it is None) and a column per (a, b) in lexicographic order, with -1
    where the step leaves the simplex.

    The step moves the tail sums R_i, min(a, b) < i <= max(a, b), by one,
    up if a > b, so the neighbor's id is the node's own id plus the
    difference of two rows of ``_rank_shifts``.
    """
    if ids is None:
        lattice, ids = grid.lattice, np.arange(grid.n_nodes, dtype=np.int32)
    else:
        lattice, ids = grid.lattice[ids], np.asarray(ids, dtype=np.int32)
    up, down = _rank_shifts(grid, _tail_sums(lattice))
    empty = np.equal(lattice.T, 0, order="C")
    out = np.empty((ids.size, grid.M * (grid.M + 1)), dtype=np.int32)
    line = np.empty(ids.size, dtype=np.int32)
    for col, (a, b) in enumerate(itertools.permutations(range(grid.M + 1), 2)):
        moved = up if a > b else down
        lo, hi = min(a, b), max(a, b)
        np.add(ids, moved[hi - 1], out=line)
        if lo:
            line -= moved[lo - 1]
        # a step off the lattice has k_b = 0; its shift rows are meaningless
        np.copyto(line, -1, where=empty[b])
        out[:, col] = line
    return out


def _union(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Join the sets of nodes u[i] and v[i] in the forest ``parent``, where
    every node points at its root, and return the forest in that form.

    Hooking and pointer jumping (after Shiloach and Vishkin, "An O(log n)
    parallel connectivity algorithm", 1982): each round hooks the larger
    root of every edge whose ends still have different roots onto the
    smaller one, then jumps pointers until every node points at its root.
    Every component that still has such an edge merges with another, so
    the rounds are O(log n).
    """
    while True:
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        if not apart.any():
            return parent
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _component_counts(
    grid: SimplexGrid, labels: np.ndarray, neighbors: np.ndarray
) -> tuple[np.ndarray, int]:
    """Connected components, under lattice adjacency (steps of the form
    e_a - e_b), of every label's node set and of the union of the stopping
    sets (labels above 0).

    ``neighbors`` is the table of ``_neighbor_ids`` for every node.  One
    union-find runs over the edges whose two ends carry the same label, so
    its roots, counted by label, are the components of each label; it then
    goes on over the edges that join two different stopping labels.  Each
    undirected edge is listed once, along the step e_a - e_b with a < b,
    and the edges go in one direction at a time.

    Returns the counts indexed by label 0..M and the count of the stopping
    union.
    """
    ids = np.arange(grid.n_nodes, dtype=np.int32)
    stop = labels > 0
    parent, crossing = ids.copy(), []
    for col, (a, b) in enumerate(itertools.permutations(range(grid.M + 1), 2)):
        if a > b:
            continue
        nbr = neighbors[:, col]
        other = labels[nbr]  # -1 (off the simplex) reads the last label; masked
        on = nbr >= 0
        joined = on & (other == labels)
        parent = _union(parent, ids[joined], nbr[joined])
        crossing.append((col, on & stop & (other > 0) & ~joined))
    per_label = np.bincount(labels[parent == ids], minlength=grid.M + 1)
    for col, mask in crossing:
        parent = _union(parent, ids[mask], neighbors[mask, col])
    return per_label, int(np.count_nonzero((parent == ids) & stop))


def check_region_properties(
    region: StoppingRegion,
    other: StoppingRegion | None = None,
) -> dict:
    """Verify the structural claims about the stopping sets on the grid.

    Checks, per announceable type j: non-emptiness, containment of the
    corner node, connected-component count, and discrete convexity (lattice
    points on segments between sampled same-label node pairs carry the same
    label; ``_CONVEXITY_PAIRS`` bounds the pairs).  Convexity violations
    are split into strict ones, whose segment endpoints both lie strictly
    inside the stopping set, and boundary ones, which one lattice cell of
    labeling noise can explain.  Component counts are also reported for
    the union of all stopping sets and for the continuation set, since a
    figure may show the individual sets merging or pinching off a pocket of
    continuation nodes.  All of these describe ``region``.  When ``other``
    is given, also checks nestedness: every stopping node of the region
    with the longer horizon (more sweeps; ``region`` on a tie) stops in the
    other one.

    Returns a plain dict (JSON-ready); it reports rather than raises.
    """
    grid = region.grid
    M = grid.M
    neighbors = _neighbor_ids(grid)
    rng = np.random.default_rng(0)
    report: dict = {
        "labels": {},
        "stopping_components": None,
        "continuation_components": None,
        "nested": None,
    }

    # A node is strictly inside its stopping set when every lattice
    # neighbor carries the same label (-1 reads the last node's; masked).
    same = (region.labels[neighbors] == region.labels[:, None]) | (neighbors < 0)
    interior = same.all(axis=1)
    per_label, stopping = _component_counts(grid, region.labels, neighbors)

    for j in range(1, M + 1):
        mask = region.mask(j)
        ids = np.flatnonzero(mask)
        entry = {
            "nonempty": bool(ids.size > 0),
            "contains_corner": bool(mask[corner_node(grid, j)]),
            "num_components": int(per_label[j]),
            "convexity_pairs": 0,
            "convexity_violations": 0,
            "strict_violations": 0,
        }
        if ids.size >= 2:
            if ids.size * (ids.size - 1) // 2 <= _CONVEXITY_PAIRS:
                u, w = ids[np.array(np.triu_indices(ids.size, k=1))]
            else:
                pick = rng.integers(0, ids.size, size=(_CONVEXITY_PAIRS, 2))
                u, w = ids[pick[pick[:, 0] != pick[:, 1]].T]
            # the lattice points strictly inside segment u-w are
            # u + m * diff / g for m = 1..g-1, g the gcd of the entries of
            # diff; tail sums are linear, so theirs are found the same way
            diff = grid.lattice[w].astype(np.int64) - grid.lattice[u]
            g = np.gcd.reduce(np.abs(diff), axis=1)
            gaps = g - 1
            pair = np.repeat(np.arange(u.size), gaps)
            m = np.arange(1, pair.size + 1) - np.repeat(np.cumsum(gaps) - gaps, gaps)
            start = _tail_sums(grid.lattice[u])
            step = _tail_sums(diff // g[:, None])
            inside = _rank(grid, start[:, pair] + m * step[:, pair])
            off = region.labels[inside] != j
            bad = np.bincount(pair, weights=off, minlength=u.size) > 0
            entry["convexity_pairs"] = int(u.size)
            entry["convexity_violations"] = int(bad.sum())
            entry["strict_violations"] = int((bad & interior[u] & interior[w]).sum())
        report["labels"][j] = entry

    report["stopping_components"] = stopping
    report["continuation_components"] = int(per_label[0])

    if other is not None:
        if other.grid.Q != grid.Q or other.grid.M != M:
            raise ValueError("nestedness check requires regions on one grid")
        fine, coarse = region, other
        if coarse.N_used > fine.N_used:
            fine, coarse = coarse, fine
        bad = 0
        for j in range(1, M + 1):
            bad += int(np.sum(fine.mask(j) & ~coarse.mask(j)))
        report["nested"] = {
            "ok": bad == 0,
            "violations": bad,
            "N_fine": fine.N_used,
            "N_coarse": coarse.N_used,
        }
    return report


def embed(pi: np.ndarray) -> np.ndarray:
    """Map simplex points into the plane (M=2) or space (M=3) for plotting.

    The 2-type simplex goes to the equilateral triangle with corners
    (0,0), (2/sqrt(3),0), (1/sqrt(3),1); the 3-type simplex to a regular
    tetrahedron.  Both maps preserve Euclidean distances up to the common
    scale used by the polar boundary representation.

    Accepts a single point of shape (M+1,) or a batch of shape (n, M+1).
    """
    arr = np.asarray(pi, dtype=np.float64)
    single = arr.ndim == 1
    P = np.atleast_2d(arr)
    M = P.shape[1] - 1
    if M == 2:
        out = np.stack([(2.0 * P[:, 1] + P[:, 2]) / _SQRT3, P[:, 2]], axis=1)
    elif M == 3:
        u = math.sqrt(1.5)
        w = math.sqrt(0.5)
        out = np.stack(
            [
                u * (P[:, 1] + 0.5 * P[:, 2] + 0.5 * P[:, 3]),
                w * (1.5 * P[:, 2] + 0.5 * P[:, 3]),
                P[:, 3],
            ],
            axis=1,
        )
    else:
        raise ValueError(f"embedding defined for 2 or 3 types, not M={M}")
    return out[0] if single else out


def boundary_nodes(region: StoppingRegion, j: int) -> np.ndarray:
    """Stop(j) nodes with at least one continuation neighbor, ascending."""
    ids = np.flatnonzero(region.mask(j))
    neighbors = _neighbor_ids(region.grid, ids)  # -1 reads the last label; masked
    touches_cont = ((region.labels[neighbors] == 0) & (neighbors >= 0)).any(axis=1)
    return ids[touches_cont]


# ---------------------------------------------------------------------------
# CSV export / import
# ---------------------------------------------------------------------------


#: Rows formatted per write; bounds the text held in memory at once.
_EXPORT_CHUNK = 1024


def _distinct(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a column, and each node's index into them in
    the narrowest unsigned dtype that holds it.

    Floats are told apart by bit pattern: 0.0 and -0.0 compare equal but
    print as "0.0" and "-0.0".
    """
    floats = col.dtype == np.float64
    values, inv = np.unique(col.view(np.int64) if floats else col, return_inverse=True)
    index = inv.astype(np.min_scalar_type(values.size - 1))
    return (values.view(np.float64) if floats else values), index


def export_region(region: StoppingRegion, path: str) -> None:
    """Write one CSV row per node, in node order.

    The columns are the lattice and simplex coordinates, then, at M = 2 or
    3 (format "embedded"), the plot coordinates of ``embed``, then the
    label, value and terminal costs; at other M the format is "raw", without
    plot coordinates.  The first line is a comment carrying the grid shape,
    the extraction parameters and the format, so the file round-trips
    through import_region.  Integers are written in decimal, floats as
    ``repr`` writes them, the shortest text that reads back as the same
    float64, less the ".0" of an integral float ("-0.0" is written "-0",
    which reads back as -0.0); rows end in CRLF.
    """
    grid = region.grid
    M = grid.M
    fmt = "embedded" if M in (2, 3) else "raw"

    # (name, the column's distinct values, each node's index into them).  A
    # column fixed by the lattice is a function of one coordinate k_i, so
    # its values are those at k_i = 0..Q, indexed by k_i.
    steps = np.arange(grid.Q + 1)
    fractions = steps / grid.Q
    columns = [(f"k{i}", steps, grid.lattice[:, i]) for i in range(M + 1)]
    columns += [(f"pi{i}", fractions, grid.lattice[:, i]) for i in range(M + 1)]
    if fmt == "embedded":
        xyz = embed(grid.nodes)
        columns += [("xyz"[i], *_distinct(xyz[:, i])) for i in range(M - 1)]
        # the last coordinate of either embedding is pi_M
        columns.append(("xyz"[M - 1], fractions, grid.lattice[:, M]))
    columns += [
        ("label", *_distinct(region.labels)),
        ("value", *_distinct(region.values)),
        ("h", *_distinct(_row_min(region.h_all))),
    ]
    columns += [(f"h{j}", *_distinct(region.h_all[:, j - 1])) for j in range(1, M + 1)]
    header = ",".join(name for name, _, _ in columns)

    # Each distinct value is formatted once, its text already carrying the
    # separator that follows it, and rows are gathered by index.  ``tolist``
    # gives Python ints and floats, whose repr less a final ".0" (which no
    # int's repr has) is the text to write.
    seps = [","] * (len(columns) - 1) + ["\r\n"]
    texts = [
        np.array([t.removesuffix(".0") + sep for t in map(repr, values.tolist())],
                 dtype=object)
        for (_, values, _), sep in zip(columns, seps)
    ]
    index = [idx for _, _, idx in columns]

    with open(path, "w", newline="") as fh:
        fh.write(
            f"# changediag-region M={M} Q={grid.Q} N={region.N_used} "
            f"stop_tol={float(region.stop_tol)!r} format={fmt}\n"
        )
        fh.write(header + "\r\n")
        for start in range(0, grid.n_nodes, _EXPORT_CHUNK):
            rows = slice(start, start + _EXPORT_CHUNK)
            cells = np.empty((index[0][rows].size, len(texts)), dtype=object)
            for c, (text, idx) in enumerate(zip(texts, index)):
                cells[:, c] = text[idx[rows]]
            fh.write("".join(cells.ravel().tolist()))


def import_region(path: str) -> StoppingRegion:
    """Rebuild a StoppingRegion from an exported CSV.

    Raises:
        ValueError: on a malformed header (a sweep count N under 1 or a
            negative or non-finite stop_tol included), unparsable rows, a
            row count other than the grid's node count, rows out of node
            order, or labels outside 0..M.
    """
    with open(path) as fh:
        head = fh.readline()
        if not head.startswith("# changediag-region"):
            raise ValueError(f"{path}: not a region export")
        try:
            meta = dict(part.split("=", 1) for part in head[2:].split()[1:])
            M = _decimal(meta["M"])
            Q = _decimal(meta["Q"])
            N_used = _check_int("N", _decimal(meta["N"]), 1)
            stop_tol = _nonnegative("stop_tol", _decimal(meta["stop_tol"], float))
            col = {name: i for i, name in enumerate(fh.readline().strip().split(","))}
            tail_cols = [col[f"k{i}"] for i in range(1, M + 1)]
            h_cols = [col[f"h{j}"] for j in range(1, M + 1)]
            used = tail_cols + [col["label"], col["value"]] + h_cols
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{path}: malformed region header ({exc})") from exc
        grid = build_grid(M, Q)
        with warnings.catch_warnings():
            # an empty body is reported below as a row-count mismatch
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(
                fh, delimiter=",", usecols=used, ndmin=2, dtype=np.float64
            )
    if data.shape[0] != grid.n_nodes:
        raise ValueError(
            f"{path}: {data.shape[0]} data rows, but a grid with M={M}, "
            f"Q={Q} has {grid.n_nodes} nodes"
        )
    # column by column: a reduction along each row would loop over M
    misplaced = data[:, 0] != grid.lattice[:, 1]
    for i in range(1, M):
        misplaced |= data[:, i] != grid.lattice[:, i + 1]
    if misplaced.any():
        raise ValueError(
            f"{path}: rows out of node order at line {np.argmax(misplaced) + 3}"
        )
    labels = data[:, M]
    # NaN fails the range test too; after it the cast is safe, and a
    # fraction does not come through it unchanged
    codes = labels.astype(np.int8) if ((labels >= 0) & (labels <= M)).all() else None
    if codes is None or (codes != labels).any():
        raise ValueError(f"{path}: labels outside 0..{M}")
    return StoppingRegion(
        grid=grid,
        labels=codes,
        values=data[:, M + 1].copy(),
        h_all=data[:, M + 2 :].copy(),
        N_used=N_used,
        stop_tol=stop_tol,
    )
