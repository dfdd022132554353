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

from .model import ProblemSpec, _fmt
from .posterior import h_values_many
from .solver import (
    SimplexGrid, ValueTable, _labels, _rank, _rank_shifts, build_grid, transition_matrix
)

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


@dataclass
class StoppingRegion:
    """Per-node stop/continue labeling induced by a value table.

    ``labels[k]`` is 0 to continue at node k, or the 1-based type to
    announce.  ``h_all`` and ``values`` are kept alongside for export and
    for relabeling at other tolerances.
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


def extract_region(
    spec: ProblemSpec, table: ValueTable, stop_tol: float | None = None
) -> StoppingRegion:
    """Label every grid node stop/continue against the table's values.

    A node stops when h(node) <= c*(1 - pi_0) + (T V)(node) + stop_tol; the
    tolerance (defaulting to the table's final sweep change) absorbs the
    fact that V is itself only tol-converged.  Ties go to stopping and the
    announced type is the smallest index attaining the minimum of h.

    At the table's own ``stop_tol`` this is exactly the labeling the solver
    stored with the table, which is reused; another tolerance rebuilds the
    continuation costs from T.
    """
    if stop_tol is None:
        stop_tol = table.stop_tol
    if not math.isfinite(stop_tol):
        raise ValueError(f"stop_tol={stop_tol} must be finite")
    grid = table.grid
    h_all = h_values_many(spec, grid.nodes)
    if stop_tol == table.stop_tol:
        labels = table.labels.astype(np.int8)
    else:
        delay = spec.c * (1.0 - grid.nodes[:, 0])
        cont = delay + transition_matrix(spec, grid) @ table.values
        labels = _labels(h_all, cont, stop_tol)
    return StoppingRegion(
        grid=grid,
        labels=labels,
        values=table.values,
        h_all=h_all,
        N_used=table.iterations,
        stop_tol=float(stop_tol),
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


def _component_count(grid: SimplexGrid, mask: np.ndarray, neighbors: np.ndarray) -> int:
    """Number of connected components of the masked node set under lattice
    adjacency (steps of the form e_a - e_b).

    Union-find by hooking and pointer jumping (after Shiloach and Vishkin,
    "An O(log n) parallel connectivity algorithm", 1982): each round hooks
    the larger root of every edge whose ends still have different roots
    onto the smaller one, then jumps pointers until every node points at
    its root.  Every component that still has such an edge merges with
    another, so the rounds are O(log n).
    """
    ids = np.flatnonzero(mask)
    nbr = neighbors[ids]
    ok = nbr > ids[:, None]  # each edge once; -1 (off the simplex) drops too
    ok[ok] = mask[nbr[ok]]
    u = np.repeat(ids, ok.sum(axis=1))
    v = nbr[ok]
    parent = np.arange(grid.n_nodes)
    while True:
        ru, rv = parent[u], parent[v]
        apart = ru != rv
        if not apart.any():
            break
        u, v, ru, rv = u[apart], v[apart], ru[apart], rv[apart]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    return int(np.count_nonzero(parent[ids] == ids))


def check_region_properties(
    region: StoppingRegion,
    other: StoppingRegion | None = None,
    max_pairs: int = 2000,
    seed: int = 0,
) -> dict:
    """Verify the structural claims about the stopping sets on the grid.

    Checks, per announceable type j: non-emptiness, containment of the
    corner node, connected-component count, and discrete convexity (lattice
    points on segments between sampled same-label node pairs carry the same
    label).  Convexity violations are split into strict ones, whose segment
    endpoints both lie strictly inside the stopping set, and boundary ones,
    which one lattice cell of labeling noise can explain.  Component counts
    are also reported for the union of all stopping sets and for the
    continuation set, since a figure may show the individual sets merging or
    pinching off a pocket of continuation nodes.  All of these describe
    ``region``.  When ``other`` is given, also checks nestedness: every
    stopping node of the region with the longer horizon (more sweeps;
    ``region`` on a tie) stops in the other one.

    Returns a plain dict (JSON-ready); it reports rather than raises.
    """
    grid = region.grid
    M = grid.M
    neighbors = _neighbor_ids(grid)
    rng = np.random.default_rng(seed)
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

    for j in range(1, M + 1):
        mask = region.mask(j)
        ids = np.flatnonzero(mask)
        entry = {
            "nonempty": bool(ids.size > 0),
            "contains_corner": bool(mask[corner_node(grid, j)]),
            "num_components": _component_count(grid, mask, neighbors),
            "convexity_pairs": 0,
            "convexity_violations": 0,
            "strict_violations": 0,
        }
        if ids.size >= 2:
            if ids.size * (ids.size - 1) // 2 <= max_pairs:
                u, w = ids[np.array(np.triu_indices(ids.size, k=1))]
            else:
                pick = rng.integers(0, ids.size, size=(max_pairs, 2))
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

    report["stopping_components"] = _component_count(
        grid, region.labels > 0, neighbors
    )
    report["continuation_components"] = _component_count(
        grid, region.labels == 0, neighbors
    )

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
_EXPORT_CHUNK = 4096


def export_region(region: StoppingRegion, path: str, fmt: str = "embedded") -> None:
    """Write one CSV row per node, in node order.

    ``fmt`` is "embedded" (adds plot coordinates, M must be 2 or 3) or
    "raw" (lattice and simplex coordinates only, any M).  The first line is
    a comment carrying the grid shape and extraction parameters so the file
    round-trips through import_region.  Integers are written in decimal,
    floats with 17 significant digits (exact round trip), rows end in
    CRLF.
    """
    grid = region.grid
    M = grid.M
    if fmt not in ("embedded", "raw"):
        raise ValueError(f"unknown export format {fmt!r}")
    if fmt == "embedded" and M not in (2, 3):
        raise ValueError(f"embedded export needs 2 or 3 types, grid has M={M}")

    # (column names, printf format, per-node array)
    parts = [
        ([f"k{i}" for i in range(M + 1)], "%d", grid.lattice),
        ([f"pi{i}" for i in range(M + 1)], "%.17g", grid.nodes),
    ]
    if fmt == "embedded":
        parts.append((["x", "y", "z"][:M], "%.17g", embed(grid.nodes)))
    parts += [
        (["label"], "%d", region.labels[:, None]),
        (["value"], "%.17g", region.values[:, None]),
        (["h"], "%.17g", region.h_all.min(axis=1)[:, None]),
        ([f"h{j}" for j in range(1, M + 1)], "%.17g", region.h_all),
    ]
    header = ",".join(name for names, _, _ in parts for name in names)

    # Most columns repeat few values, so each distinct value is formatted
    # once, each text already carrying the separator that follows it, and
    # rows are gathered by index.  Floats are told apart by bit pattern:
    # 0.0 and -0.0 compare equal but print as "0" and "-0".
    columns = [(conv, arr[:, i]) for names, conv, arr in parts for i in range(len(names))]
    seps = [","] * (len(columns) - 1) + ["\r\n"]
    texts, index = [], []
    for (conv, col), sep in zip(columns, seps):
        floats = col.dtype == np.float64
        uniq, inv = np.unique(col.view(np.int64) if floats else col, return_inverse=True)
        if floats:
            uniq = uniq.view(np.float64)
        texts.append(np.array([conv % v + sep for v in uniq.tolist()], dtype=object))
        index.append(inv.astype(np.int32))

    with open(path, "w", newline="") as fh:
        fh.write(
            f"# changediag-region M={M} Q={grid.Q} N={region.N_used} "
            f"stop_tol={_fmt(region.stop_tol)} format={fmt}\n"
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
        ValueError: on a malformed header, unparsable rows, a row count
            other than the grid's node count, rows out of node order, or
            labels outside 0..M.
    """
    with open(path) as fh:
        head = fh.readline()
        if not head.startswith("# changediag-region"):
            raise ValueError(f"{path}: not a region export")
        try:
            meta = dict(part.split("=", 1) for part in head[2:].split()[1:])
            M = int(meta["M"])
            Q = int(meta["Q"])
            N_used = int(meta["N"])
            stop_tol = float(meta["stop_tol"])
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
    tail = data[:, :M]
    misplaced = np.flatnonzero((tail != grid.lattice[:, 1:]).any(axis=1))
    if misplaced.size:
        raise ValueError(
            f"{path}: rows out of node order at line {misplaced[0] + 3}"
        )
    labels = data[:, M]
    if not np.isin(labels, np.arange(M + 1)).all():
        raise ValueError(f"{path}: labels outside 0..{M}")
    return StoppingRegion(
        grid=grid,
        labels=labels.astype(np.int8),
        values=data[:, M + 1].copy(),
        h_all=data[:, M + 2 :].copy(),
        N_used=N_used,
        stop_tol=stop_tol,
    )
