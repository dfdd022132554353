import csv
import dataclasses
import io
import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import changediag as cd
from changediag.posterior import h_values_many
from changediag.regions import (
    StoppingRegion,
    _component_count,
    _neighbor_ids,
    boundary_nodes,
    corner_node,
)
from changediag.solver import transition_matrix

import instances
import oracles


@pytest.fixture(scope="module")
def merged_region(solve200):
    spec, table = solve200("merged")
    return spec, cd.extract_region(spec, table)


def test_corner_labels(merged_region):
    spec, region = merged_region
    grid = region.grid
    index = oracles.lattice_index(grid.lattice)
    assert region.labels[index[(0, grid.Q, 0)]] == 1
    assert region.labels[index[(0, 0, grid.Q)]] == 2
    assert region.labels[index[(grid.Q, 0, 0)]] == 0


def test_cheap_stopping_cost_nodes_are_labeled(merged_region):
    """Nodes where some h_j is below both h and the one-period delay cost
    must be in the stopping set for decision j."""
    spec, region = merged_region
    grid = region.grid
    h_all = h_values_many(spec, grid.nodes)
    h = h_all.min(axis=1)
    delay = spec.c * (1 - grid.nodes[:, 0])
    for j in (1, 2):
        mask = h_all[:, j - 1] <= np.minimum(h, delay)
        assert mask.any()
        assert (region.labels[mask] == j).all()


def test_edge_segment_near_type_corner_is_labeled(merged_region):
    """Points lam*e0 + (1-lam)*e_j stop with decision j whenever
    lam <= c/(a_0j + c); for these costs that is lam <= 1/11."""
    spec, region = merged_region
    grid = region.grid
    cutoff = spec.c / (spec.a[0, 0] + spec.c)
    index = oracles.lattice_index(grid.lattice)
    for k in range(grid.Q + 1):
        lam = k / grid.Q
        label = region.labels[index[(k, grid.Q - k, 0)]]
        if lam <= cutoff:
            assert label == 1
    # and the far end of the edge, near e0, continues
    assert region.labels[index[(grid.Q - 1, 1, 0)]] == 0


def test_stop_labels_respect_cost_ties(merged_region):
    spec, region = merged_region
    stop = region.labels > 0
    cols = region.labels[stop].astype(int) - 1
    rows = np.flatnonzero(stop)
    h = region.h_all.min(axis=1)
    assert np.allclose(region.h_all[rows, cols], h[rows], atol=1e-12)
    assert (region.values[rows] >= h[rows] - region.stop_tol - 1e-12).all()


def test_region_report_structure(merged_region):
    spec, region = merged_region
    report = cd.check_region_properties(region)
    for j in (1, 2):
        per = report["labels"][j]
        assert per["nonempty"]
        assert per["contains_corner"]
        assert per["num_components"] == 1
        assert per["convexity_violations"] == 0
        assert per["strict_violations"] == 0
    assert report["nested"] is None


@pytest.mark.parametrize(
    "name,stopping,continuation",
    [
        ("merged", 1, 2),
        ("merged_costly", 1, 1),
        ("split", 2, 1),
        ("split_skew", 2, 1),
        ("asym_split", 2, 1),
        ("asym_pocket", 1, 2),
    ],
)
def test_component_counts_across_cost_layouts(solve200, name, stopping, continuation):
    spec, table = solve200(name)
    region = cd.extract_region(spec, table)
    report = cd.check_region_properties(region)
    assert report["stopping_components"] == stopping
    assert report["continuation_components"] == continuation


def test_nestedness_of_truncated_regions():
    spec = instances.FIGURES["merged"]
    grid = cd.build_grid(2, 60)
    regions = {}
    for n in (5, 50):
        table = cd.value_iterate(spec, grid, tol=1e-300, max_iter=n)
        regions[n] = cd.extract_region(spec, table, stop_tol=0.0)
    report = cd.check_region_properties(regions[50], regions[5])
    assert report["nested"]["ok"]
    assert report["nested"]["violations"] == 0
    # the check always puts the longer horizon first, whatever the order
    # of the arguments
    reversed_report = cd.check_region_properties(regions[5], regions[50])
    assert reversed_report["nested"] == report["nested"]
    # the 5-sweep stopping set is strictly larger, so passing it off as the
    # longer horizon must flag the extra nodes
    sizes = {n: int((regions[n].labels > 0).sum()) for n in (5, 50)}
    assert sizes[5] > sizes[50]
    swapped = dataclasses.replace(regions[5], N_used=500)
    swapped_report = cd.check_region_properties(regions[50], swapped)
    assert not swapped_report["nested"]["ok"]
    assert swapped_report["nested"]["violations"] == sizes[5] - sizes[50]


def test_region_vs_itself_is_trivially_nested(merged_region):
    _, region = merged_region
    report = cd.check_region_properties(region, region)
    assert report["nested"]["ok"]
    assert report["nested"]["violations"] == 0


def test_shiryaev_stopping_set_is_terminal_interval():
    spec = instances.shiryaev_binary()
    table = cd.value_iterate(spec, cd.build_grid(1, 400))
    region = cd.extract_region(spec, table)
    labels = region.labels
    # nodes are ordered by ascending pi_0, so the alarm interval (high
    # change probability) comes first and continuation fills the rest
    first_continue = int(np.argmax(labels == 0))
    assert (labels[:first_continue] == 1).all()
    assert (labels[first_continue:] == 0).all()
    assert 0 < first_continue < region.grid.Q


def test_embed_triangle_corners():
    assert cd.embed(np.array([1.0, 0.0, 0.0])) == pytest.approx([0.0, 0.0])
    assert cd.embed(np.array([0.0, 1.0, 0.0])) == pytest.approx(
        [2 / math.sqrt(3), 0.0], abs=1e-15
    )
    assert cd.embed(np.array([0.0, 0.0, 1.0])) == pytest.approx(
        [1 / math.sqrt(3), 1.0], abs=1e-15
    )


def test_embed_is_affine():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = rng.dirichlet(np.ones(3))
        b = rng.dirichlet(np.ones(3))
        lam = rng.uniform()
        mix = cd.embed(lam * a + (1 - lam) * b)
        assert mix == pytest.approx(lam * cd.embed(a) + (1 - lam) * cd.embed(b), abs=1e-14)


def test_embed_tetrahedron_is_regular():
    pts = np.array([cd.embed(row) for row in np.eye(4)])
    assert pts.shape == (4, 3)
    dists = pdist(pts)
    assert dists == pytest.approx(np.full(6, dists[0]), rel=1e-12)


def test_embed_rejects_other_dimensions():
    with pytest.raises(ValueError):
        cd.embed(np.array([0.5, 0.5]))


def test_export_embedded_row_count_and_corner_row(tmp_path):
    spec = instances.FIGURES["merged"]
    grid = cd.build_grid(2, 4)
    table = cd.value_iterate(spec, grid)
    region = cd.extract_region(spec, table)
    path = tmp_path / "region.csv"
    cd.export_region(region, str(path))
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 15
    e1_rows = [r for r in rows if float(r["pi1"]) == 1.0]
    assert len(e1_rows) == 1
    assert float(e1_rows[0]["x"]) == pytest.approx(2 / math.sqrt(3), abs=1e-15)
    assert float(e1_rows[0]["y"]) == 0.0
    assert e1_rows[0]["label"] == "1"
    assert float(e1_rows[0]["h1"]) == 0.0


def test_export_raw_round_trip(tmp_path, merged_region):
    _, region = merged_region
    path = tmp_path / "region_raw.csv"
    cd.export_region(region, str(path), fmt="raw")
    back = cd.import_region(str(path))
    assert back.grid.Q == region.grid.Q and back.grid.M == region.grid.M
    assert np.array_equal(back.labels, region.labels)
    assert np.array_equal(back.values, region.values)
    assert np.array_equal(back.h_all, region.h_all)
    assert back.N_used == region.N_used
    assert back.stop_tol == region.stop_tol


def test_boundary_nodes_are_frontier(merged_region):
    _, region = merged_region
    grid = region.grid
    ids = boundary_nodes(region, 1)
    assert ids.size > 0
    labels = region.labels
    index = oracles.lattice_index(grid.lattice)
    for node_id in ids:
        assert labels[node_id] == 1
        k = grid.lattice[node_id]
        has_continue_neighbor = False
        for a in range(3):
            for b in range(3):
                if a == b:
                    continue
                nb = k.copy()
                nb[a] -= 1
                nb[b] += 1
                if (nb < 0).any():
                    continue
                if labels[index[tuple(nb.tolist())]] == 0:
                    has_continue_neighbor = True
        assert has_continue_neighbor


def test_helper_node_lookups(grid200):
    index = oracles.lattice_index(grid200.lattice)
    assert corner_node(grid200, 1) == index[(0, grid200.Q, 0)]


def small_region(spec, Q):
    grid = cd.build_grid(spec.num_types, Q)
    return cd.extract_region(spec, cd.value_iterate(spec, grid))


def csv_writer_reference(region, fmt):
    """The export written row by row with csv.writer and str formatting."""
    grid = region.grid
    M = grid.M
    g = lambda x: format(float(x), ".17g")  # noqa: E731
    lines = io.StringIO(newline="")
    lines.write(
        f"# changediag-region M={M} Q={grid.Q} N={region.N_used} "
        f"stop_tol={g(region.stop_tol)} format={fmt}\n"
    )
    writer = csv.writer(lines)
    header = [f"k{i}" for i in range(M + 1)] + [f"pi{i}" for i in range(M + 1)]
    if fmt == "embedded":
        header += ["x", "y"]
    header += ["label", "value", "h"] + [f"h{j}" for j in range(1, M + 1)]
    writer.writerow(header)
    for k in range(grid.n_nodes):
        lat = [int(v) for v in grid.lattice[k]]
        pi = [v / grid.Q for v in lat]
        row = [str(v) for v in lat] + [g(v) for v in pi]
        if fmt == "embedded":
            row += [g((2.0 * pi[1] + pi[2]) / math.sqrt(3.0)), g(pi[2])]
        h_row = [float(v) for v in region.h_all[k]]
        row += [str(int(region.labels[k])), g(region.values[k]), g(min(h_row))]
        row += [g(v) for v in h_row]
        writer.writerow(row)
    return lines.getvalue()


@pytest.mark.parametrize(
    "spec,Q,fmt",
    [
        (instances.FIGURES["merged"], 12, "embedded"),
        (instances.three_type(), 8, "raw"),
        # more rows than one export chunk (4096)
        (instances.FIGURES["merged"], 100, "embedded"),
        (instances.three_type(), 28, "raw"),
    ],
    ids=["M2-embedded", "M3-raw", "M2-embedded-5151-rows", "M3-raw-4495-rows"],
)
def test_export_bytes_match_csv_writer(tmp_path, spec, Q, fmt):
    region = small_region(spec, Q)
    path = tmp_path / "region.csv"
    cd.export_region(region, str(path), fmt=fmt)
    expected = csv_writer_reference(region, fmt)
    assert path.read_bytes() == expected.encode("ascii")


def test_export_writes_signed_zeros_apart(tmp_path):
    """0.0 and -0.0 compare equal but print as "0" and "-0"; the export
    keeps them apart however often either repeats."""
    grid = cd.build_grid(2, 4)
    n = grid.n_nodes
    values = np.where(np.arange(n) % 2 == 0, 0.0, -0.0)
    values[-1] = 0.25
    h_all = np.tile([0.5, 1.5], (n, 1))
    h_all[::3, 1] = 0.5
    region = StoppingRegion(
        grid=grid, labels=np.zeros(n, dtype=np.int8), values=values,
        h_all=h_all, N_used=1, stop_tol=0.0,
    )
    path = tmp_path / "region.csv"
    cd.export_region(region, str(path))
    assert path.read_bytes() == csv_writer_reference(region, "embedded").encode("ascii")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [row["value"] for row in rows[:3]] == ["0", "-0", "0"]
    assert {row["value"] for row in rows} == {"0", "-0", "0.25"}


def test_export_import_round_trip_three_types(tmp_path):
    region = small_region(instances.three_type(), 8)
    for fmt in ("embedded", "raw"):
        path = tmp_path / f"region-{fmt}.csv"
        cd.export_region(region, str(path), fmt=fmt)
        back = cd.import_region(str(path))
        assert back.grid.M == 3 and back.grid.Q == 8
        assert np.array_equal(back.labels, region.labels)
        assert np.array_equal(back.values, region.values)
        assert np.array_equal(back.h_all, region.h_all)
        assert back.N_used == region.N_used
        assert back.stop_tol == region.stop_tol


@pytest.fixture()
def exported_csv(tmp_path):
    path = tmp_path / "region.csv"
    cd.export_region(small_region(instances.FIGURES["merged"], 60), str(path))
    return path


def test_import_rejects_truncated_csv(exported_csv):
    lines = exported_csv.read_bytes().splitlines(keepends=True)
    exported_csv.write_bytes(b"".join(lines[: 2 + 1000]))
    with pytest.raises(ValueError, match="1000 data rows.*1891 nodes"):
        cd.import_region(str(exported_csv))
    exported_csv.write_bytes(b"".join(lines[:2]))
    with pytest.raises(ValueError, match="0 data rows"):
        cd.import_region(str(exported_csv))
    exported_csv.write_bytes(lines[0].replace(b"Q=60", b"Q=") + b"".join(lines[1:]))
    with pytest.raises(ValueError, match="malformed region header"):
        cd.import_region(str(exported_csv))


def test_import_rejects_extra_and_reordered_rows(exported_csv):
    lines = exported_csv.read_bytes().splitlines(keepends=True)
    exported_csv.write_bytes(b"".join(lines + lines[-1:]))
    with pytest.raises(ValueError, match="1892 data rows"):
        cd.import_region(str(exported_csv))
    lines[10], lines[11] = lines[11], lines[10]
    exported_csv.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match="out of node order at line 11"):
        cd.import_region(str(exported_csv))


@pytest.mark.parametrize("stop_tol", [None, 0.0, 1e-3])
def test_extract_region_from_loaded_table_matches_recomputation(tmp_path, stop_tol):
    spec = instances.FIGURES["merged"]
    grid = cd.build_grid(2, 40)
    path = str(tmp_path / "t.cdvt")
    cd.save_table(cd.value_iterate(spec, grid), spec, path)
    table, _ = cd.load_table(path)
    region = cd.extract_region(spec, table, stop_tol)

    tol = table.stop_tol if stop_tol is None else stop_tol
    h_all = grid.nodes @ spec.a
    cont = spec.c * (1.0 - grid.nodes[:, 0]) + transition_matrix(spec, grid) @ table.values
    expected = np.where(h_all.min(axis=1) <= cont + tol, h_all.argmin(axis=1) + 1, 0)
    assert np.array_equal(region.labels, expected)
    assert region.stop_tol == tol


def test_extract_region_rejects_a_non_finite_stop_tol(solve200):
    spec, table = solve200("merged")
    for stop_tol in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"stop_tol={stop_tol} must be finite"):
            cd.extract_region(spec, table, stop_tol)


def reference_neighbors(grid):
    """Neighbor table by explicit shifts: node + e_a - e_b, looked up by its
    coordinates, for every ordered pair a != b."""
    M = grid.M
    node_id = oracles.lattice_index(grid.lattice)
    table = []
    for row in grid.lattice.tolist():
        cols = []
        for a in range(M + 1):
            for b in range(M + 1):
                if a != b:
                    shifted = list(row)
                    shifted[a] += 1
                    shifted[b] -= 1
                    cols.append(node_id.get(tuple(shifted), -1))
        table.append(cols)
    return np.array(table)


@pytest.mark.parametrize("M,Q", [(1, 6), (2, 5), (2, 9), (3, 4), (4, 3), (5, 4)])
def test_neighbor_ids_match_explicit_shifts(M, Q):
    grid = cd.build_grid(M, Q)
    got = _neighbor_ids(grid)
    assert got.dtype == np.int32
    want = reference_neighbors(grid)
    assert np.array_equal(got, want)
    some = np.arange(1, grid.n_nodes, 3)
    assert np.array_equal(_neighbor_ids(grid, some), want[some])


@pytest.mark.parametrize("M,Q", [(1, 40), (2, 12), (3, 7)])
def test_component_count_matches_a_breadth_first_search(M, Q):
    """Seeded random masks from sparse to dense: the union-find count equals
    a plain search, and the masks include split sets."""
    grid = cd.build_grid(M, Q)
    neighbors = _neighbor_ids(grid)
    rng = np.random.default_rng(100 + M)
    counts = []
    for density in (0.3, 0.5, 0.7, 0.9):
        for _ in range(5):
            mask = rng.random(grid.n_nodes) < density
            counts.append(_component_count(grid, mask, neighbors))
            assert counts[-1] == oracles.component_count(grid.lattice, mask)
    assert max(counts) >= 2


@pytest.mark.parametrize("M,Q", [(1, 6), (2, 5), (3, 4)])
def test_component_count_of_empty_and_isolated_nodes(M, Q):
    grid = cd.build_grid(M, Q)
    neighbors = _neighbor_ids(grid)
    assert _component_count(grid, np.zeros(grid.n_nodes, dtype=bool), neighbors) == 0
    corners = np.zeros(grid.n_nodes, dtype=bool)
    corners[[corner_node(grid, j) for j in range(M + 1)]] = True
    for mask, want in ((corners, M + 1), (np.eye(grid.n_nodes, dtype=bool)[3], 1)):
        assert _component_count(grid, mask, neighbors) == want
        assert oracles.component_count(grid.lattice, mask) == want


def test_corner_node_is_the_corner():
    for M, Q in [(1, 6), (2, 5), (3, 4)]:
        grid = cd.build_grid(M, Q)
        for coord in range(M + 1):
            assert grid.lattice[corner_node(grid, coord)].tolist() == (
                Q * np.eye(M + 1, dtype=int)[coord]
            ).tolist()


def reference_convexity(region, max_pairs, seed):
    """(pairs, violations, strict violations) per label, one pair at a time,
    drawing pairs the way check_region_properties documents."""
    grid, labels = region.grid, region.labels.tolist()
    node_id = {tuple(row): k for k, row in enumerate(grid.lattice.tolist())}
    lattice = grid.lattice.tolist()
    neighbors = reference_neighbors(grid).tolist()
    interior = [
        all(n < 0 or labels[n] == labels[k] for n in neighbors[k])
        for k in range(grid.n_nodes)
    ]
    rng = np.random.default_rng(seed)
    counts = {}
    for j in range(1, grid.M + 1):
        ids = [k for k in range(grid.n_nodes) if labels[k] == j]
        if len(ids) < 2:
            counts[j] = (0, 0, 0)
            continue
        if len(ids) * (len(ids) - 1) // 2 <= max_pairs:
            pairs = [(u, w) for i, u in enumerate(ids) for w in ids[i + 1 :]]
        else:
            pick = rng.integers(0, len(ids), size=(max_pairs, 2))
            pairs = [(ids[x], ids[y]) for x, y in pick.tolist() if x != y]
        violations = strict = 0
        for u, w in pairs:
            diff = [b - a for a, b in zip(lattice[u], lattice[w])]
            g = math.gcd(*diff)
            between = (
                tuple(a + m * d // g for a, d in zip(lattice[u], diff))
                for m in range(1, g)
            )
            if any(labels[node_id[point]] != j for point in between):
                violations += 1
                strict += interior[u] and interior[w]
        counts[j] = (len(pairs), violations, strict)
    return counts


@pytest.mark.parametrize("M,Q", [(2, 14), (3, 10)])
@pytest.mark.parametrize("max_pairs", [10**6, 300], ids=["all-pairs", "sampled"])
def test_convexity_counts_match_per_pair_loop(M, Q, max_pairs):
    grid = cd.build_grid(M, Q)
    rng = np.random.default_rng(Q)
    # the largest coordinate picks the label, and random holes of
    # continuation nodes break the convexity of every stopping set
    labels = grid.nodes.argmax(axis=1)
    labels[rng.random(grid.n_nodes) < 0.08] = 0
    labels = labels.astype(np.int8)
    region = StoppingRegion(grid, labels, np.zeros(grid.n_nodes), grid.nodes[:, 1:], 1, 0.0)
    report = cd.check_region_properties(region, max_pairs=max_pairs, seed=7)
    want = reference_convexity(region, max_pairs, seed=7)
    got = {
        j: (e["convexity_pairs"], e["convexity_violations"], e["strict_violations"])
        for j, e in report["labels"].items()
    }
    assert got == want
    # both kinds of violation occur, and every label has more than 300
    # pairs, so max_pairs=300 samples and max_pairs=10**6 takes all pairs
    _, violations, strict = np.sum(list(want.values()), axis=0)
    assert violations > strict > 0
    assert all(n * (n - 1) // 2 > 300 for n in np.bincount(labels)[1:])
