import csv
import dataclasses
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import changediag as cd
from changediag.posterior import h_values_many
from changediag.regions import (
    StoppingRegion,
    _component_counts,
    _neighbor_ids,
    boundary_nodes,
    corner_node,
)

import fixed
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
        # the paper's nestedness holds at zero slack
        regions[n] = fixed.region_at(spec, table, 0.0)
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


def test_export_raw_round_trip(tmp_path):
    """Outside M = 2, 3 the export is raw, with no plot columns."""
    region = small_region(instances.shiryaev_binary(), 30)
    path = tmp_path / "region_raw.csv"
    cd.export_region(region, str(path))
    head, columns = path.read_text().splitlines()[:2]
    assert head.endswith(" format=raw")
    assert columns == "k0,k1,pi0,pi1,label,value,h,h1"
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


def csv_writer_reference(region):
    """The export written row by row with csv.writer, integers by str and
    floats by repr less the ".0" of an integral float (the header's
    stop_tol keeps it); the plot coordinates are the planar and spatial
    embeddings of ``regions.embed``, term for term."""
    grid = region.grid
    M = grid.M
    fmt = "embedded" if M in (2, 3) else "raw"
    g = lambda x: repr(float(x)).removesuffix(".0")  # noqa: E731
    lines = io.StringIO(newline="")
    lines.write(
        f"# changediag-region M={M} Q={grid.Q} N={region.N_used} "
        f"stop_tol={float(region.stop_tol)!r} format={fmt}\n"
    )
    writer = csv.writer(lines)
    header = [f"k{i}" for i in range(M + 1)] + [f"pi{i}" for i in range(M + 1)]
    if fmt == "embedded":
        header += ["x", "y", "z"][:M]
    header += ["label", "value", "h"] + [f"h{j}" for j in range(1, M + 1)]
    writer.writerow(header)
    for k in range(grid.n_nodes):
        lat = [int(v) for v in grid.lattice[k]]
        pi = [v / grid.Q for v in lat]
        row = [str(v) for v in lat] + [g(v) for v in pi]
        if M == 2:
            row += [g((2.0 * pi[1] + pi[2]) / math.sqrt(3.0)), g(pi[2])]
        elif M == 3:
            row += [g(math.sqrt(1.5) * (pi[1] + 0.5 * pi[2] + 0.5 * pi[3])),
                    g(math.sqrt(0.5) * (1.5 * pi[2] + 0.5 * pi[3])), g(pi[3])]
        h_row = [float(v) for v in region.h_all[k]]
        row += [str(int(region.labels[k])), g(region.values[k]), g(min(h_row))]
        row += [g(v) for v in h_row]
        writer.writerow(row)
    return lines.getvalue()


@pytest.mark.parametrize(
    "spec,Q",
    [
        (instances.FIGURES["merged"], 12),
        (instances.three_type(), 8),
        (instances.shiryaev_binary(), 20),
        (instances.sa_three_component(), 3),
        # more rows than one export chunk (4096)
        (instances.FIGURES["merged"], 100),
        (instances.three_type(), 28),
    ],
    ids=["M2-embedded", "M3-embedded", "M1-raw", "M7-raw", "M2-embedded-5151-rows",
         "M3-embedded-4495-rows"],
)
def test_export_bytes_match_csv_writer(tmp_path, spec, Q):
    region = small_region(spec, Q)
    path = tmp_path / "region.csv"
    cd.export_region(region, str(path))
    expected = csv_writer_reference(region)
    assert path.read_bytes() == expected.encode("ascii")


def test_export_writes_signed_zeros_apart(tmp_path):
    """0.0 and -0.0 compare equal but print as "0" and "-0"; the export
    keeps them apart however often either repeats, and reads them back
    apart."""
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
    assert path.read_bytes() == csv_writer_reference(region).encode("ascii")
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert [row["value"] for row in rows[:3]] == ["0", "-0", "0"]
    assert {row["value"] for row in rows} == {"0", "-0", "0.25"}
    assert cd.import_region(str(path)).values.tobytes() == values.tobytes()


def test_export_of_the_seven_type_grid_drops_integral_float_text(tmp_path):
    """Most coordinates of the seven-type Q=8 grid are integral floats,
    written without ".0": the file is 610,022 bytes (680,558 with ".0"),
    and it reads back into bitwise the same arrays."""
    region = small_region(instances.sa_three_component(), 8)
    path = tmp_path / "region.csv"
    cd.export_region(region, str(path))
    assert path.stat().st_size <= 610_666
    back = cd.import_region(str(path))
    for name in ("labels", "values", "h_all"):
        assert getattr(back, name).tobytes() == getattr(region, name).tobytes(), name


def test_export_import_round_trip_three_types(tmp_path):
    region = small_region(instances.three_type(), 8)
    path = tmp_path / "region.csv"
    cd.export_region(region, str(path))
    assert path.read_text().splitlines()[0].endswith(" format=embedded")
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


@pytest.mark.parametrize(
    "old,new",
    [(" M=2 ", " M=٢ "), (" Q=60 ", " Q=6_0 "), (" N=", " N=0_"), (" stop_tol=", " stop_tol=0_")],
    ids=["M-arabic-digit", "Q-underscore", "N-underscore", "stop_tol-underscore"],
)
def test_import_reads_header_numbers_as_ascii_decimal_text(exported_csv, old, new):
    """int() and float() would read each of these header values."""
    head, rest = exported_csv.read_text().split("\n", 1)
    assert old in head
    exported_csv.write_text(head.replace(old, new) + "\n" + rest)
    with pytest.raises(ValueError, match="malformed region header"):
        cd.import_region(str(exported_csv))


def _import_edited(path, pattern, text):
    """Import the region of the table at ``path``.cdvt, exported to
    ``path``.csv with ``pattern`` in its header replaced by ``text``."""
    table, spec = cd.load_table(f"{path}.cdvt")
    csv_path = f"{path}.csv"
    cd.export_region(cd.extract_region(spec, table), csv_path)
    with open(csv_path, newline="") as fh:
        head, rest = fh.readline(), fh.read()
    with open(csv_path, "w", newline="") as fh:
        fh.write(re.sub(pattern, text, head) + rest)
    return cd.import_region(csv_path)


@pytest.mark.parametrize(
    "act,message",
    [
        (lambda path: cd.import_region(str(path.with_suffix(".cdvt.json"))),
         "{path}.cdvt.json: not a region export"),
        (lambda path: _import_edited(path, r" N=\d+ ", " N=0 "),
         "{path}.csv: malformed region header (N=0 must be at least 1)"),
        (lambda path: _import_edited(path, r" N=\d+ ", " N=-3 "),
         "{path}.csv: malformed region header (N=-3 must be at least 1)"),
        (lambda path: _import_edited(path, r" stop_tol=\S+ ", " stop_tol=-1 "),
         "{path}.csv: malformed region header (stop_tol=-1.0 must be finite and nonnegative)"),
        (lambda path: _import_edited(path, r" stop_tol=\S+ ", " stop_tol=nan "),
         "{path}.csv: malformed region header (stop_tol=nan must be finite and nonnegative)"),
        (lambda path: _import_edited(path, r" stop_tol=\S+ ", " stop_tol=inf "),
         "{path}.csv: malformed region header (stop_tol=inf must be finite and nonnegative)"),
    ],
    ids=["import-a-table-sidecar", "import-N-0", "import-N-minus-3", "import-stop-tol-minus-1",
         "import-stop-tol-nan", "import-stop-tol-inf"],
)
def test_region_file_refusals_are_one_line(tmp_path, act, message):
    spec = instances.FIGURES["merged"]
    path = tmp_path / "r"
    cd.save_table(cd.value_iterate(spec, cd.build_grid(2, 6)), spec, str(path) + ".cdvt")
    with pytest.raises(ValueError) as info:
        act(path)
    assert str(info.value) == message.format(path=path)
    assert not path.exists()


def test_import_rejects_extra_and_reordered_rows(exported_csv):
    lines = exported_csv.read_bytes().splitlines(keepends=True)
    exported_csv.write_bytes(b"".join(lines + lines[-1:]))
    with pytest.raises(ValueError, match="1892 data rows"):
        cd.import_region(str(exported_csv))
    lines[10], lines[11] = lines[11], lines[10]
    exported_csv.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match="out of node order at line 11"):
        cd.import_region(str(exported_csv))


@pytest.mark.parametrize("label", [b"3", b"-1", b"0.5", b"2.0000001", b"nan", b"inf"])
def test_import_rejects_labels_that_are_not_types(exported_csv, label):
    """A label must be one of 0..M: a number past either end, a fraction,
    NaN and infinity are each refused."""
    lines = exported_csv.read_bytes().splitlines(keepends=True)
    column = lines[1].split(b",").index(b"label")
    row = lines[7].split(b",")
    row[column] = label
    lines[7] = b",".join(row)
    exported_csv.write_bytes(b"".join(lines))
    with pytest.raises(ValueError, match=r"labels outside 0\.\.2"):
        cd.import_region(str(exported_csv))


def test_check_and_export_peak_memory_is_bounded_per_node(merged_region, tmp_path):
    """At M=2, Q=200 the traced peak of the region check stays within 120
    bytes per node and that of the CSV export within 180: the component
    counts take one union-find over int32 edges, one direction at a time,
    and the export keeps no index array for the columns the lattice fixes."""
    _, region = merged_region
    path = str(tmp_path / "r.csv")
    for run, per_node in (
        (lambda: cd.check_region_properties(region), 120),
        (lambda: cd.export_region(region, path), 180),
    ):
        run()  # first-call costs stay outside the trace
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= per_node * region.grid.n_nodes


def test_extract_region_from_loaded_table_matches_recomputation(tmp_path):
    """The stored labels are the Bellman stop rule at the table's own
    slack, recomputed here from T."""
    spec = instances.FIGURES["merged"]
    path = str(tmp_path / "t.cdvt")
    cd.save_table(cd.value_iterate(spec, cd.build_grid(2, 40)), spec, path)
    table, _ = cd.load_table(path)
    region = cd.extract_region(spec, table)
    assert np.array_equal(region.labels, fixed.labels_at(spec, table, table.stop_tol))
    assert region.stop_tol == table.stop_tol


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
    """Seeded random masks from sparse to dense, labelled 1 and 0: the
    union-find counts of the mask and of its complement equal a plain
    search, and the masks include split sets."""
    grid = cd.build_grid(M, Q)
    neighbors = _neighbor_ids(grid)
    rng = np.random.default_rng(100 + M)
    counts = []
    for density in (0.3, 0.5, 0.7, 0.9):
        for _ in range(5):
            mask = rng.random(grid.n_nodes) < density
            per_label, stopping = _component_counts(grid, mask.astype(np.int8), neighbors)
            counts.append(stopping)
            assert per_label[1] == stopping == oracles.component_count(grid.lattice, mask)
            assert per_label[0] == oracles.component_count(grid.lattice, ~mask)
            assert not per_label[2:].any()
    assert max(counts) >= 2


@pytest.mark.parametrize("M,Q", [(2, 12), (3, 7)])
def test_one_pass_counts_match_a_search_per_label_and_for_the_union(M, Q):
    """Seeded random labellings over 0..M, from sparse to dense stopping
    sets: the count of every label's set and of the union of the stopping
    sets each equal a plain search.  Different stopping labels touch, so
    the union merges components across labels."""
    grid = cd.build_grid(M, Q)
    neighbors = _neighbor_ids(grid)
    rng = np.random.default_rng(200 + M)
    merged = 0
    for density in (0.3, 0.5, 0.7, 0.9):
        for _ in range(5):
            stop = rng.random(grid.n_nodes) < density
            types = rng.integers(1, M + 1, grid.n_nodes)
            labels = np.where(stop, types, 0).astype(np.int8)
            per_label, stopping = _component_counts(grid, labels, neighbors)
            assert per_label.tolist() == [
                oracles.component_count(grid.lattice, labels == j) for j in range(M + 1)
            ]
            assert stopping == oracles.component_count(grid.lattice, stop)
            merged += stopping < per_label[1:].sum()
    assert merged > 0


def test_one_pass_counts_join_touching_stopping_sets():
    """Stop(1) (k_1 > k_2) and Stop(2) (k_2 >= k_1) meet along the middle
    of the far edge: one component each, and one for their union."""
    grid = cd.build_grid(2, 10)
    k = grid.lattice
    labels = np.where(k[:, 1] > k[:, 2], 1, 2).astype(np.int8)
    labels[k[:, 0] > 4] = 0
    per_label, stopping = _component_counts(grid, labels, _neighbor_ids(grid))
    assert per_label.tolist() == [1, 1, 1]
    assert stopping == 1


@pytest.mark.parametrize("M,Q", [(1, 6), (2, 5), (3, 4)])
def test_component_count_of_empty_and_isolated_nodes(M, Q):
    grid = cd.build_grid(M, Q)
    neighbors = _neighbor_ids(grid)

    def count(mask):
        return _component_counts(grid, mask.astype(np.int8), neighbors)[1]

    assert count(np.zeros(grid.n_nodes, dtype=bool)) == 0
    corners = np.zeros(grid.n_nodes, dtype=bool)
    corners[[corner_node(grid, j) for j in range(M + 1)]] = True
    for mask, want in ((corners, M + 1), (np.eye(grid.n_nodes, dtype=bool)[3], 1)):
        assert count(mask) == want
        assert oracles.component_count(grid.lattice, mask) == want


def test_corner_node_is_the_corner():
    for M, Q in [(1, 6), (2, 5), (3, 4)]:
        grid = cd.build_grid(M, Q)
        for coord in range(M + 1):
            assert grid.lattice[corner_node(grid, coord)].tolist() == (
                Q * np.eye(M + 1, dtype=int)[coord]
            ).tolist()


def reference_convexity(region, max_pairs):
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
    rng = np.random.default_rng(0)
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
def test_convexity_counts_match_per_pair_loop(M, Q, max_pairs, monkeypatch):
    grid = cd.build_grid(M, Q)
    rng = np.random.default_rng(Q)
    # the largest coordinate picks the label, and random holes of
    # continuation nodes break the convexity of every stopping set
    labels = grid.nodes.argmax(axis=1)
    labels[rng.random(grid.n_nodes) < 0.08] = 0
    labels = labels.astype(np.int8)
    region = StoppingRegion(grid, labels, np.zeros(grid.n_nodes), grid.nodes[:, 1:], 1, 0.0)
    monkeypatch.setattr(cd.regions, "_CONVEXITY_PAIRS", max_pairs)
    report = cd.check_region_properties(region)
    want = reference_convexity(region, max_pairs)
    got = {
        j: (e["convexity_pairs"], e["convexity_violations"], e["strict_violations"])
        for j, e in report["labels"].items()
    }
    assert got == want
    # both kinds of violation occur among all pairs (300 pairs drawn from
    # the 3-type sets may miss their few strict ones), and every label has
    # more than 300 pairs, so a cap of 300 samples and 10**6 takes all pairs
    every_pair = reference_convexity(region, 10**6)
    _, violations, strict = np.sum(list(every_pair.values()), axis=0)
    assert violations > strict > 0
    assert all(n * (n - 1) // 2 > 300 for n in np.bincount(labels)[1:])
