import dataclasses
import hashlib
import itertools
import json
import math
import os
import pathlib
import struct
import tracemalloc

import numpy as np
import pytest

import changediag as cd
from changediag import posterior, solver
from changediag.model import spec_to_dict
from changediag.posterior import h_values_many

import instances
import oracles


def shiryaev_table(Q=100, **kw):
    spec = instances.shiryaev_binary()
    return spec, cd.value_iterate(spec, cd.build_grid(1, Q), **kw)


@pytest.mark.parametrize("M", range(1, 8))
def test_lattice_is_the_stars_and_bars_enumeration(M):
    """The lattice rows, int32 and in order, are the vectors of star counts
    between M bars placed at lexicographically ascending positions."""
    for Q in (1, 2, 5):
        want = [
            np.diff((-1, *bars, Q + M)) - 1
            for bars in itertools.combinations(range(Q + M), M)
        ]
        lattice = cd.build_grid(M, Q).lattice
        assert lattice.dtype == np.int32
        assert np.array_equal(lattice, np.array(want))


def test_grid_node_counts():
    assert cd.build_grid(1, 4).n_nodes == 5
    assert cd.build_grid(2, 200).n_nodes == 20301
    assert cd.build_grid(3, 50).n_nodes == 23426
    assert cd.build_grid(2, 200).n_nodes == math.comb(202, 2)


def test_grid_nodes_are_exact_lattice_points():
    grid = cd.build_grid(2, 7)
    assert np.array_equal(grid.lattice.sum(axis=1), np.full(grid.n_nodes, 7))
    assert (grid.lattice >= 0).all()
    # lexicographic enumeration is deterministic
    assert np.array_equal(grid.lattice, np.array(sorted(map(tuple, grid.lattice))))


@pytest.mark.parametrize("M,Q", [(1, 5), (2, 7), (3, 9), (4, 6)])
def test_grid_lattice_matches_product_enumeration(M, Q):
    grid = cd.build_grid(M, Q)
    reference = sorted(
        k for k in itertools.product(range(Q + 1), repeat=M + 1) if sum(k) == Q
    )
    assert np.array_equal(grid.lattice, np.array(reference))
    assert np.array_equal(grid.nodes, np.array(reference) / Q)


def tail_sums(rows):
    """R_1, ..., R_M of integer points given as rows, as an (M, n) array."""
    rows = np.asarray(rows)
    return np.cumsum(rows[:, :0:-1], axis=1)[:, ::-1].T


@pytest.mark.parametrize("M,Q", [(1, 7), (2, 9), (3, 6), (4, 5), (5, 4), (6, 3), (7, 3)])
def test_rank_numbers_every_lattice_row(M, Q):
    grid = cd.build_grid(M, Q)
    assert np.array_equal(solver._rank(grid, tail_sums(grid.lattice)), np.arange(grid.n_nodes))
    index = oracles.lattice_index(grid.lattice)
    for coord in range(M + 1):
        corner = tuple(Q * np.eye(M + 1, dtype=int)[coord])
        assert cd.regions.corner_node(grid, coord) == index[corner]
    # a tail sum of -1 or Q+1 names no node, in any row, so its id is
    # negative and not that of the next or the previous row's node
    for i in range(M):
        sums = np.zeros((M, 1), dtype=int)
        sums[: i + 1] = Q + 1
        assert solver._rank(grid, sums)[0] < 0
        sums[:i] = 0
        assert solver._rank(grid, sums)[0] < 0
        sums[:] = Q
        sums[i:] = -1
        assert solver._rank(grid, sums)[0] < 0


def reference_stencil(grid, points):
    """Kuhn stencils built corner by corner: each corner is a full lattice
    vector, found by its coordinates among the grid's nodes."""
    M, Q = grid.M, grid.Q
    node_id = oracles.lattice_index(grid.lattice)
    # the same snapping into the staircase as the library
    v = np.cumsum(points[:, ::-1], axis=1)[:, ::-1][:, 1:] * Q
    nearest = np.rint(v)
    v = np.where(np.abs(v - nearest) <= solver.SNAP_TOL, nearest, v)
    v = np.minimum.accumulate(np.clip(v, 0.0, Q), axis=1)
    base = np.floor(v).astype(np.int64)
    ids, weights, ties = [], [], 0
    for b, fr in zip(base.tolist(), (v - base).tolist()):
        order = sorted(range(M), key=lambda i: -fr[i])
        f = [fr[i] for i in order]
        w = [1.0 - f[0]] + [f[t - 1] - f[t] for t in range(1, M)] + [f[M - 1]]
        inner = [x for x in f if x > 0.0]
        ties += len(set(inner)) < len(inner)
        corner, row = list(b), []
        for t in range(M + 1):
            if t:
                corner[order[t - 1]] += 1
            c = corner if w[t] > 0.0 else b
            tail = [c[i] - c[i + 1] for i in range(M - 1)] + [c[M - 1]]
            row.append(node_id[(Q - sum(tail), *tail)])
        ids.append(row)
        weights.append(w)
    return np.array(ids), np.array(weights), ties


@pytest.mark.parametrize("M,Q", [(1, 9), (2, 7), (3, 6), (4, 5), (5, 4), (7, 3)])
def test_stencil_matches_corner_by_corner_reference(M, Q):
    grid = cd.build_grid(M, Q)
    rng = np.random.default_rng(M)
    faces = rng.dirichlet(np.ones(M + 1), size=500)
    faces[rng.random(faces.shape) < 0.4] = 0.0
    faces = faces[faces.sum(axis=1) > 0]
    faces /= faces.sum(axis=1, keepdims=True)
    points = np.concatenate([
        rng.dirichlet(np.full(M + 1, 0.3), size=1000),
        grid.nodes,
        np.eye(M + 1),
        faces,
        # a coordinate of -0.0 is a tie with +0.0 that a sort must keep in order
        np.where(faces == 0.0, -0.0, faces),
        np.where(grid.nodes == 0.0, -0.0, grid.nodes),
        # finer lattices put several cumulative coordinates at one fraction
        cd.build_grid(M, 2 * Q).nodes,
        cd.build_grid(M, 3 * Q).nodes,
    ])
    ids, weights = solver._stencil(grid, points)
    want_ids, want_weights, ties = reference_stencil(grid, points)
    assert ties > 0 or M == 1
    assert np.array_equal(ids, want_ids)
    assert weights.tobytes() == want_weights.tobytes()


@pytest.mark.parametrize("M,Q", [(1, 9), (2, 7), (3, 6), (4, 5), (5, 4), (7, 3)])
def test_stencils_of_single_rows_equal_the_batch(M, Q):
    """Stencils computed one point at a time are the batched ones, bit for
    bit: the one-row call runs the same kernel, not a scalar copy of it."""
    grid = cd.build_grid(M, Q)
    rng = np.random.default_rng(10 + M)
    finer = cd.build_grid(M, 2 * Q).nodes
    points = np.concatenate([
        rng.dirichlet(np.full(M + 1, 0.3), size=300),
        finer,
        np.eye(M + 1),
        np.where(finer == 0.0, -0.0, finer),
    ])
    ids, weights = solver._stencil(grid, points)
    for k, point in enumerate(points):
        one_ids, one_weights = solver._stencil(grid, point[None, :])
        assert np.array_equal(one_ids[0], ids[k])
        assert one_weights[0].tobytes() == weights[k].tobytes()


def test_interpolation_of_an_empty_batch_is_empty():
    grid = cd.build_grid(2, 7)
    ids, weights = solver._stencil(grid, np.empty((0, 3)))
    assert ids.shape == weights.shape == (0, 3)
    out = solver.interpolate_many(grid, np.zeros(grid.n_nodes), np.empty((0, 3)))
    assert out.shape == (0,)


@pytest.mark.parametrize("width", [2, 4])
def test_interpolation_refuses_points_of_the_wrong_width(width):
    spec = instances.FIGURES["merged"]
    table = cd.value_iterate(spec, cd.build_grid(2, 7), max_iter=2, tol=1e-300)
    pi = np.full(width, 1.0 / width)
    message = f"points have {width} coordinates, the grid's simplex has 3"
    with pytest.raises(ValueError, match=message):
        solver.interpolate_many(table.grid, table.values, pi[None, :])
    with pytest.raises(ValueError, match=message):
        cd.interpolate(table, pi)
    with pytest.raises(ValueError, match=message):
        cd.TableStrategy(table).decide(spec, pi, 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_interpolation_refuses_non_finite_points(bad):
    """A NaN or infinite coordinate would reach the stencil's integer casts;
    it is refused naming the first such row."""
    spec = instances.FIGURES["merged"]
    table = cd.value_iterate(spec, cd.build_grid(2, 7), max_iter=2, tol=1e-300)
    pis = np.full((3, 3), 1.0 / 3.0)
    pis[1:, 1] = bad
    message = rf"^point 1 has a non-finite coordinate: \[.*{bad}.*\]$"
    with pytest.raises(ValueError, match=message):
        solver.interpolate_many(table.grid, table.values, pis)
    with pytest.raises(ValueError, match=message):
        cd.TableStrategy(table).decide_many(spec, pis, 0)
    message = message.replace("point 1", "point 0")
    with pytest.raises(ValueError, match=message):
        cd.interpolate(table, pis[1])
    with pytest.raises(ValueError, match=message):
        cd.TableStrategy(table).decide(spec, pis[1], 0)


def test_grid_size_cap():
    with pytest.raises(cd.GridSizeError):
        cd.build_grid(2, 4, max_nodes=10)
    with pytest.raises(cd.GridSizeError):
        cd.build_grid(3, 2000)
    for M, Q, message in [(2, True, "^Q=True must be an integer$"),
                          (2, 2.5, "^Q=2.5 must be an integer$"),
                          (2, 0, "^Q=0 must be at least 1$"),
                          (0, 5, "^M=0 must be at least 1$"),
                          (2.0, 5, "^M=2.0 must be an integer$")]:
        with pytest.raises(ValueError, match=message):
            cd.build_grid(M, Q)
    assert cd.build_grid(np.int64(2), np.int32(3)).n_nodes == 10


def test_interpolate_exact_at_nodes():
    spec, table = shiryaev_table(Q=20, max_iter=5, tol=1e-300)
    for node_id in (0, 7, 20):
        pi = table.grid.nodes[node_id]
        assert cd.interpolate(table, pi) == table.values[node_id]


def test_interpolate_reproduces_affine_functions():
    grid = cd.build_grid(2, 25)
    coeffs = np.array([2.0, -3.0, 0.5])
    spec = instances.FIGURES["merged"]
    base = cd.value_iterate(spec, grid, max_iter=1, tol=1e-300)
    table = dataclasses.replace(base, values=grid.nodes @ coeffs + 1.0)
    rng = np.random.default_rng(2)
    for _ in range(200):
        pi = rng.dirichlet(np.ones(3))
        assert cd.interpolate(table, pi) == pytest.approx(pi @ coeffs + 1.0, abs=1e-12)


def test_interpolate_midpoint_of_adjacent_nodes():
    spec = instances.FIGURES["merged"]
    grid = cd.build_grid(2, 10)
    table = cd.value_iterate(spec, grid, max_iter=3, tol=1e-300)
    index = oracles.lattice_index(grid.lattice)
    a = index[(3, 4, 3)]
    b = index[(3, 5, 2)]
    mid = (grid.nodes[a] + grid.nodes[b]) / 2
    want = (table.values[a] + table.values[b]) / 2
    assert cd.interpolate(table, mid) == pytest.approx(want, abs=1e-14)


def test_interpolate_many_matches_scalar():
    spec, table = shiryaev_table(Q=50, max_iter=10, tol=1e-300)
    rng = np.random.default_rng(8)
    pis = rng.dirichlet(np.ones(2), size=50)
    batch = solver.interpolate_many(table.grid, table.values, pis)
    for out, pi in zip(batch, pis):
        assert out == pytest.approx(cd.interpolate(table, pi), abs=1e-14)


def expect(spec, table, pis):
    """(T V)(pi) at each row of ``pis``: one batched operator off the nodes."""
    return solver._transition(spec, table.grid, pis) @ table.values


def expect_at_nodes(spec, table, pis):
    """(T V) at lattice nodes, read from the grid operator's product."""
    grid = table.grid
    index = oracles.lattice_index(grid.lattice)
    ids = [index[tuple(k)] for k in np.rint(pis * grid.Q).astype(int).tolist()]
    return (solver.transition_matrix(spec, grid) @ table.values)[ids]


def backup(spec, pis, TV):
    """Value and action of the Bellman backup at each row of ``pis``, given
    (T V) there: action 0 continues, j > 0 announces type j; ties stop."""
    h_all = h_values_many(spec, pis)
    cont = spec.c * (1.0 - pis[:, 0]) + TV
    action = solver._labels(h_all, cont, 0.0)
    return np.where(action > 0, h_all.min(axis=1), cont), action


def test_apply_T_constant_function():
    spec, base = shiryaev_table(Q=30, max_iter=1, tol=1e-300)
    table = dataclasses.replace(base, values=np.full(base.grid.n_nodes, 3.25))
    rng = np.random.default_rng(4)
    pis = np.array([rng.dirichlet(np.ones(2)) for _ in range(20)])
    for value in expect(spec, table, pis):
        assert value == pytest.approx(3.25, abs=1e-12)


def test_apply_T_zero_at_type_corners():
    spec = instances.FIGURES["merged"]
    grid = cd.build_grid(2, 40)
    h_at_nodes = h_values_many(spec, grid.nodes).min(axis=1)
    base = cd.value_iterate(spec, grid, max_iter=1, tol=1e-300)
    table = dataclasses.replace(base, values=h_at_nodes)
    corners = np.eye(3)[1:]
    for value in expect_at_nodes(spec, table, corners):
        assert value == pytest.approx(0.0, abs=1e-14)


def test_apply_T_preserves_concavity_up_to_grid_error(solve200):
    spec, table = solve200("merged")
    eps = 5 * spec.c / table.grid.Q
    rng = np.random.default_rng(31)
    draws = [(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3)), rng.uniform())
             for _ in range(200)]
    pa, pb, lam = (np.array(x) for x in zip(*draws))
    mix = lam[:, None] * pa + (1 - lam[:, None]) * pb
    Ta, Tb, Tmix = np.split(expect(spec, table, np.vstack([pa, pb, mix])), 3)
    assert (lam * Ta + (1 - lam) * Tb <= Tmix + eps).all()


def test_apply_M_continue_at_no_change_corner(solve200):
    spec, table = solve200("merged")
    corner = np.array([[1.0, 0.0, 0.0]])
    [value], [action] = backup(spec, corner, expect_at_nodes(spec, table, corner))
    assert action == 0
    assert 0.0 <= value < 10.0


def test_apply_M_stops_at_type_corners(solve200):
    spec, table = solve200("merged")
    corners = np.eye(3)[1:]
    values, actions = backup(spec, corners, expect_at_nodes(spec, table, corners))
    for j, value, action in zip((1, 2), values, actions):
        assert value == 0.0
        assert action == j


def test_apply_M_stops_on_cheap_stopping_cost(solve200):
    """Whenever h_j <= min(h, c(1 - pi_0)) stopping with decision j is
    optimal, so the one-step operator must pick Stop(j)."""
    spec, table = solve200("merged")
    lam = 1 / 12  # just inside the 1/11 threshold for a_0j = 10, c = 1
    pis = np.zeros((2, 3))
    pis[:, 0] = lam
    pis[[0, 1], [1, 2]] = 1 - lam
    values, actions = backup(spec, pis, expect(spec, table, pis))
    for j, pi, value, action in zip((1, 2), pis, values, actions):
        h_vals, h, _ = cd.h_costs(spec, pi)
        assert h_vals[j - 1] <= min(h, spec.c * (1 - pi[0]))
        assert action == j
        assert value == pytest.approx(h_vals[j - 1], abs=1e-12)


def test_apply_M_bounded_by_h(solve200):
    spec, table = solve200("merged")
    rng = np.random.default_rng(13)
    pis = np.array([rng.dirichlet(np.ones(3)) for _ in range(100)])
    values, _ = backup(spec, pis, expect(spec, table, pis))
    for pi, value in zip(pis, values):
        _, h, _ = cd.h_costs(spec, pi)
        assert 0.0 <= value <= h + 1e-12


def test_value_iterate_degenerate_costs():
    spec = cd.ProblemSpec(
        alphabet_size=2, num_types=1, p0=0.02, p=0.05,
        nu=np.array([1.0]), f=np.array([[0.75, 0.25], [0.25, 0.75]]),
        c=1.0, a=np.array([[0.0], [0.0]]),
    )
    table = cd.value_iterate(spec, cd.build_grid(1, 50))
    assert np.array_equal(table.values, np.zeros(51))
    assert table.converged
    assert table.iterations == 1


def test_value_iterate_error_bound_formula():
    spec, table = shiryaev_table(Q=50, tol=1e-300, max_iter=7)
    assert solver.stopping_cost_sup(spec) == 1.0
    assert table.error_bound == pytest.approx(21 / 7, rel=1e-12)
    # with sup-h = 1, c = 1, p = 0.05 the bound is 21/N, so 2100 sweeps
    # guarantee a truncation error of 0.01
    norm_h = solver.stopping_cost_sup(spec)
    assert (norm_h**2 / spec.c + norm_h / spec.p) / 2100 == pytest.approx(0.01, rel=1e-12)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_value_iterate_rejects_non_finite_tol(tol):
    spec = instances.shiryaev_binary()
    with pytest.raises(ValueError, match=f"tol={tol} must be finite"):
        cd.value_iterate(spec, cd.build_grid(1, 10), tol=tol, max_iter=5)


def test_value_iterate_bound_criterion_is_reachable():
    spec = instances.shiryaev_binary()
    table = cd.value_iterate(spec, cd.build_grid(1, 20), tol=0.5)
    # (1 + 20)/N < 0.5 needs N = 43; the sup change plateaus above zero
    # much later than that only for far tighter tolerances, so either
    # criterion is legitimate here; the bound must hold regardless.
    assert table.criterion in ("delta", "bound")
    assert table.error_bound == pytest.approx(21 / table.iterations, rel=1e-12)


def test_value_iterate_sweep_cap_flagged():
    spec, table = shiryaev_table(Q=30, tol=1e-300, max_iter=7)
    assert table.iterations == 7
    assert table.criterion == "max_iter"
    assert not table.converged


def test_single_sweep_matches_one_step_operator():
    """One sweep from V = h is the backup at every node, with the operator
    built for that node alone, bit for bit."""
    for spec, grid in [
        (instances.shiryaev_binary(), cd.build_grid(1, 60)),
        (instances.FIGURES["merged"], cd.build_grid(2, 40)),
    ]:
        table1 = cd.value_iterate(spec, grid, tol=1e-300, max_iter=1)
        h_at_nodes = h_values_many(spec, grid.nodes).min(axis=1)
        h_table = dataclasses.replace(table1, values=h_at_nodes)
        for node_id in range(grid.n_nodes):
            pi = grid.nodes[node_id : node_id + 1]
            [want], _ = backup(spec, pi, expect(spec, h_table, pi))
            assert table1.values[node_id] == want


ONE_TO_THREE_TYPES = [
    (instances.shiryaev_binary, 1, 40),
    (lambda: instances.FIGURES["merged"], 2, 20),
    (instances.three_type, 3, 8),
]


@pytest.mark.parametrize("make_spec,M,Q", ONE_TO_THREE_TYPES, ids=["M1", "M2", "M3"])
def test_apply_T_at_nodes_is_the_grid_operator(make_spec, M, Q):
    spec = make_spec()
    grid = cd.build_grid(M, Q)
    table = cd.value_iterate(spec, grid, tol=1e-300, max_iter=5)
    swept = solver.transition_matrix(spec, grid) @ table.values
    for node_id in range(grid.n_nodes):
        [value] = expect(spec, table, grid.nodes[node_id : node_id + 1])
        assert value == swept[node_id]


@pytest.mark.parametrize("make_spec,M,Q", ONE_TO_THREE_TYPES, ids=["M1", "M2", "M3"])
def test_apply_T_of_affine_values(make_spec, M, Q):
    """Interpolation reproduces an affine V = w . pi, and the symbol
    probabilities of each next-state hypothesis sum to one, so (T V)(pi) is
    w applied to one step of the change chain, pi P."""
    rng = np.random.default_rng(M)
    spec = dataclasses.replace(make_spec(), nu=rng.dirichlet(np.ones(M)))
    grid = cd.build_grid(M, Q)
    w = rng.uniform(-2.0, 3.0, size=M + 1)
    base = cd.value_iterate(spec, grid, tol=1e-300, max_iter=1)
    table = dataclasses.replace(base, values=grid.nodes @ w)
    pis = rng.dirichlet(np.ones(M + 1), size=50)
    for pi, value in zip(pis, expect(spec, table, pis)):
        stepped = np.empty(M + 1)
        stepped[0] = pi[0] * (1.0 - spec.p)
        stepped[1:] = pi[1:] + pi[0] * spec.p * spec.nu
        assert value == pytest.approx(w @ stepped, abs=1e-12)


def test_values_monotone_in_sweep_count():
    spec = instances.shiryaev_binary()
    grid = cd.build_grid(1, 100)
    h_at_nodes = h_values_many(spec, grid.nodes).min(axis=1)
    prev = h_at_nodes
    for n in range(1, 9):
        table = cd.value_iterate(spec, grid, tol=1e-300, max_iter=n)
        assert (table.values <= prev + 1e-15).all()
        assert (table.values >= 0).all()
        prev = table.values
    assert (prev <= h_at_nodes).all()


def test_value_iterate_approximately_concave(solve200):
    spec, table = solve200("split")
    grid = table.grid
    eps = 5 * spec.c / grid.Q
    index = oracles.lattice_index(grid.lattice)
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 1000:
        a = grid.lattice[rng.integers(grid.n_nodes)]
        b = grid.lattice[rng.integers(grid.n_nodes)]
        if ((a + b) % 2).any():
            continue
        mid = (a + b) // 2
        va = table.values[index[tuple(a.tolist())]]
        vb = table.values[index[tuple(b.tolist())]]
        vm = table.values[index[tuple(mid.tolist())]]
        assert vm >= (va + vb) / 2 - eps
        checked += 1


def test_labels_mark_type_corners(solve200):
    spec, table = solve200("merged")
    grid = table.grid
    index = oracles.lattice_index(grid.lattice)
    assert table.labels[index[(0, grid.Q, 0)]] == 1
    assert table.labels[index[(0, 0, grid.Q)]] == 2
    assert table.labels[index[(grid.Q, 0, 0)]] == 0


def test_table_round_trip(tmp_path, solve200):
    spec, table = solve200("merged")
    path = str(tmp_path / "table.cdvt")
    cd.save_table(table, spec, path)
    loaded, spec_back = cd.load_table(path)
    assert np.array_equal(loaded.values, table.values)
    assert np.array_equal(loaded.labels, table.labels)
    assert loaded.grid.Q == table.grid.Q and loaded.grid.M == table.grid.M
    assert loaded.iterations == table.iterations
    assert loaded.criterion == table.criterion
    assert loaded.sup_change == table.sup_change
    assert loaded.stop_tol == table.stop_tol
    assert spec_back is not None
    assert np.array_equal(spec_back.f, spec.f)
    assert np.array_equal(spec_back.a, spec.a)
    assert (tmp_path / "table.cdvt.json").exists()


@pytest.fixture()
def saved_table(tmp_path):
    spec = instances.FIGURES["merged"]
    path = str(tmp_path / "table.cdvt")
    cd.save_table(cd.value_iterate(spec, cd.build_grid(2, 6)), spec, path)
    return path


def test_load_table_rejects_trailing_bytes(saved_table):
    with open(saved_table, "ab") as fh:
        fh.write(b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        cd.load_table(saved_table)


def _edit_sidecar(path, **fields):
    with open(path + ".json") as fh:
        doc = json.load(fh)
    doc.update(fields)
    with open(path + ".json", "w") as fh:
        json.dump(doc, fh)


@pytest.mark.parametrize("key,wrong", [("Q", 7)])
def test_load_table_rejects_sidecar_header_mismatch(saved_table, key, wrong):
    """The sidecar is the table's header: a Q of another grid asks for more
    node data than the file holds."""
    _edit_sidecar(saved_table, **{key: wrong})
    with pytest.raises(ValueError, match="^.*table.cdvt: truncated node data$"):
        cd.load_table(saved_table)


def test_load_table_names_the_sidecar_of_a_grid_over_the_cap(saved_table):
    _edit_sidecar(saved_table, Q=5000)
    with pytest.raises(cd.GridSizeError) as info:
        cd.load_table(saved_table)
    assert str(info.value) == (
        f"{saved_table}.json: grid M=2, Q=5000 has 12507501 nodes, over the cap 3000000"
    )


def test_load_table_rejects_model_of_another_shape(saved_table):
    _edit_sidecar(saved_table, model=spec_to_dict(instances.shiryaev_binary()))
    with pytest.raises(ValueError, match="^.*table.cdvt: trailing bytes after the node data$"):
        cd.load_table(saved_table)


def test_table_file_holds_the_node_data_only(saved_table):
    """n float64 values, then n label bytes, and nothing else."""
    table, _ = cd.load_table(saved_table)
    n = table.grid.n_nodes
    raw = pathlib.Path(saved_table).read_bytes()
    assert len(raw) == 9 * n
    assert raw == table.values.astype("<f8").tobytes() + table.labels.astype(np.uint8).tobytes()


def test_load_table_without_its_sidecar_is_refused(saved_table):
    os.remove(saved_table + ".json")
    with pytest.raises(ValueError, match="^.*table.cdvt: sidecar with the model is missing$"):
        cd.load_table(saved_table)


def test_load_table_refuses_a_version_1_pair(saved_table):
    """Version 1 kept the record in a 65-byte binary header before the node
    data, and its sidecar had no crc32."""
    table, spec = cd.load_table(saved_table)
    header = struct.pack(
        "<4sIIIIId8sdddB", b"CDVT", 1, 2, 6, spec.alphabet_size, table.iterations,
        table.tol, table.criterion.encode(), table.sup_change, table.error_bound,
        table.stop_tol, table.converged,
    )
    path = pathlib.Path(saved_table)
    path.write_bytes(header + path.read_bytes())
    doc = json.loads(pathlib.Path(saved_table + ".json").read_text())
    del doc["crc32"]
    doc.update(version=1, M=2, alphabet_size=spec.alphabet_size, n_nodes=table.grid.n_nodes)
    pathlib.Path(saved_table + ".json").write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        cd.load_table(saved_table)
    assert str(info.value) == (
        f"malformed {saved_table}.json: table sidecar: unsupported version 1"
    )


def test_load_table_refuses_the_node_data_of_another_table(tmp_path):
    """Two tables on one grid: each sidecar's crc32 tells its own node data
    from the other's."""
    spec = instances.FIGURES["merged"]
    grid = cd.build_grid(2, 6)
    one, two = tmp_path / "1.cdvt", tmp_path / "2.cdvt"
    for k, path in enumerate((one, two), 1):
        cd.save_table(cd.value_iterate(spec, grid, max_iter=k), spec, str(path))
    assert len(one.read_bytes()) == len(two.read_bytes())
    assert one.read_bytes() != two.read_bytes()
    one.write_bytes(two.read_bytes())
    with pytest.raises(ValueError) as info:
        cd.load_table(str(one))
    assert str(info.value) == f"{one}: node data do not match the crc32 of {one}.json"


def test_stopping_cost_sup_interior_peak():
    spec = cd.ProblemSpec(
        alphabet_size=4, num_types=2, p0=0.02, p=0.05,
        nu=np.array([0.5, 0.5]), f=instances.TWO_TYPE_F,
        c=1.0, a=np.array([[0.0, 10.0], [0.0, 5.0], [5.0, 0.0]]),
    )
    # min(5 pi_2, 10 pi_0 + 5 pi_1) vanishes at every corner but peaks at
    # (1/3, 0, 2/3) where the two planes cross
    assert solver.stopping_cost_sup(spec) == pytest.approx(10 / 3, abs=1e-9)


def random_costs(rng, M: int) -> np.ndarray:
    """A cost matrix of the shape and zero diagonal that validation asks for."""
    a = rng.uniform(0.0, 10.0, size=(M + 1, M))
    a[np.arange(1, M + 1), np.arange(M)] = 0.0
    return a


def spec_with_costs(a: np.ndarray) -> cd.ProblemSpec:
    M = a.shape[1]
    return cd.ProblemSpec(
        alphabet_size=2, num_types=M, p0=0.02, p=0.05, nu=np.full(M, 1.0 / M),
        f=np.full((M + 1, 2), 0.5), c=1.0, a=a,
    )


NAMED_SPECS = {
    **instances.FIGURES,
    "three_type": instances.three_type(),
    "shiryaev_binary": instances.shiryaev_binary(),
    "hypothesis_testing": instances.hypothesis_testing_two_type(),
}


@pytest.mark.parametrize("name", NAMED_SPECS)
def test_stopping_cost_sup_equals_the_lp_on_every_instance(name):
    spec = NAMED_SPECS[name]
    assert solver.stopping_cost_sup(spec) == oracles.stopping_cost_sup_lp(spec.a)


@pytest.mark.parametrize("M", range(1, 9))
def test_stopping_cost_sup_matches_the_lp_on_random_costs(M):
    """Within 4 ulps of the largest cost, the scale of the LP's own rounding:
    ``linprog`` can sit more than 4 ulps of the (smaller) value away from the
    exact game value."""
    rng = np.random.default_rng(1300 + M)
    for _ in range(10 if M < 8 else 3):
        a = random_costs(rng, M)
        got = solver.stopping_cost_sup(spec_with_costs(a))
        assert abs(got - oracles.stopping_cost_sup_lp(a)) <= 4 * np.spacing(a.max())


def test_stopping_cost_sup_above_the_enumeration_cap_is_an_upper_bound():
    rng = np.random.default_rng(1309)
    for _ in range(3):
        a = random_costs(rng, 9)
        got = solver.stopping_cost_sup(spec_with_costs(a))
        assert got == a.max(axis=0).min()
        assert got >= oracles.stopping_cost_sup_lp(a)


def test_value_iterate_above_the_enumeration_cap_uses_the_upper_bound():
    """At M = 9 the truncation bound is built on min_j max_i a[i, j]."""
    M = 9
    a = random_costs(np.random.default_rng(1309), M)
    f = np.full((M + 1, M + 1), 0.5 / M)
    np.fill_diagonal(f, 0.5)
    spec = dataclasses.replace(spec_with_costs(a), alphabet_size=M + 1, f=f)
    table = cd.value_iterate(spec, cd.build_grid(M, 3))
    assert table.converged and table.criterion == "delta"
    sup_h = a.max(axis=0).min()
    assert solver.stopping_cost_sup(spec) == sup_h
    assert sup_h > oracles.stopping_cost_sup_lp(a)
    bound_const = sup_h * sup_h / spec.c + sup_h / spec.p
    assert table.error_bound == bound_const / table.iterations


def zero_density_spec() -> cd.ProblemSpec:
    """Two types whose densities each rule out half the alphabet, so that at
    the type corners two symbols have zero predictive probability."""
    return dataclasses.replace(
        instances.FIGURES["merged"],
        f=np.array([[0.25] * 4, [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]]),
    )


def wide_spec() -> cd.ProblemSpec:
    """Two types over ten symbols: 30 entries per row, many of them in one
    column, where scipy's in-row sort (stable up to 16 entries) had no
    defined order."""
    ramp = np.arange(1.0, 11.0) / 55.0
    return dataclasses.replace(
        instances.FIGURES["merged"],
        alphabet_size=10,
        f=np.array([np.full(10, 0.1), ramp, ramp[::-1]]),
    )


# sha256 of T's indptr, indices and data: a change to T's entries, their
# order within a row or their dtypes shows here
TRANSITION_DIGESTS = {
    "merged-Q40": (
        lambda: instances.FIGURES["merged"], 40,
        "6d6059c0e3586159b15b7b67f3cdd03e22b596399d8be2b480fac128f7e82727",
        "fdfeb54a6d48c1e00465337a7df2392fbb9303e9df44f91fb82efcaa5c041bba",
        "fc1fd9ef4ec1c5503e83acd3091816717f1608c133639db0c49ddecbcab1e2da",
    ),
    "three-type-Q12": (
        instances.three_type, 12,
        "f2922793cc6599820aced318b7de70a060a4a50a92ec5922c70b1f10c68eb272",
        "015981725310d9dc90316f64847bdf1b27b1a062e3aa834e08aec84690f5669c",
        "92c84ad58aac8bcb84b2462e3fff3c2a75696d4abab0f6a00dcac98437cdf029",
    ),
    "zero-density-Q30": (
        zero_density_spec, 30,
        "f85ba583f4279930006b29b87aff2cce4c306ba2a53fad68d3c43707440118dc",
        "c207415da3d6d9b0cc07b7ca130ff6b01313d2d4b88fce3ab2f9642c0c887785",
        "97302117387a990374af370e4b61247afaef9e2f6a91571e079d313e5931716f",
    ),
    "wide-Q12": (
        wide_spec, 12,
        "eec0a98572f960de5880324f9104414998433e44a1321aef16c81765ebb957ee",
        "eb4a32e01561c1a6e17741a2754228c2fa8a1eb3ac174853e2204a23aea32eb8",
        "9fbb57335bca0b5ea5e76a8fdcfe0412bd929c2635f708c3f9baa994adb1c614",
    ),
    # eight coordinates: each predictive sum of _row_entries adds its row
    # from left to right, where np.add.reduce would add it pairwise
    "sa-three-component-Q3": (
        instances.sa_three_component, 3,
        "ca8cf99e58f69f78c347a6d23ef26cc5a5677cdfe8982bff230de7ca4e0d46cc",
        "21db5019fa140878874b221bd648c2c1f941f0e84e9dfee76507df44def0ad63",
        "b9855dca4494084e5dff3403dbf92e9b4ea685444f6dc52d0ed70034917fd66d",
    ),
    # 20,301 rows: more than one block of _transition
    "merged-Q200": (
        lambda: instances.FIGURES["merged"], 200,
        "88bccab653df72e5700b03bf239fbaa300207ba2ef46c08bffce351c8fe1eecc",
        "757fa98cba58c04dd952733eeeae3e5d022b3e420549f8c051fc5d067f65a4e3",
        "05bcbc7939863303d6810834ed5c6d9e76723117bcaf6e1695ff4773e51c9eb4",
    ),
}


@pytest.mark.parametrize("case", TRANSITION_DIGESTS)
def test_transition_matrix_bytes_are_pinned(case):
    make_spec, Q, *digests = TRANSITION_DIGESTS[case]
    spec = make_spec()
    T = solver.transition_matrix(spec, cd.build_grid(spec.num_types, Q))
    parts = (T.indptr, T.indices, T.data)
    assert [part.dtype for part in parts] == [np.int32, np.int32, np.float64]
    assert [hashlib.sha256(part.tobytes()).hexdigest() for part in parts] == digests


def test_transition_matrix_peak_memory_is_a_small_multiple_of_its_size():
    spec = instances.FIGURES["merged"]
    grid = cd.build_grid(2, 200)
    solver.transition_matrix(spec, grid)  # first-call costs stay outside the trace
    tracemalloc.start()
    try:
        T = solver.transition_matrix(spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * (T.indptr.nbytes + T.indices.nbytes + T.data.nbytes)


@pytest.mark.parametrize(
    "make_spec,Q", [(wide_spec, 12), (zero_density_spec, 15), (instances.three_type, 6)],
    ids=["wide", "zero-density", "three-type"],
)
def test_transition_rows_sum_entries_in_symbol_and_corner_order(make_spec, Q):
    """Each row, built entry by entry: for every symbol of positive
    predictive probability, its stencil corners in order, an entry added
    to the running sum of its column; columns then ascending."""
    spec = make_spec()
    grid = cd.build_grid(spec.num_types, Q)
    T = solver.transition_matrix(spec, grid)
    widest = np.diff(T.indptr).max()
    indptr, indices, data = [0], [], []
    for node in grid.nodes:
        row = {}
        for x in range(spec.alphabet_size):
            num = posterior._step_weights(spec, node[None, :])[0] * spec.f[:, x]
            total = num.sum()
            if not total > 0.0:
                continue
            ids, weights = solver._stencil(grid, (num / total)[None, :])
            for col, weight in zip(ids[0].tolist(), weights[0].tolist()):
                row[col] = row[col] + total * weight if col in row else total * weight
        indices += sorted(row)
        data += [row[col] for col in sorted(row)]
        indptr.append(len(indices))
    assert T.indptr.tolist() == indptr
    assert T.indices.tolist() == indices
    assert T.data.tobytes() == np.array(data).tobytes()
    if make_spec is wide_spec:
        assert widest > 16


@pytest.mark.parametrize("make_spec", [wide_spec, lambda: instances.FIGURES["merged"]],
                         ids=["wide", "merged"])
def test_product_sums_each_row_from_left_to_right(make_spec):
    """T @ v adds each row's CSR entries in order, from 0.0, as a CSR
    product does; the points span two blocks, the last of one row."""
    spec = make_spec()
    grid = cd.build_grid(spec.num_types, 12)
    rows = solver._TRANSITION_ROWS + 1
    T = solver._transition(spec, grid, grid.nodes[np.arange(rows) % grid.n_nodes])
    v = np.random.default_rng(5).random(grid.n_nodes)
    indptr, indices, data = T.indptr.tolist(), T.indices.tolist(), T.data.tolist()
    expect = []
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        acc = 0.0
        for col, weight in zip(indices[lo:hi], data[lo:hi]):
            acc += weight * v[col]
        expect.append(acc)
    assert (T @ v).tobytes() == np.array(expect).tobytes()


def test_value_iterate_peak_memory_is_the_operator_and_a_few_node_vectors():
    spec = instances.FIGURES["merged"]
    grid = cd.build_grid(2, 200)
    nbytes = solver.transition_matrix(spec, grid).nbytes
    tracemalloc.start()
    try:
        cd.value_iterate(spec, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= nbytes + 16 * 8 * grid.n_nodes


def test_seven_type_grid_and_solve_peak_memory_is_a_small_multiple_of_the_operator():
    """The node cap bounds what a grid allocates: building the M=7 lattice
    and solving on it stays within a few times T."""
    spec = instances.sa_three_component()
    nbytes = solver.transition_matrix(spec, cd.build_grid(7, 10)).nbytes
    tracemalloc.start()
    try:
        cd.value_iterate(spec, cd.build_grid(7, 10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * nbytes


def test_transition_operator_refuses_a_vector_of_another_length():
    spec = instances.FIGURES["merged"]
    T = solver.transition_matrix(spec, cd.build_grid(2, 10))
    with pytest.raises(ValueError, match="shape"):
        T @ np.ones(T.shape[1] - 1)
