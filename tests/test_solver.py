import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

import changediag as cd
from changediag import solver
from changediag.model import spec_to_dict
from changediag.posterior import h_values_many

import instances


def shiryaev_table(Q=100, **kw):
    spec = instances.shiryaev_binary()
    return spec, cd.value_iterate(spec, cd.build_grid(1, Q), **kw)


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
    # lookup inverts the enumeration and marks every other cell unused
    ids = grid.lookup[tuple(grid.lattice[:, j] for j in range(1, M + 1))]
    assert np.array_equal(ids, np.arange(grid.n_nodes))
    assert np.count_nonzero(grid.lookup >= 0) == grid.n_nodes


def test_grid_size_cap():
    with pytest.raises(cd.GridSizeError):
        cd.build_grid(2, 4, max_nodes=10)
    with pytest.raises(cd.GridSizeError):
        cd.build_grid(3, 2000)


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
    a = grid.lookup[4, 3]
    b = grid.lookup[5, 2]
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


def test_apply_T_constant_function():
    spec, base = shiryaev_table(Q=30, max_iter=1, tol=1e-300)
    table = dataclasses.replace(base, values=np.full(base.grid.n_nodes, 3.25))
    rng = np.random.default_rng(4)
    for _ in range(20):
        pi = rng.dirichlet(np.ones(2))
        assert cd.apply_T(spec, table, pi) == pytest.approx(3.25, abs=1e-12)


def test_apply_T_zero_at_type_corners():
    spec = instances.FIGURES["merged"]
    grid = cd.build_grid(2, 40)
    h_at_nodes = h_values_many(spec, grid.nodes).min(axis=1)
    base = cd.value_iterate(spec, grid, max_iter=1, tol=1e-300)
    table = dataclasses.replace(base, values=h_at_nodes)
    for j in (1, 2):
        pi = np.zeros(3)
        pi[j] = 1.0
        assert cd.apply_T(spec, table, pi) == pytest.approx(0.0, abs=1e-14)


def test_apply_T_preserves_concavity_up_to_grid_error(solve200):
    spec, table = solve200("merged")
    eps = 5 * spec.c / table.grid.Q
    rng = np.random.default_rng(31)
    for _ in range(200):
        pa = rng.dirichlet(np.ones(3))
        pb = rng.dirichlet(np.ones(3))
        lam = rng.uniform()
        lhs = lam * cd.apply_T(spec, table, pa) + (1 - lam) * cd.apply_T(spec, table, pb)
        rhs = cd.apply_T(spec, table, lam * pa + (1 - lam) * pb)
        assert lhs <= rhs + eps


def test_apply_M_continue_at_no_change_corner(solve200):
    spec, table = solve200("merged")
    value, action = cd.apply_M(spec, table, np.array([1.0, 0.0, 0.0]))
    assert action is None
    assert 0.0 <= value < 10.0


def test_apply_M_stops_at_type_corners(solve200):
    spec, table = solve200("merged")
    for j in (1, 2):
        pi = np.zeros(3)
        pi[j] = 1.0
        value, action = cd.apply_M(spec, table, pi)
        assert value == 0.0
        assert action == j


def test_apply_M_stops_on_cheap_stopping_cost(solve200):
    """Whenever h_j <= min(h, c(1 - pi_0)) stopping with decision j is
    optimal, so the one-step operator must pick Stop(j)."""
    spec, table = solve200("merged")
    lam = 1 / 12  # just inside the 1/11 threshold for a_0j = 10, c = 1
    for j in (1, 2):
        pi = np.zeros(3)
        pi[0] = lam
        pi[j] = 1 - lam
        h_vals, h, _ = cd.h_costs(spec, pi)
        assert h_vals[j - 1] <= min(h, spec.c * (1 - pi[0]))
        value, action = cd.apply_M(spec, table, pi)
        assert action == j
        assert value == pytest.approx(h_vals[j - 1], abs=1e-12)


def test_apply_M_bounded_by_h(solve200):
    spec, table = solve200("merged")
    rng = np.random.default_rng(13)
    for _ in range(100):
        pi = rng.dirichlet(np.ones(3))
        value, _ = cd.apply_M(spec, table, pi)
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
    spec = instances.shiryaev_binary()
    grid = cd.build_grid(1, 60)
    table1 = cd.value_iterate(spec, grid, tol=1e-300, max_iter=1)
    h_at_nodes = h_values_many(spec, grid.nodes).min(axis=1)
    h_table = dataclasses.replace(table1, values=h_at_nodes)
    for node_id in range(0, grid.n_nodes, 7):
        want, _ = cd.apply_M(spec, h_table, grid.nodes[node_id])
        assert table1.values[node_id] == pytest.approx(want, abs=1e-12)


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
    rng = np.random.default_rng(77)
    checked = 0
    while checked < 1000:
        a = grid.lattice[rng.integers(grid.n_nodes)]
        b = grid.lattice[rng.integers(grid.n_nodes)]
        if ((a + b) % 2).any():
            continue
        mid = (a + b) // 2
        va = table.values[grid.lookup[a[1], a[2]]]
        vb = table.values[grid.lookup[b[1], b[2]]]
        vm = table.values[grid.lookup[mid[1], mid[2]]]
        assert vm >= (va + vb) / 2 - eps
        checked += 1


def test_labels_mark_type_corners(solve200):
    spec, table = solve200("merged")
    grid = table.grid
    assert table.labels[grid.lookup[grid.Q, 0]] == 1
    assert table.labels[grid.lookup[0, grid.Q]] == 2
    assert table.labels[grid.lookup[0, 0]] == 0


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


@pytest.mark.parametrize("key,wrong", [("M", 3), ("Q", 7), ("alphabet_size", 5)])
def test_load_table_rejects_sidecar_header_mismatch(saved_table, key, wrong):
    sidecar = saved_table + ".json"
    with open(sidecar) as fh:
        doc = json.load(fh)
    doc[key] = wrong
    with open(sidecar, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match=f"{key}={wrong} disagrees"):
        cd.load_table(saved_table)


def test_load_table_rejects_model_of_another_shape(saved_table):
    sidecar = saved_table + ".json"
    with open(sidecar) as fh:
        doc = json.load(fh)
    doc["model"] = spec_to_dict(instances.shiryaev_binary())
    with open(sidecar, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(ValueError, match="M=1 disagrees"):
        cd.load_table(saved_table)


def test_stopping_cost_sup_interior_peak():
    spec = cd.ProblemSpec(
        alphabet_size=4, num_types=2, p0=0.02, p=0.05,
        nu=np.array([0.5, 0.5]), f=instances.TWO_TYPE_F,
        c=1.0, a=np.array([[0.0, 10.0], [0.0, 5.0], [5.0, 0.0]]),
    )
    # min(5 pi_2, 10 pi_0 + 5 pi_1) vanishes at every corner but peaks at
    # (1/3, 0, 2/3) where the two planes cross
    assert solver.stopping_cost_sup(spec) == pytest.approx(10 / 3, abs=1e-9)
