"""End-to-end acceptance checks.

Each test here exercises one externally checkable guarantee of the library,
from exact posterior mass identities up to Monte Carlo optimality of the
solved strategies, at the tolerances the guarantee supports.  They lean on
independent oracles (exhaustive path enumeration, closed-form laws) rather
than on the code under test wherever an independent route exists.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import changediag as cd
from changediag import boundary as B
from changediag import posterior as P
from changediag import solver

import fixed
import instances
import oracles
from replay import replay


def random_problem(rng: np.random.Generator) -> cd.ProblemSpec:
    M = int(rng.integers(1, 4))
    alphabet = int(rng.integers(2, 9))
    f = rng.dirichlet(np.full(alphabet, 0.8), size=M + 1)
    a = rng.uniform(0.1, 10.0, size=(M + 1, M))
    a[0, :] = rng.uniform(0.5, 20.0, size=M)
    for j in range(M):
        a[j + 1, j] = 0.0
    return cd.ProblemSpec(
        p0=float(rng.uniform(0.0, 0.9)),
        p=float(rng.uniform(0.01, 0.99)),
        nu=rng.dirichlet(np.ones(M)),
        f=f,
        c=float(rng.uniform(0.1, 5.0)),
        a=a,
    )


def test_posterior_mass_identities_hold_to_1e12():
    """Summing the unnormalised update over the alphabet must return the
    one-step prior mass of each hypothesis, for a thousand random models."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for _ in range(1000):
        spec = random_problem(rng)
        pi = rng.dirichlet(np.ones(spec.num_types + 1))
        sums = np.zeros(spec.num_types + 1)
        for x in range(spec.alphabet_size):
            sums += cd.d_vector(spec, pi, x)[:-1]
        assert abs(sums[0] - (1.0 - spec.p) * pi[0]) <= 1e-12
        expected_tail = pi[1:] + pi[0] * spec.p * spec.nu
        assert np.abs(sums[1:] - expected_tail).max() <= 1e-12
    assert time.perf_counter() - t0 < 10.0


def test_prechange_mass_pushforward_matches_closed_form():
    """The expected no-change posterior mass after n observations, computed
    by enumerating every length-n observation path, equals the closed form
    (1 - p0) * (1 - p)^n to 1e-10 for n up to 8."""
    spec = instances.FIGURES["merged"]
    f, p, nu = spec.f, spec.p, spec.nu
    pis = np.array([cd.initial_posterior(spec)])
    prob = np.ones(1)
    for n in range(1, 9):
        runs = pis.shape[0]
        next_pis, next_prob = [], []
        for x in range(spec.alphabet_size):
            mass = (1 - p) * pis[:, 0] * f[0, x]
            mass = mass + (pis[:, 1:] + p * pis[:, [0]] * nu) @ f[1:, x]
            next_prob.append(prob * mass)
            next_pis.append(cd.update_many(spec, pis, np.full(runs, x)))
        pis = np.vstack(next_pis)
        prob = np.concatenate(next_prob)
        assert prob.size == spec.alphabet_size**n
        got = float(prob @ pis[:, 0])
        assert abs(got - 0.98 * 0.95**n) <= 1e-10


def test_solver_matches_exhaustive_horizon_oracle():
    """A brute-force expectation over all observation paths of horizon H
    must agree with the H-sweep table at the prior, within twice the grid
    interpolation allowance."""
    spec = instances.shiryaev_binary()
    grid = cd.build_grid(1, 400)
    pi0 = np.array(cd.initial_posterior(spec))
    allowance = 2 * (5 * spec.c / 400)
    t0 = time.perf_counter()
    for H in range(1, 7):
        want = oracles.horizon_value(spec, H)
        table = cd.value_iterate(spec, grid, tol=1e-300, max_iter=H)
        assert abs(cd.interpolate(table, pi0) - want) <= allowance
    assert time.perf_counter() - t0 < 10.0


def test_truncation_error_bound_is_honoured():
    """Stopping the sweeps after N steps may only raise the table, and by no
    more than (|h|^2/c + |h|/p)/N, checked nodewise on a fine 1-D grid."""
    spec = instances.shiryaev_binary()
    assert solver.stopping_cost_sup(spec) == 1.0
    grid = cd.build_grid(1, 2000)
    tol = 1e-300
    t0 = time.perf_counter()
    tables = {
        N: cd.value_iterate(spec, grid, tol=tol, max_iter=N)
        for N in (10, 100, 1000, 5000)
    }
    for N in (10, 100, 1000):
        diff = tables[N].values - tables[5000].values
        assert diff.min() >= 0.0
        assert diff.max() <= (1.0 / spec.c + 1.0 / spec.p) / N + 2 * tol
    assert time.perf_counter() - t0 < 60.0


def test_value_sweeps_are_monotone_and_bounded():
    """Every sweep lowers the table pointwise, and the table always stays
    inside [0, h], on each instance the suite exercises."""
    sa = instances.sa_two_component(cd.phi_min_index(2))
    specs = [instances.FIGURES[n] for n in ("merged", "split", "asym_split", "asym_pocket")]
    specs += [
        instances.shiryaev_binary(),
        instances.hypothesis_testing_two_type(),
        cd.derive_suspended_animation(sa, 1.0, [[10, 10], [0, 3], [3, 0]]),
    ]
    for spec in specs:
        grid = cd.build_grid(spec.num_types, 400 if spec.num_types == 1 else 120)
        h = P.h_values_many(spec, grid.nodes).min(axis=1)
        by_sweep = {0: h}
        for k in range(1, 11):
            values = cd.value_iterate(spec, grid, tol=1e-300, max_iter=k).values
            assert values.min() >= 0.0
            assert (values <= h).all()
            assert (values <= by_sweep[k - 1]).all()
            by_sweep[k] = values
        converged = cd.value_iterate(spec, grid)
        assert converged.values.min() >= 0.0
        # an instance may settle in fewer than ten sweeps, so compare
        # against the matching prefix rather than the deepest one
        reference = by_sweep[min(10, converged.iterations)]
        assert (converged.values <= reference).all()


@pytest.fixture(scope="module")
def sprt_tables():
    """The tables of the SPRT instances at Q = 50 and 100, solved to a
    sweep change under 1e-12, so they sit that close to the grid fixed
    point; keyed by (q, c) and then Q."""
    return {
        (q, c): {Q: cd.value_iterate(instances.sprt(q, c), cd.build_grid(2, Q), tol=1e-12)
                 for Q in (50, 100)}
        for q, c in instances.SPRT_CASES
    }


@pytest.mark.parametrize("q,c", instances.SPRT_CASES)
def test_grid_fixed_point_is_below_the_exact_sprt_value_on_the_face(sprt_tables, q, c):
    """The interpolant of the concave V lies below V and the operator is
    monotone (Lovejoy 1991), so the grid fixed point is at most the exact
    value at every node of the face, corners included.  The sweeps end just
    above that fixed point, so the tables are held to it to 1e-12."""
    for Q, table in sprt_tables[q, c].items():
        face = np.flatnonzero(table.grid.lattice[:, 0] == 0)
        k1, k2 = table.grid.lattice[face, 1:].T
        with np.errstate(divide="ignore"):
            exact = oracles.sprt_value(q, c, instances.SPRT_COSTS, np.log(k1) - np.log(k2))
        assert face.size == Q + 1
        assert (table.values[face] <= exact + 1e-12).all(), Q


@pytest.mark.parametrize("q,c", instances.SPRT_CASES)
def test_grid_value_at_the_prior_rises_towards_the_exact_sprt_value(sprt_tables, q, c):
    exact = oracles.sprt_value(q, c, instances.SPRT_COSTS, 0.0)
    prior = np.array([0.0, 0.5, 0.5])
    coarse, fine = (cd.interpolate(sprt_tables[q, c][Q], prior) for Q in (50, 100))
    assert coarse < fine < exact


@pytest.mark.parametrize("q,c", instances.SPRT_CASES)
def test_table_rule_on_the_face_is_an_sprt(sprt_tables, q, c):
    """Along the walk of the log-odds k log(q / (1 - q)) from the prior,
    over every k where stopping costs more than c and one step beyond, the
    table rule continues on one interval of k around 0, announces type 1
    above it and type 2 below it, and continues wherever the exact rule
    does (the table's value is at most the exact one)."""
    spec = instances.sprt(q, c)
    k = np.arange(-200, 201)
    pi_1 = 1.0 / (1.0 + (q / (1.0 - q)) ** -k)
    pis = np.stack([np.zeros_like(pi_1), pi_1, 1.0 - pi_1], axis=1)
    h = (pis @ spec.a).min(axis=1)
    lo, hi = np.flatnonzero(h > c)[[0, -1]]
    k, pis, h = k[lo - 1 : hi + 2], pis[lo - 1 : hi + 2], h[lo - 1 : hi + 2]
    exact = oracles.sprt_value(q, c, instances.SPRT_COSTS, k * np.log(q / (1.0 - q)))
    for Q, table in sprt_tables[q, c].items():
        decisions = cd.TableStrategy(table).decide_many(spec, pis, 0)
        go_on = k[decisions == 0]
        assert go_on.min() <= 0 <= go_on.max(), Q
        assert decisions[0] == 2 and decisions[-1] == 1, Q
        assert (decisions == np.where(k < go_on.min(), 2, np.where(k > go_on.max(), 1, 0))).all(), Q
        assert (decisions[exact < h - 1e-9] == 0).all(), Q


def test_region_structure(solve200, grid200):
    """Stopping sets are nonempty, own their corner, are discretely convex,
    shrink as the sweep count grows, and their component counts reproduce
    the known layout of each cost configuration."""
    layouts = {
        "merged": (1, 2),
        "split": (2, 1),
        "asym_split": (2, 1),
        "asym_pocket": (1, 2),
    }
    t0 = time.perf_counter()
    for name, (stopping, continuation) in layouts.items():
        spec, table = solve200(name)
        region = cd.extract_region(spec, table)
        report = cd.check_region_properties(region)
        for j in (1, 2):
            per = report["labels"][j]
            assert per["nonempty"], name
            assert per["contains_corner"], name
            assert per["convexity_violations"] == 0, name
            assert per["strict_violations"] == 0, name
        assert report["stopping_components"] == stopping, name
        assert report["continuation_components"] == continuation, name
        # the paper's nestedness holds at zero slack
        fine = fixed.region_at(spec, table, 0.0)
        shallow = cd.value_iterate(spec, grid200, tol=1e-300, max_iter=25)
        coarse = fixed.region_at(spec, shallow, 0.0)
        nested = cd.check_region_properties(fine, coarse)["nested"]
        assert nested["ok"] and nested["violations"] == 0, name
    assert time.perf_counter() - t0 < 600.0


@pytest.fixture(scope="module")
def merged_mc(solve200):
    spec, table = solve200("merged")
    return spec, table, cd.estimate_risk(spec, cd.TableStrategy(table), runs=100000, seed=11)


def test_solved_strategy_matches_table_and_beats_baselines(merged_mc):
    """The Monte Carlo cost of the solved strategy reproduces the table
    value at the prior and is no worse than any fixed-time or threshold
    baseline, at three standard errors."""
    spec, table, est = merged_mc
    t0 = time.perf_counter()
    v0 = cd.interpolate(table, np.array(cd.initial_posterior(spec)))
    allowance = 3 * est.std_error + 5 * spec.c / table.grid.Q + table.tol
    assert abs(est.mean - v0) <= allowance
    baselines = [
        cd.StopAfter(0),
        cd.StopAfter(1),
        cd.StopAfter(5),
        cd.StopAfter(20),
        cd.PosteriorThreshold(0.5),
        cd.PosteriorThreshold(0.8),
        cd.PosteriorThreshold(0.95),
    ]
    for i, baseline in enumerate(baselines):
        other = cd.estimate_risk(spec, baseline, runs=100000, seed=12 + i)
        sigma = float(np.hypot(est.std_error, other.std_error))
        assert est.mean <= other.mean + 3 * sigma
    assert time.perf_counter() - t0 < 300.0


def test_realized_and_posterior_risk_forms_agree(merged_mc):
    """The realized-cost and posterior-cost accountings of the same runs
    estimate the same risk: their paired difference is statistical noise."""
    _, _, est = merged_mc
    diff = est.realized - est.posterior_form
    paired_se = diff.std(ddof=1) / np.sqrt(diff.size)
    assert abs(diff.mean()) <= 3 * paired_se


def test_single_type_and_known_change_cost_reductions():
    """With one type the per-run cost is exactly a false-alarm indicator
    plus linear delay; with the change certain at the start the no-change
    mass stays at zero and the cost is delay plus the terminal charge."""
    shy = instances.shiryaev_binary()
    table = cd.value_iterate(shy, cd.build_grid(1, 400))
    est = cd.estimate_risk(shy, cd.TableStrategy(table), runs=10000, seed=21)
    want = (est.tau < est.theta).astype(float) + shy.c * np.maximum(est.tau - est.theta, 0)
    assert np.array_equal(est.realized, want)

    hyp = instances.hypothesis_testing_two_type()
    hyp_table = cd.value_iterate(hyp, cd.build_grid(2, 100))
    strategy = cd.TableStrategy(hyp_table)
    est = cd.estimate_risk(hyp, strategy, runs=10000, seed=22)
    assert np.array_equal(est.realized, hyp.c * est.tau + hyp.a[est.mu, est.d - 1])
    for k in range(100):
        record = replay(hyp, strategy, seed=22, run_index=k)
        pi = cd.initial_posterior(hyp)
        assert pi[0] == 0.0
        for x in record.observations:
            pi = cd.update(hyp, pi, x)
            assert pi[0] == 0.0


def test_suspended_animation_reduction_matches_enumerated_law():
    """The single-change model derived from independently failing
    components reproduces the enumerated joint law of (first failure time,
    announced label), and that law factorises, up to the truncated tail."""
    rng = np.random.default_rng(20260815)
    horizon = 1000
    t = np.arange(1, horizon + 1)
    for K in (2, 3):
        for make_phi in (cd.phi_min_index, cd.phi_binary, cd.phi_cardinality):
            phi = make_phi(K)
            probs = rng.uniform(0.05, 0.4, size=K)
            M = max(phi.values())
            densities = rng.uniform(0.2, 1.0, size=(M + 1, 4))
            densities /= densities.sum(axis=1, keepdims=True)
            sa = cd.SuspendedAnimationSpec(tuple(probs), phi, densities)
            a = np.full((M + 1, M), 3.0)
            a[0, :] = 10.0
            for j in range(M):
                a[j + 1, j] = 0.0
            derived = cd.derive_suspended_animation(sa, 1.0, a)
            assert derived.p0 == 0.0
            law = oracles.sa_joint_law(list(probs), phi, horizon)
            model = (1 - derived.p) ** (t[:, None] - 1) * derived.p
            model = model * np.asarray(derived.nu)[None, :]
            budget = (1 - derived.p) ** horizon + 1e-12
            assert np.abs(law - model).sum() <= budget
            marginal_t = law.sum(axis=1)
            marginal_i = law.sum(axis=0)
            product = np.outer(marginal_t, marginal_i) / law.sum()
            assert np.abs(law - product).sum() <= budget


def test_spline_boundaries_reproduce_grid_decisions(solve400, grid400):
    """Compressed boundaries classify at least 99% of the nodes they were
    not fitted on, and alarm within the same step on at least 99% of
    simulated streams; the smoothed radius profile is concave."""
    for name in ("split", "asym_split"):
        spec, table = solve400(name)
        region = cd.extract_region(spec, table)
        fits, kept = {}, np.zeros(grid400.n_nodes, dtype=bool)
        for j in (1, 2):
            beta, r = B.boundary_samples(region, j)
            mask = np.ones(beta.size, dtype=bool)
            mask[::7] = False
            fits[j] = B.SplineBoundary(j, *B.fit_spline(beta[mask], r[mask], 12)[:4])
            # a node was fitted on when its polar coordinates are a kept sample
            fitted = set(zip(beta[mask].tolist(), r[mask].tolist()))
            r_all, beta_all = B._polar(grid400.nodes, j)
            kept |= [pair in fitted for pair in zip(beta_all.tolist(), r_all.tolist())]
        held_out = np.flatnonzero(~kept)
        got = cd.fast_member_many(spec, fits, grid400.nodes[held_out])
        agree = np.count_nonzero(got == region.labels[held_out])
        assert agree / held_out.size >= 0.99, name

        est_table = cd.estimate_risk(spec, cd.TableStrategy(table), runs=1000, seed=99)
        est_spline = cd.estimate_risk(spec, cd.SplineStrategy(fits), runs=1000, seed=99)
        assert np.mean(est_table.tau == est_spline.tau) >= 0.99, name

        if name == "asym_split":
            # the larger of the two asymmetric stopping sets has a concave
            # radius profile once smoothing irons out lattice-scale scatter
            beta, r = B.boundary_samples(region, 1)
            smoothed = fixed.spline_at(beta, r, 12, 10.0)
            assert B.is_concave(smoothed)


def test_polar_embedding_round_trip():
    """Polar coordinates taken at either stopping corner invert back to the
    posterior to 1e-9 per component, and the embedded corners sit at the
    expected mutual distances."""
    rng = np.random.default_rng(7)
    pis = rng.dirichlet(np.ones(3), 1000)
    corners = rng.integers(1, 3, 1000)
    for corner in (1, 2):
        rows = corners == corner
        r, beta = B._polar(pis[rows], corner)
        for pi, rk, bk in zip(pis[rows], r, beta):
            back = oracles.polar_inverse(rk, bk, corner)
            assert np.abs(back - pi).max() <= 1e-9
    corners2 = [cd.embed(np.eye(3)[i]) for i in range(3)]
    for i in range(3):
        for k in range(i + 1, 3):
            dist = np.linalg.norm(corners2[i] - corners2[k])
            assert abs(dist - 2 / np.sqrt(3)) <= 1e-12
    corners3 = [cd.embed(np.eye(4)[i]) for i in range(4)]
    dists = [
        np.linalg.norm(corners3[i] - corners3[k])
        for i in range(4)
        for k in range(i + 1, 4)
    ]
    assert max(dists) - min(dists) <= 1e-12
