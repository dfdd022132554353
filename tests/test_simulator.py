import hashlib
import json
import math
import re

import numpy as np
import pytest

import changediag as cd
from changediag.simulator import (
    DEFAULT_N_MAX,
    Environment,
    PosteriorThreshold,
    SplineStrategy,
    StopAfter,
    TableStrategy,
    _PHILOX_ROWS,
    _draw_symbols,
    _philox_uniforms,
)

import instances
import oracles
from replay import replay


def test_environment_reproducible():
    spec = instances.FIGURES["merged"]
    a = Environment(spec, seed=5, run_index=0)
    b = Environment(spec, seed=5, run_index=0)
    assert (a.theta, a.mu) == (b.theta, b.mu)
    assert [a.symbol(n) for n in range(1, 50)] == [b.symbol(n) for n in range(1, 50)]
    c = Environment(spec, seed=5, run_index=1)
    assert (c.theta, c.mu, [c.symbol(n) for n in range(1, 50)]) != (
        a.theta, a.mu, [a.symbol(n) for n in range(1, 50)])


@pytest.mark.parametrize("seed,run_index,name", [
    (2**64, 0, "seed"), (-1, 0, "seed"), (0, 2**64, "run_index"), (0, -1, "run_index"),
    (1.5, 0, "seed"), (True, 0, "seed"), (0, np.float64(3.0), "run_index"),
    (0, False, "run_index"),
])
def test_environment_key_out_of_range(seed, run_index, name):
    """Keys are integers in [0, 2**64); a bool or a float is refused, not
    truncated to the stream of another key."""
    spec = instances.FIGURES["merged"]
    value = {"seed": seed, "run_index": run_index}[name]
    if isinstance(value, bool) or not isinstance(value, int):
        message = rf"^{name}={re.escape(repr(value))} must be an integer$"
    else:
        message = rf"{name}=-?\d+ must be in \[0, 2\*\*64\)"
    with pytest.raises(ValueError, match=message):
        Environment(spec, seed, run_index)


def test_immediate_change_when_p0_is_one():
    spec = instances.hypothesis_testing_two_type()
    assert all(Environment(spec, 0, i).theta == 0 for i in range(300))


def test_change_time_frequency_binomial():
    spec = instances.FIGURES["merged"]
    draws = 20_000
    # run i of the batch draws theta as Environment(spec, 77, i) does
    est = cd.estimate_risk(spec, StopAfter(0), runs=draws, seed=77)
    zeros = np.count_nonzero(est.theta == 0)
    sigma = math.sqrt(draws * 0.02 * 0.98)
    assert abs(zeros - draws * 0.02) <= 3 * sigma


def test_post_change_symbols_match_type_density():
    spec = instances.FIGURES["merged"]
    env = Environment(spec, 5, 0)  # theta=26, mu=2 under this substream
    start = max(env.theta, 1)
    n = 20_000
    counts = np.bincount([env.symbol(i) for i in range(start, start + n)], minlength=4)
    for x in range(4):
        want = spec.f[env.mu, x]
        sigma = math.sqrt(n * want * (1 - want))
        assert abs(counts[x] - n * want) <= 3 * sigma


def test_pre_change_symbols_match_baseline_density():
    spec = cd.ProblemSpec(
        alphabet_size=4, num_types=2, p0=0.0, p=1e-6,
        nu=np.array([0.5, 0.5]), f=instances.TWO_TYPE_F,
        c=1.0, a=instances.FIGURES["merged"].a,
    )
    env = Environment(spec, 11, 0)
    n = 20_000
    assert env.theta > n
    counts = np.bincount([env.symbol(i) for i in range(1, n + 1)], minlength=4)
    for x in range(4):
        want = spec.f[0, x]
        sigma = math.sqrt(n * want * (1 - want))
        assert abs(counts[x] - n * want) <= 3 * sigma


GROUND_TRUTH_SPECS = {
    "merged": instances.FIGURES["merged"],
    "p0-one": instances.hypothesis_testing_two_type(),
    "p0-zero": cd.ProblemSpec(
        alphabet_size=4, num_types=2, p0=0.0, p=0.05,
        nu=np.array([0.3, 0.7]), f=instances.TWO_TYPE_F,
        c=1.0, a=instances.FIGURES["merged"].a,
    ),
}


@pytest.mark.parametrize("name", sorted(GROUND_TRUTH_SPECS))
def test_ground_truth_matches_scalar_oracle(name):
    """theta, mu and the first 130 symbols (across two CHUNK boundaries) of
    single runs, and theta and mu of every batch row, equal the oracle's
    scalar draws from numpy's generator."""
    spec = GROUND_TRUTH_SPECS[name]
    runs = [(0, 0), (2**64 - 1, 2**64 - 1)] + [(11, k) for k in range(40)]
    for seed, k in runs:
        env = Environment(spec, seed, k)
        got = (env.theta, env.mu, [env.symbol(n) for n in range(1, 131)])
        assert got == oracles.ground_truth(spec, seed, k, 130)
    est = cd.estimate_risk(spec, StopAfter(0), runs=300, seed=11)
    want = [oracles.ground_truth(spec, 11, k, 0)[:2] for k in range(300)]
    assert list(zip(est.theta.tolist(), est.mu.tolist())) == want


def test_stop_immediately_record():
    spec = instances.FIGURES["merged"]
    est = cd.estimate_risk(spec, StopAfter(0), runs=200, seed=3)
    _, _, col = cd.h_costs(spec, cd.initial_posterior(spec))
    for k in range(200):
        assert est.tau[k] == 0
        assert est.d[k] == col + 1
        row = 0 if est.theta[k] > 0 else est.mu[k]
        assert est.realized[k] == spec.a[row, est.d[k] - 1]
        assert not est.capped[k]


def test_free_stopping_cost_stops_at_zero():
    spec = cd.ProblemSpec(
        alphabet_size=2, num_types=1, p0=0.02, p=0.05,
        nu=np.array([1.0]), f=np.array([[0.75, 0.25], [0.25, 0.75]]),
        c=1.0, a=np.array([[0.0], [0.0]]),
    )
    table = cd.value_iterate(spec, cd.build_grid(1, 50))
    est = cd.estimate_risk(spec, TableStrategy(table), runs=1, seed=1)
    assert est.tau[0] == 0
    assert est.realized[0] == 0.0


def test_solved_strategy_stops_in_reasonable_time(solve200):
    spec, table = solve200("merged")
    est = cd.estimate_risk(spec, TableStrategy(table), runs=200, seed=21)
    assert not est.capped.any()
    assert est.tau.max() < 500
    assert np.mean(est.tau) < 100


def numpy_stream(seed, run_index, start, count):
    gen = np.random.Generator(
        np.random.Philox(key=np.array([seed, run_index], dtype=np.uint64)))
    return gen.random(start + count)[start:]


def test_philox_kernel_matches_numpy_streams():
    rng = np.random.default_rng(2024)
    seeds = [0, 2**64 - 1, *rng.integers(0, 2**64, 3, dtype=np.uint64).tolist()]
    runs = [0, 1, 2**64 - 1, *rng.integers(0, 2**64, 5, dtype=np.uint64).tolist()]
    # ranges starting on and inside a 4-word block, up to four 64-windows long
    ranges = [(0, 1), (0, 66), (1, 3), (2, 64), (3, 130), (66, 64), (129, 256)]
    for seed in seeds:
        for start, count in ranges:
            got = _philox_uniforms(seed, np.array(runs, dtype=np.uint64), start, count)
            assert got.shape == (len(runs), count) and got.dtype == np.float64
            for row, r in enumerate(runs):
                assert np.array_equal(got[row], numpy_stream(seed, r, start, count))


def test_symbol_draw_counts_the_cumulative_row_it_replaced():
    """The column count equals min(#{j: cum_f[row, j] <= u}, A-1), ties
    with the cumulative values and a row whose sum rounds below 1
    included."""
    f = np.array([[0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.25, 0.25], [0.7, 0.1, 0.1, 0.1]])
    f[2] = np.nextafter(f[2], 0.0)  # the last cumulative value rounds below 1
    cum_f = np.cumsum(f, axis=1)
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 3, 5000)
    u = rng.random(5000)
    u[:12] = cum_f.ravel()  # exactly on a cumulative value
    rows[:12] = np.repeat(np.arange(3), 4)
    u[12:15], rows[12:15] = np.nextafter(1.0, 0.0), [0, 1, 2]
    want = np.minimum((cum_f[rows] <= u[:, None]).sum(axis=1), 3)
    got = _draw_symbols(cum_f, rows, u)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert got[14] == 3


def test_philox_kernel_rows_span_several_passes():
    runs = np.arange(2 * _PHILOX_ROWS + 5)
    got = _philox_uniforms(77, runs, 5, 70)
    for r in (0, _PHILOX_ROWS - 1, _PHILOX_ROWS, 2 * _PHILOX_ROWS, runs[-1]):
        assert np.array_equal(got[r], numpy_stream(77, r, 5, 70))


def assert_rows_match_single_runs(spec, strategy, est, rows, n_max=DEFAULT_N_MAX):
    """Each batch row equals the scalar replay of its run; returns the replays."""
    runs = []
    for k in rows:
        run = replay(spec, strategy, est.seed, int(k), n_max=n_max)
        assert run.theta == est.theta[k]
        assert run.mu == est.mu[k]
        assert run.tau == est.tau[k]
        assert run.d == est.d[k]
        assert run.cost == est.realized[k]
        assert run.posterior_cost == est.posterior_form[k]
        assert run.capped == est.capped[k]
        runs.append(run)
    return runs


def test_single_runs_reproduce_batch_rows(solve200):
    spec, table = solve200("merged")
    strategy = TableStrategy(table)
    est = cd.estimate_risk(spec, strategy, runs=200, seed=42)
    assert_rows_match_single_runs(spec, strategy, est, (0, 7, 123))


def test_long_runs_reproduce_batch_rows_across_windows():
    """Runs past 16, 48 and 112 symbols read their second, fourth and
    eighth uniform windows from the batch kernel; single runs read them
    from numpy."""
    spec = instances.two_type(10, 10, 3, 3, 0.05)
    strategy = TableStrategy(cd.value_iterate(spec, cd.build_grid(2, 100)))
    one = cd.estimate_risk(spec, strategy, runs=1000, seed=42, threads=1)
    two = cd.estimate_risk(spec, strategy, runs=1000, seed=42, threads=2)
    for name in ("theta", "mu", "tau", "d", "realized", "posterior_form", "capped"):
        assert np.array_equal(getattr(one, name), getattr(two, name))
    later = [np.flatnonzero((one.tau > lo) & (one.tau <= hi))
             for lo, hi in ((16, 48), (48, 112), (112, np.inf))]
    rows = {0, 999}.union(*({window[0], window[-1]} for window in later))
    # rows in both halves, so the threads=2 block with run_offset > 0 is covered
    assert min(rows) < 500 and max(later[-1]) >= 500
    assert_rows_match_single_runs(spec, strategy, one, sorted(rows))


def test_batch_prices_announcements_of_seventy_types():
    """The lockstep batch takes any number of types: on a 70-type model,
    runs that announce types past 32 and past 64 equal their scalar replays."""
    M = 70
    rng = np.random.default_rng(70)
    # the later types cost a little less to announce, so most runs pick one
    a = rng.uniform(1.0, 2.0, size=(M + 1, M)) + 0.02 * (M - np.arange(M))
    a[np.arange(1, M + 1), np.arange(M)] = 0.0
    spec = cd.ProblemSpec(
        alphabet_size=6, num_types=M, p0=0.2, p=0.3, nu=np.full(M, 1.0 / M),
        f=rng.dirichlet(0.5 * np.ones(6), size=M + 1), c=0.1, a=a,
    )
    strategy = StopAfter(3)
    est = cd.estimate_risk(spec, strategy, runs=200, seed=9)
    assert np.all(est.tau == 3)
    rows = [int(np.flatnonzero(est.d == d)[0]) for d in np.unique(est.d)]
    assert est.d[rows].min() <= 64 < est.d[rows].max()
    for k in rows:
        run = replay(spec, strategy, est.seed, k)
        assert (run.theta, run.mu, run.d, run.cost, run.capped) == (
            est.theta[k], est.mu[k], est.d[k], est.realized[k], est.capped[k]
        )
        # a posterior's 70 costs from a vector product and from a batch's
        # matrix product may round differently in the last bit
        assert run.posterior_cost == pytest.approx(est.posterior_form[k], rel=1e-14)


#: sha256 of the seven per-run arrays of estimate_risk (runs=300, seed=2024)
#: per (instance, strategy).  StopAfter(k) runs cross the edges of the
#: uniform windows: symbols 16, 48 and 112.
RISK_DIGESTS = {
    ("merged", "table"): "503c009212b0836172e451958fbd23dfeef557290837492bfbdd84ff27d5ee70",
    ("merged", "spline"): "089ee6fbff325f5bcba1af0653337742cd67c3ac67e1bdc63a7380c2675187a6",
    ("merged", "stop15"): "415c99b98a4cb3cbb5d3586ca723a77bed74e80e7e1d8049b42a972f0da77220",
    ("merged", "stop16"): "8c713de3fda36179acd62d6ed0fb9566677a80d342b66419b99c8cc3f48ea22a",
    ("merged", "stop17"): "2783f614d54bfd92edbf2aabe9b31d0d70fcc057003db7c0059c15d5bd74efa6",
    ("merged", "stop47"): "a30a7d7c31ad9620d5779b84bc501b78441b92f76f5b7de1cd2a54eda2927516",
    ("merged", "stop48"): "b63cdeed0c79b6dd75d8fb6c3f9b5fa5b37ffff623744d0bf653fafb8472e01a",
    ("merged", "stop49"): "472504f685b139a6fbfe68df8541d85b2277078284f739b2fc1ff9220d6d84b3",
    ("merged", "stop111"): "94616c53d9b476d4302e0bec99d903bbce1f9527d1f2577b5e62ccfbe52fdec0",
    ("merged", "stop112"): "b1de1ef8f62b82b122eb6ad524d23dc768dd2bb7d914bc4c9f309bf908186f08",
    ("merged", "stop113"): "d90c1557094944c073a6b662fc1a6ac8f6f976239c83f20d11f9e53125d4835a",
    ("long", "table"): "4d91cc670b545eb564b97166f6b42eb561b76d29c9a386996358d85c89e4f05e",
    ("long", "spline"): "b965aa00ba62db0f9c823e154458606915402710987fe2d6f230126f5fdc6aa9",
    ("long", "stop15"): "0e8464f48691efc8889454a5a681d2f741592f1310113939862b2015eea0ceb3",
    ("long", "stop16"): "897a7da9ade87a2121b605d8de8828a09f83717b13f63ecec6c6300cb5b16fd9",
    ("long", "stop17"): "bc4ebf0545f28f53f742c7db70a11e47a495227fcd5d5dba74dbbe6e8134bb62",
    ("long", "stop47"): "d2ac5109f74625a518fab1ab61106096b5c7aa6fe50bdf7f1613df22dc426505",
    ("long", "stop48"): "e77c4e9f9179b014b66113e1bcfc007c30de7d0223c34f03aba6053bf815c569",
    ("long", "stop49"): "deddacd4195da90b87354e67a7fa618db8b0fe4173b54e1c42a6eb4e8d27b63e",
    ("long", "stop111"): "1066579ccdccf59ff6f33847cf886d6311a35856237fa5273e1f0cab6373ca9c",
    ("long", "stop112"): "441e2dc5e19007b8138ddcf785b88e3508dab6bdb33a41a03769d9eccf629f9e",
    ("long", "stop113"): "824cfa23ce705fc9742eb61602f905cc807cb4d483bf9d4fe1b444660d8386dd",
}

#: The instances of RISK_DIGESTS: model, lattice resolution, spline segments.
RISK_INSTANCES = {
    "merged": (instances.FIGURES["merged"], 60, 6),
    "long": (instances.two_type(10, 10, 3, 3, 0.05), 100, 4),
}


@pytest.mark.parametrize("name", RISK_INSTANCES)
def test_risk_arrays_are_pinned(name):
    """Every per-run array is bit for bit the same as when it was pinned, at
    one and two threads: a change of the step's arithmetic, of the symbol
    draw or of the uniform windows shows here."""
    spec, Q, K = RISK_INSTANCES[name]
    table = cd.value_iterate(spec, cd.build_grid(2, Q))
    region = cd.extract_region(spec, table)
    fits = {j: cd.fit_boundary(region, j, K) for j in (1, 2)}
    strategies = {"table": TableStrategy(table), "spline": SplineStrategy(fits)}
    for k in (15, 16, 17, 47, 48, 49, 111, 112, 113):
        strategies[f"stop{k}"] = StopAfter(k)
    for key, strategy in strategies.items():
        for threads in (1, 2):
            est = cd.estimate_risk(spec, strategy, runs=300, seed=2024, threads=threads)
            digest = hashlib.sha256()
            for field in ("theta", "mu", "tau", "d", "realized", "posterior_form", "capped"):
                digest.update(getattr(est, field).tobytes())
            assert digest.hexdigest() == RISK_DIGESTS[name, key], (key, threads)


@pytest.mark.parametrize("name", ["merged", "asym_split"])
def test_table_decide_is_the_stopping_rule_on_single_posteriors(solve200, name):
    """The one-row ``decide`` agrees with h(pi) - V(pi) <= stop_tol written
    out with the scalar cost and interpolation, on nodes and random points."""
    spec, table = solve200(name)
    strategy = TableStrategy(table)
    pts = np.vstack([np.random.default_rng(3).dirichlet(np.ones(3), 2000),
                     table.grid.nodes[::7]])
    for pi in pts:
        _, h, col = cd.h_costs(spec, pi)
        want = col + 1 if h - cd.interpolate(table, pi) <= table.stop_tol else None
        assert strategy.decide(spec, pi, 0) == want


def test_table_decide_equals_decide_many_row_by_row(solve200):
    """The one-row ``decide`` is row k of ``decide_many``, on random points
    and on nodes."""
    spec, table = solve200("merged")
    strategy = TableStrategy(table)
    pts = np.vstack([np.random.default_rng(4).dirichlet(np.ones(3), 1000),
                     table.grid.nodes[::11]])
    batch = strategy.decide_many(spec, pts, 0)
    assert [strategy.decide(spec, pi, 0) or 0 for pi in pts] == batch.tolist()


def test_every_strategy_decides_an_empty_batch(solve200):
    spec, table = solve200("merged")
    region = cd.extract_region(spec, table)
    boundaries = {j: cd.fit_boundary(region, j, K=12) for j in (1, 2)}
    strategies = [TableStrategy(table), SplineStrategy(boundaries), StopAfter(0),
                  PosteriorThreshold(0.5)]
    for strategy in strategies:
        out = strategy.decide_many(spec, np.empty((0, 3)), 0)
        assert out.shape == (0,) and out.dtype == np.int8, type(strategy).__name__


def test_spline_strategy_needs_the_curves_of_types_1_and_2():
    """A missing curve used to end a Monte Carlo run in a KeyError."""
    curves = {j: cd.SplineBoundary(j, np.linspace(0.0, np.pi / 3, 5), np.full(7, 0.3),
                                   1.0, 0.0) for j in (1, 2)}
    for boundaries, message in [
        ({1: curves[1]}, "^no curve for type 2$"),
        ({2: curves[2]}, "^no curve for type 1$"),
        ({1: curves[2], 2: curves[1]}, r"^curves keyed \[1, 2\] are not the curves"),
        ({**curves, 3: curves[1]}, r"^curves keyed \[1, 2, 3\] are not the curves"),
    ]:
        with pytest.raises(ValueError, match=message):
            SplineStrategy(boundaries)
    SplineStrategy(curves)


def test_worker_count_does_not_change_results(solve200):
    spec, table = solve200("merged")
    strategy = TableStrategy(table)
    one = cd.estimate_risk(spec, strategy, runs=400, seed=9, threads=1)
    four = cd.estimate_risk(spec, strategy, runs=400, seed=9, threads=4)
    assert np.array_equal(one.realized, four.realized)
    assert np.array_equal(one.tau, four.tau)
    assert one.mean == four.mean


def test_uniform_false_alarm_cost_is_exact():
    base = instances.FIGURES["merged"]
    spec = cd.ProblemSpec(
        alphabet_size=4, num_types=2, p0=0.0, p=0.05,
        nu=base.nu, f=base.f, c=1.0,
        a=np.array([[7.0, 7.0], [0.0, 3.0], [3.0, 0.0]]),
    )
    est = cd.estimate_risk(spec, StopAfter(0), runs=500, seed=1)
    assert est.mean == 7.0
    assert est.std_error == 0.0


def test_cap_accounting():
    spec = instances.FIGURES["merged"]
    never = StopAfter(41)  # would stop only after the cap
    est = cd.estimate_risk(spec, never, runs=50, seed=13, n_max=40)
    assert est.cap_rate == 1.0
    assert (est.tau == 40).all()
    theta, mu, tau, d = (int(x[0]) for x in (est.theta, est.mu, est.tau, est.d))
    assert est.capped[0] and tau == 40
    mu_row = 0 if tau < theta else mu
    want = spec.c * max(tau - theta, 0) + spec.a[mu_row, d - 1]
    assert est.realized[0] == want


def test_cap_forces_only_the_runs_whose_rule_continues():
    """At n_max some runs stop by their own rule and the rest are forced.
    Only the forced ones are flagged; they announce the cheapest type and
    price it as running cost + min h, as a scalar replay of each run says."""
    spec = instances.FIGURES["merged"]
    rule = PosteriorThreshold(0.6)
    est = cd.estimate_risk(spec, rule, runs=4000, seed=3, n_max=8)
    at_cap = np.flatnonzero(est.tau == 8)
    pis, running = [], []
    for k in at_cap:
        env = Environment(spec, 3, int(k))
        pi, cost = cd.initial_posterior(spec), 0.0
        for n in range(1, 9):
            cost += spec.c * (1.0 - pi[0])
            pi = cd.update(spec, pi, env.symbol(n))
        pis.append(pi)
        running.append(cost)
    pis, running = np.array(pis), np.array(running)
    forced = 1.0 - pis[:, 0] < 0.6
    assert forced.sum() == 3870 and (~forced).sum() == 88
    assert np.array_equal(est.capped, np.isin(np.arange(est.runs), at_cap[forced]))
    h = pis[forced] @ spec.a
    assert np.array_equal(est.d[at_cap[forced]], h.argmin(axis=1) + 1)
    want = running[forced] + h.min(axis=1)
    assert np.array_equal(est.posterior_form[at_cap[forced]], want)
    early = np.flatnonzero(est.tau < 8)
    rows = [*at_cap[forced][:3], *at_cap[~forced][:3], *early[:2]]
    assert_rows_match_single_runs(spec, rule, est, rows, n_max=8)


def test_detection_cost_decomposition_per_run():
    spec = instances.shiryaev_binary()
    table = cd.value_iterate(spec, cd.build_grid(1, 200))
    est = cd.estimate_risk(spec, TableStrategy(table), runs=500, seed=8)
    false_alarm = est.tau < est.theta
    want = false_alarm.astype(float) + spec.c * np.maximum(est.tau - est.theta, 0)
    assert np.array_equal(est.realized, want)


def test_hypothesis_testing_cost_reduces_to_delay_plus_error():
    spec = instances.hypothesis_testing_two_type()
    table = cd.value_iterate(spec, cd.build_grid(2, 100))
    strategy = TableStrategy(table)
    est = cd.estimate_risk(spec, strategy, runs=100, seed=4)
    runs = assert_rows_match_single_runs(spec, strategy, est, range(100))
    for k, run in enumerate(runs):
        assert est.theta[k] == 0
        assert est.realized[k] == spec.c * est.tau[k] + spec.a[est.mu[k], est.d[k] - 1]
        pi = cd.initial_posterior(spec)
        assert pi[0] == 0.0
        for x in run.observations:
            pi = cd.update(spec, pi, x)
            assert pi[0] == 0.0


def test_posterior_cost_form_agrees_on_average(solve200):
    spec, table = solve200("merged")
    est = cd.estimate_risk(spec, TableStrategy(table), runs=5000, seed=31)
    diff = est.realized - est.posterior_form
    stderr = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 4 * stderr + 1e-12


def test_record_path_contents(solve200):
    spec, table = solve200("merged")
    strategy = TableStrategy(table)
    est = cd.estimate_risk(spec, strategy, runs=6, seed=2)
    [run] = assert_rows_match_single_runs(spec, strategy, est, [5])
    tau, d = int(est.tau[5]), int(est.d[5])
    assert len(run.observations) == tau
    # the run's observations walk its posterior path: it continues at every
    # step before the alarm, stops with the batch row's decision after the
    # last one, and prices to the row's running cost
    pi = cd.initial_posterior(spec)
    running = 0.0
    for n, x in enumerate(run.observations):
        assert strategy.decide(spec, pi, n) is None
        running += spec.c * (1.0 - pi[0])
        pi = cd.update(spec, pi, x)
    assert strategy.decide(spec, pi, tau) == d
    assert est.posterior_form[5] == running + (pi @ spec.a)[d - 1]


def test_risk_json_shape(solve200):
    spec, table = solve200("merged")
    est = cd.estimate_risk(spec, TableStrategy(table), runs=300, seed=77)
    doc = est.to_json()
    assert sorted(doc) == ["breakdown", "cap_rate", "mean", "runs", "seed", "std_error"]
    assert sorted(doc["breakdown"]) == ["delay", "false_alarm", "false_isolation"]
    total = sum(doc["breakdown"].values())
    assert total == pytest.approx(doc["mean"], rel=1e-12)


def test_spline_strategy_matches_table_strategy_often(solve200):
    spec, table = solve200("split")
    region = cd.extract_region(spec, table)
    boundaries = {j: cd.fit_boundary(region, j, K=12) for j in (1, 2)}
    r1 = cd.estimate_risk(spec, TableStrategy(table), runs=300, seed=55)
    r2 = cd.estimate_risk(spec, SplineStrategy(boundaries), runs=300, seed=55)
    same = np.count_nonzero((r1.tau == r2.tau) & (r1.d == r2.d))
    assert same / 300 >= 0.95


def test_monte_carlo_inputs_are_validated():
    spec = instances.FIGURES["merged"]
    for runs, seed in [(10, -1), (10, 2**64), (0, 1), (-3, 1)]:
        with pytest.raises(ValueError):
            cd.estimate_risk(spec, StopAfter(1), runs=runs, seed=seed)
    for kwargs, message in [
        ({"n_max": -5}, "n_max=-5"),
        ({"threads": 0}, "threads=0"),
        ({"threads": -2}, "threads=-2"),
        ({"seed": 1.5}, "^seed=1.5 must be an integer$"),
        ({"seed": True}, "^seed=True must be an integer$"),
        ({"runs": 2.5}, "^runs=2.5 must be an integer$"),
        ({"n_max": 2.5}, "^n_max=2.5 must be an integer$"),
        ({"threads": 2.5}, "^threads=2.5 must be an integer$"),
    ]:
        with pytest.raises(ValueError, match=message):
            cd.estimate_risk(spec, StopAfter(1), **{"runs": 10, "seed": 1, **kwargs})
    est = cd.estimate_risk(spec, StopAfter(3), runs=10, seed=1, n_max=0)
    assert est.tau.tolist() == [0] * 10 and est.cap_rate == 1.0
    # numpy integers are integers, and the estimate stores them as ints
    same = cd.estimate_risk(spec, StopAfter(3), runs=np.int64(10), seed=np.uint64(1),
                            n_max=np.int32(0), threads=np.int8(2))
    assert np.array_equal(same.realized, est.realized)
    assert json.dumps(same.to_json()) == json.dumps(est.to_json())
    env = Environment(spec, np.uint64(5), np.int64(0))
    assert env.symbol(np.int16(3)) == Environment(spec, 5, 0).symbol(3)
    for n, message in [(0, "^n=0 must be at least 1$"), (2.0, "^n=2.0 must be an integer$"),
                       (True, "^n=True must be an integer$")]:
        with pytest.raises(ValueError, match=message):
            env.symbol(n)


@pytest.mark.parametrize("threshold", [math.nan, 1.5, -0.1, math.inf])
def test_posterior_threshold_outside_unit_interval_rejected(threshold):
    with pytest.raises(ValueError, match=f"threshold={threshold} must lie in"):
        PosteriorThreshold(threshold)
    assert PosteriorThreshold(0.0).threshold == 0.0
    assert PosteriorThreshold(1.0).threshold == 1.0


def test_stop_after_negative_count_rejected():
    for k, message in [(-3, "^k=-3 must be nonnegative$"),
                       (2.5, "^k=2.5 must be an integer$"),
                       (True, "^k=True must be an integer$")]:
        with pytest.raises(ValueError, match=message):
            StopAfter(k)
    assert StopAfter(0).k == 0
    assert type(StopAfter(np.int64(2)).k) is int
