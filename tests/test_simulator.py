import math

import numpy as np
import pytest

import changediag as cd
from changediag.simulator import (
    Environment,
    PosteriorThreshold,
    SplineStrategy,
    StopAfter,
    TableStrategy,
    _PHILOX_ROWS,
    _philox_uniforms,
)

import instances
import oracles


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
])
def test_environment_key_out_of_range(seed, run_index, name):
    spec = instances.FIGURES["merged"]
    with pytest.raises(ValueError, match=rf"{name}=-?\d+ must be in \[0, 2\*\*64\)"):
        Environment(spec, seed, run_index)


def test_immediate_change_when_p0_is_one():
    spec = instances.hypothesis_testing_two_type()
    assert all(Environment(spec, 0, i).theta == 0 for i in range(300))


def test_change_time_frequency_binomial():
    spec = instances.FIGURES["merged"]
    draws = 20_000
    zeros = sum(Environment(spec, 77, i).theta == 0 for i in range(draws))
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
    for i in range(200):
        rec = cd.run_strategy(spec, StopAfter(0), Environment(spec, 3, i))
        assert rec.tau == 0
        _, _, col = cd.h_costs(spec, cd.initial_posterior(spec))
        assert rec.d == col + 1
        want = spec.a[0, rec.d - 1] if rec.theta > 0 else spec.a[rec.mu, rec.d - 1]
        assert rec.realized_cost == want
        assert not rec.capped


def test_free_stopping_cost_stops_at_zero():
    spec = cd.ProblemSpec(
        alphabet_size=2, num_types=1, p0=0.02, p=0.05,
        nu=np.array([1.0]), f=np.array([[0.75, 0.25], [0.25, 0.75]]),
        c=1.0, a=np.array([[0.0], [0.0]]),
    )
    table = cd.value_iterate(spec, cd.build_grid(1, 50))
    rec = cd.run_strategy(spec, TableStrategy(table), Environment(spec, 1, 0))
    assert rec.tau == 0
    assert rec.realized_cost == 0.0


def test_solved_strategy_stops_in_reasonable_time(solve200):
    spec, table = solve200("merged")
    strategy = TableStrategy(table)
    taus = []
    for i in range(200):
        rec = cd.run_strategy(spec, strategy, Environment(spec, 21, i))
        assert not rec.capped
        taus.append(rec.tau)
    assert max(taus) < 500
    assert np.mean(taus) < 100


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


def test_philox_kernel_rows_span_several_passes():
    runs = np.arange(2 * _PHILOX_ROWS + 5)
    got = _philox_uniforms(77, runs, 5, 70)
    for r in (0, _PHILOX_ROWS - 1, _PHILOX_ROWS, 2 * _PHILOX_ROWS, runs[-1]):
        assert np.array_equal(got[r], numpy_stream(77, r, 5, 70))


def assert_rows_match_single_runs(spec, strategy, est, rows):
    for k in rows:
        rec = cd.run_strategy(spec, strategy, Environment(spec, est.seed, int(k)))
        assert rec.theta == est.theta[k]
        assert rec.mu == est.mu[k]
        assert rec.tau == est.tau[k]
        assert rec.d == est.d[k]
        assert rec.realized_cost == est.realized[k]
        assert rec.posterior_cost == est.posterior_form[k]


def test_single_runs_reproduce_batch_rows(solve200):
    spec, table = solve200("merged")
    strategy = TableStrategy(table)
    est = cd.estimate_risk(spec, strategy, runs=200, seed=42)
    assert_rows_match_single_runs(spec, strategy, est, (0, 7, 123))


def test_long_runs_reproduce_batch_rows_across_windows():
    """Runs past 64 and 128 symbols read their second and third uniform
    windows from the batch kernel; single runs read them from numpy."""
    spec = instances.two_type(10, 10, 3, 3, 0.05)
    strategy = TableStrategy(cd.value_iterate(spec, cd.build_grid(2, 100)))
    one = cd.estimate_risk(spec, strategy, runs=1000, seed=42, threads=1)
    two = cd.estimate_risk(spec, strategy, runs=1000, seed=42, threads=2)
    for name in ("theta", "mu", "tau", "d", "realized", "posterior_form", "capped"):
        assert np.array_equal(getattr(one, name), getattr(two, name))
    second = np.flatnonzero((one.tau > 64) & (one.tau <= 128))
    third = np.flatnonzero(one.tau > 128)
    # rows in both halves, so the threads=2 block with run_offset > 0 is covered
    rows = {0, 999, second[0], second[-1], third[0], third[-1]}
    assert min(rows) < 500 and max(third) >= 500
    assert_rows_match_single_runs(spec, strategy, one, sorted(rows))


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
    rec = cd.run_strategy(spec, never, Environment(spec, 13, 0), n_max=40)
    assert rec.capped and rec.tau == 40
    mu_row = 0 if rec.tau < rec.theta else rec.mu
    want = spec.c * max(rec.tau - rec.theta, 0) + spec.a[mu_row, rec.d - 1]
    assert rec.realized_cost == want


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
    for i in range(100):
        rec = cd.run_strategy(spec, strategy, Environment(spec, 4, i))
        assert rec.theta == 0
        assert rec.realized_cost == spec.c * rec.tau + spec.a[rec.mu, rec.d - 1]
        pi = cd.initial_posterior(spec)
        assert pi[0] == 0.0
        for x in rec.observations:
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
    rec = cd.run_strategy(spec, strategy, Environment(spec, 2, 5))
    assert len(rec.observations) == rec.tau
    # replaying the recorded observations walks the run's posterior path:
    # it continues at every step before the alarm, stops with the recorded
    # decision after the last one, and prices to the recorded running cost
    pi = cd.initial_posterior(spec)
    running = 0.0
    for n, x in enumerate(rec.observations):
        assert strategy.decide(spec, pi, n) is None
        running += spec.c * (1.0 - pi[0])
        pi = cd.update(spec, pi, x)
    assert strategy.decide(spec, pi, rec.tau) == rec.d
    assert rec.posterior_cost == running + (pi @ spec.a)[rec.d - 1]


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
    tab = TableStrategy(table)
    spl = SplineStrategy(boundaries)
    same = 0
    for i in range(300):
        r1 = cd.run_strategy(spec, tab, Environment(spec, 55, i))
        r2 = cd.run_strategy(spec, spl, Environment(spec, 55, i))
        same += (r1.tau, r1.d) == (r2.tau, r2.d)
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
    ]:
        with pytest.raises(ValueError, match=message):
            cd.estimate_risk(spec, StopAfter(1), runs=10, seed=1, **kwargs)
    est = cd.estimate_risk(spec, StopAfter(3), runs=10, seed=1, n_max=0)
    assert est.tau.tolist() == [0] * 10 and est.cap_rate == 1.0


@pytest.mark.parametrize("threshold", [math.nan, 1.5, -0.1, math.inf])
def test_posterior_threshold_outside_unit_interval_rejected(threshold):
    with pytest.raises(ValueError, match=f"threshold={threshold} must lie in"):
        PosteriorThreshold(threshold)
    assert PosteriorThreshold(0.0).threshold == 0.0
    assert PosteriorThreshold(1.0).threshold == 1.0


def test_stop_after_negative_count_rejected():
    with pytest.raises(ValueError, match="^k=-3 must be nonnegative$"):
        StopAfter(-3)
    assert StopAfter(0).k == 0
