"""The bounds in front of the two online stop rules.

``TableStrategy`` continues outright where the least stopping cost
exceeds the largest table value its interpolation stencil can reach, and
``fast_member_many`` where the corner radius exceeds the largest radius
the curve reaches.  Neither bound may change a decision: on every row
here both rules answer exactly what ``fixed.table_rule`` and
``fixed.spline_rule``, which interpolate or evaluate every row, answer.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import changediag as cd
from changediag import boundary as B
from changediag import solver

import fixed
import instances
import oracles


class Checked(cd.Strategy):
    """A strategy whose every batch is checked against its exact rule."""

    def __init__(self, strategy, exact):
        self.strategy, self.exact, self.rows = strategy, exact, 0

    def decide_many(self, spec, pis, n):
        got = self.strategy.decide_many(spec, pis, n)
        assert got.dtype == np.int8
        assert np.array_equal(got, self.exact(spec, pis)), n
        self.rows += pis.shape[0]
        return got


def table_pair(table):
    return Checked(cd.TableStrategy(table), lambda spec, pis: fixed.table_rule(spec, table, pis))


def spline_pair(fits):
    return Checked(cd.SplineStrategy(fits), lambda spec, pis: fixed.spline_rule(spec, fits, pis))


def both_rules(spec, table, fits, pis):
    """Both bounded rules on ``pis`` against their exact rules."""
    for rule in (table_pair(table), spline_pair(fits)):
        rule.decide_many(spec, pis, 0)


@pytest.fixture(scope="module")
def merged(solve200):
    spec, table = solve200("merged")
    region = cd.extract_region(spec, table)
    return spec, table, {j: cd.fit_boundary(region, j, 12) for j in (1, 2)}


@pytest.mark.parametrize("name", sorted(instances.FIGURES))
def test_every_posterior_a_monte_carlo_batch_reaches(solve200, name):
    """Every batch ``estimate_risk`` hands either rule, one row per run
    and step up to its alarm."""
    spec, table = solve200(name)
    region = cd.extract_region(spec, table)
    fits = {j: cd.fit_boundary(region, j, 12) for j in (1, 2)}
    for rule in (table_pair(table), spline_pair(fits)):
        est = cd.estimate_risk(spec, rule, runs=2000, seed=5)
        assert rule.rows == est.tau.sum() + est.runs


@pytest.mark.parametrize(
    "spec,Q",
    [(instances.three_type(), 30), (instances.sa_three_component(), 8),
     (instances.shiryaev_binary(), 200), (instances.sprt(0.7, 0.05), 100)],
    ids=["three-type", "seven-type", "one-type", "sprt-face"],
)
def test_table_bound_on_other_models(spec, Q):
    """Three and seven types, one type, and a model whose posteriors stay
    on the face p0 = 1: Monte Carlo rows and every lattice node."""
    table = cd.value_iterate(spec, cd.build_grid(spec.num_types, Q))
    rule = table_pair(table)
    cd.estimate_risk(spec, rule, runs=1000, seed=5)
    rule.decide_many(spec, table.grid.nodes, 0)


@pytest.mark.parametrize("Q,sweeps", [(7, 1), (7, 2), (20, 3), (60, 5)])
def test_coarse_and_unconverged_tables(Q, sweeps):
    """Tables cut off after a few sweeps keep a slack of the size of their
    values, and coarse lattices keep slabs far apart."""
    spec = instances.FIGURES["asym_pocket"]
    table = cd.value_iterate(spec, cd.build_grid(2, Q), max_iter=sweeps, tol=1e-300)
    rule = table_pair(table)
    cd.estimate_risk(spec, rule, runs=500, seed=6)
    rule.decide_many(spec, np.random.default_rng(Q).dirichlet(np.ones(3), 20000), 0)


def test_values_rising_toward_the_change():
    """With cheap false alarms and dear misdiagnoses the largest value of
    a slab rises towards the faces pi_0 = 0, so a stencil between lines
    r and r + 1 reads the larger slab r + 1: rows just below each line."""
    spec = instances.two_type(1, 1, 20, 20, 1.0)
    Q = 50
    table = cd.value_iterate(spec, cd.build_grid(2, Q))
    rng = np.random.default_rng(11)
    line = rng.integers(1, Q + 1, 50000)
    s = (line - rng.uniform(0.0, 0.2, line.size) ** 3) / Q
    share = rng.uniform(size=line.size)
    rule = table_pair(table)
    rule.decide_many(spec, np.column_stack([1.0 - s, s * share, s * (1.0 - share)]), 0)
    cd.estimate_risk(spec, rule, runs=1000, seed=5)


def test_lattice_nodes(merged):
    """The nodes of the table's own grid, and of a grid whose nodes fall
    between its lines."""
    spec, table, fits = merged
    for Q in (200, 137):
        both_rules(spec, table, fits, cd.build_grid(2, Q).nodes)


def test_tail_sums_next_to_a_lattice_line(merged):
    """Rows whose Q (pi_1 + pi_2) lies a few ulps from an integer, or
    within the stencil's snapping distance of one, on either side."""
    spec, table, fits = merged
    Q = table.grid.Q
    rng = np.random.default_rng(8)
    k = np.arange(Q + 1)
    share = rng.uniform(size=k.size)
    rows = []
    for ulps in range(-4, 5):
        pi2 = k / Q * (1.0 - share)
        for _ in range(abs(ulps)):
            pi2 = np.nextafter(pi2, math.copysign(np.inf, ulps))
        rows.append(np.column_stack([1.0 - k / Q, k / Q * share, pi2]))
    for shift in (-2e-9, -1e-9, -0.5e-9, 0.5e-9, 1e-9, 2e-9):
        pi1 = k / Q * share
        rows.append(np.column_stack([1.0 - k / Q, pi1, k / Q - pi1 + shift / Q]))
    pis = np.vstack(rows)
    sums = Q * (pis[:, 2] + pis[:, 1])
    assert np.abs(sums - np.rint(sums)).max() < 3e-9
    both_rules(spec, table, fits, pis)
    # a row alone finds its slab by search, a batch by arithmetic
    rule = table_pair(table)
    for pi in pis:
        rule.decide_many(spec, pi[None, :], 0)


@pytest.mark.parametrize("Q", [1, 7, 200, 2447])
def test_row_search_finds_the_slab_of_q_s(Q):
    """A batch of up to 32 rows finds r = trunc(clip(Q s, 0, Q)), Q s
    rounded as the stencil rounds it, by binary search over the least s
    at which Q s reaches each integer: checked on s a few floats around
    every k/Q and beyond [0, 1]."""
    grid = cd.build_grid(1, Q)
    table = cd.ValueTable(grid, np.zeros(grid.n_nodes), np.zeros(grid.n_nodes, np.int8),
                          1, 0.0, 0.0, 1e-4)
    s = [np.arange(Q + 1) / Q, np.random.default_rng(Q).uniform(-0.1, 1.1, 10000)]
    for direction in (-np.inf, np.inf):
        s += [np.nextafter(s[0], direction), np.nextafter(np.nextafter(s[0], direction), direction)]
    s = np.concatenate(s + [[np.inf, -np.inf, 1e300, -1e300, 0.0, -0.0]])
    want = np.clip(s * Q, 0, Q).astype(np.intp)
    assert np.array_equal(cd.TableStrategy(table)._least.searchsorted(s, "right"), want)


def test_finite_rows_off_the_simplex(merged):
    """Negative coordinates, sums other than 1, and coordinates near 1e300
    whose tail sums cancel in one order of addition and not in another."""
    spec, table, fits = merged
    rng = np.random.default_rng(9)
    huge = [[1.0, 1e300, -1e300], [1e300, -1e300, 0.5], [-1e300, 2.0, 1e300],
            [0.2, -1e300, 1e300], [1e300, 1e300, 1e300], [-1e300, -1e300, 0.0],
            [0.0, 1e300, -1e300 + 1e285]]
    pis = np.vstack([rng.normal(0.3, 1.0, (20000, 3)), rng.uniform(-3, 3, (20000, 3)),
                     rng.dirichlet(np.ones(3), 2000) * 1.7, huge])
    with np.errstate(over="ignore", invalid="ignore"):
        both_rules(spec, table, fits, pis)


def curve(corner, knots, coefficients):
    return cd.SplineBoundary(corner, np.asarray(knots, dtype=float),
                             np.asarray(coefficients, dtype=float), 0.0, 0.0)


CURVES = {
    # largest inside a segment
    "hump": (np.linspace(0.1, 1.0, 5), [0.2, 0.3, 0.5, 0.7, 0.5, 0.3, 0.2]),
    # largest at pi/2, on the line beyond the last knot
    "rising": (np.linspace(0.1, 1.0, 5), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]),
    # one straight line, largest at beta = 0
    "line": (np.linspace(0.0, np.pi / 3, 2), [0.5, 0.45, 0.4, 0.35]),
    # below zero everywhere: only the corner stops
    "negative": (np.linspace(0.0, np.pi / 3, 4), np.full(6, -0.1)),
}


@pytest.mark.parametrize("shape", sorted(CURVES))
def test_curve_reach_and_decisions(merged, shape):
    """The reach bounds max(g, 0) over [0, pi/2] within 1e-3, and the
    bounded rule decides as the exact one on random rows, on rows next to
    the curve and on rows next to the reach."""
    spec = merged[0]
    knots, coef = CURVES[shape]
    fits = {j: curve(j, knots, coef) for j in (1, 2)}
    beta = np.linspace(0.0, np.pi / 2, 100_001)
    top = np.maximum(B.evaluate_boundary(fits[1], beta), 0.0).max()
    assert top <= fits[1]._reach <= top + 1e-3
    rows = [np.random.default_rng(10).dirichlet(np.ones(3), 20000)]
    for corner, sb in fits.items():
        for b in np.linspace(0.0, np.pi / 2, 97):
            g = max(float(B.evaluate_boundary(sb, b)), 0.0)
            for r in (g * (1 - 1e-9), g, g * (1 + 1e-9), sb._reach * (1 - 1e-9), sb._reach,
                      sb._reach * (1 + 1e-9), sb._reach * (1 + 1e-7)):
                rows.append(oracles.polar_inverse(r, b, corner)[None, :])
    pis = np.vstack(rows)
    got = cd.fast_member_many(spec, fits, pis)
    assert np.array_equal(got, fixed.spline_rule(spec, fits, pis))


def test_reach_of_fitted_curves(merged):
    """On "merged" (Q=200, K=12) the reach is 0.79981, 2.6e-4 above the
    curve's sampled maximum."""
    fits = merged[2]
    beta = np.linspace(0.0, np.pi / 2, 100_001)
    for sb in fits.values():
        top = np.maximum(B.evaluate_boundary(sb, beta), 0.0).max()
        assert top <= sb._reach <= top + 5e-4
        assert sb._reach == pytest.approx(0.79981, abs=1e-5)


def test_wrong_shape_rows_keep_their_errors(merged):
    spec, table, fits = merged
    with pytest.raises(ValueError, match="^points have 4 coordinates, the grid's simplex has 3$"):
        cd.TableStrategy(table).decide_many(spec, np.full((2, 4), 0.25), 0)
    with pytest.raises(ValueError, match=r"shape \(n, 3\), not \(2, 4\)$"):
        cd.SplineStrategy(fits).decide_many(spec, np.full((2, 4), 0.25), 0)


def test_bounds_settle_most_rows_of_a_monte_carlo_batch(merged, monkeypatch):
    """Of the rows ``decide_many`` receives in 4000 runs on "merged", at
    most 30 % reach the interpolation stencil under the table rule and at
    most 20 % reach the curve under the spline rule (8478 of 41248 and
    5202 of 41285), and the counts repeat exactly."""
    spec, table, fits = merged
    seen = {}

    def counting(name, fn):
        def wrapper(owner, rows, *args):
            seen[name] += np.size(rows) if name == "curve" else rows.shape[0]
            return fn(owner, rows, *args)
        return wrapper

    monkeypatch.setattr(solver, "_stencil", counting("stencil", solver._stencil))
    monkeypatch.setattr(B, "evaluate_boundary", counting("curve", B.evaluate_boundary))
    counts = []
    for _ in range(2):
        for kind, strategy, reached, share in (
            ("table", cd.TableStrategy(table), "stencil", 0.30),
            ("spline", cd.SplineStrategy(fits), "curve", 0.20),
        ):
            seen.update(stencil=0, curve=0)
            est = cd.estimate_risk(spec, strategy, runs=4000, seed=5)
            received = int(est.tau.sum()) + est.runs
            assert seen[reached] <= share * received, kind
            counts.append((kind, received, seen["stencil"], seen["curve"]))
    assert counts[:2] == counts[2:]
