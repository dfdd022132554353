import io
import json
import math

import numpy as np
import pytest

import changediag as cd
from changediag import boundary as B

import instances


@pytest.fixture(scope="module")
def split_boundaries(solve200):
    spec, table = solve200("split")
    region = cd.extract_region(spec, table)
    fitted = {j: cd.fit_boundary(region, j, K=12) for j in (1, 2)}
    return spec, region, fitted


def test_corner_distances_from_polar():
    e0 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 0.0, 1.0])
    pp0 = cd.to_polar(e0, 1)
    pp2 = cd.to_polar(e2, 1)
    assert pp0.r == pytest.approx(2 / math.sqrt(3), abs=1e-15)
    assert pp2.r == pytest.approx(2 / math.sqrt(3), abs=1e-15)
    # the two far corners bracket the 60-degree wedge seen from corner 1
    assert pp2.beta[0] == 0.0
    assert pp0.beta[0] == pytest.approx(math.pi / 3, abs=1e-12)


def test_radius_equals_embedded_distance():
    rng = np.random.default_rng(23)
    for _ in range(50):
        pi = rng.dirichlet(np.ones(3))
        for corner in (1, 2):
            want = np.linalg.norm(cd.embed(pi) - cd.embed(np.eye(3)[corner]))
            assert B.corner_radius(pi, corner) == pytest.approx(want, abs=1e-12)


def test_polar_round_trip_two_types():
    rng = np.random.default_rng(6)
    for _ in range(200):
        pi = rng.dirichlet(np.ones(3))
        for corner in (1, 2):
            back = cd.from_polar(cd.to_polar(pi, corner))
            assert back == pytest.approx(pi, abs=1e-12)


def test_polar_round_trip_three_types():
    rng = np.random.default_rng(9)
    for _ in range(200):
        pi = rng.dirichlet(np.ones(4))
        for corner in (1, 2, 3):
            back = cd.from_polar(cd.to_polar(pi, corner))
            assert back == pytest.approx(pi, abs=1e-12)


def test_polar_at_corner_raises():
    with pytest.raises(cd.DegenerateCorner):
        cd.to_polar(np.array([0.0, 1.0, 0.0]), 1)


def test_fit_constant_radius_is_exact():
    beta = np.linspace(0.0, 0.5, 30)
    r = np.full(30, 0.7)
    breaks, coef, lam, rms, _ = B.fit_spline(beta, r, K=6, lam=1e-3)
    assert rms < 1e-12
    sb = cd.SplineBoundary(1, breaks, coef, lam, rms)
    assert B.evaluate_boundary(sb, np.array([0.05, 0.25, 0.49])) == pytest.approx(
        np.full(3, 0.7), abs=1e-12
    )
    assert cd.boundary.is_concave(sb)


def test_fit_reproduces_straight_line_at_any_smoothing():
    beta = np.linspace(0.0, 0.6, 40)
    r = 0.8 - 0.3 * beta
    for lam in (0.0, 1e-6, 10.0, 1e12):
        _, _, _, rms, _ = B.fit_spline(beta, r, K=8, lam=lam)
        assert rms < 1e-8


def test_heavy_smoothing_tends_to_least_squares_line():
    rng = np.random.default_rng(1)
    beta = np.linspace(0.0, 0.6, 40)
    r = 0.8 - 0.3 * beta + rng.normal(0.0, 0.01, 40)
    breaks, coef, lam, rms, _ = B.fit_spline(beta, r, K=8, lam=1e12)
    sb = cd.SplineBoundary(1, breaks, coef, lam, rms)
    line = np.polyfit(beta, r, 1)
    probe = np.linspace(0.0, 0.6, 13)
    assert B.evaluate_boundary(sb, probe) == pytest.approx(
        np.polyval(line, probe), abs=1e-6
    )


def test_cross_validation_is_deterministic():
    rng = np.random.default_rng(12)
    beta = np.sort(rng.uniform(0.0, 0.5, 80))
    r = 0.6 + 0.1 * np.sin(6 * beta) + rng.normal(0.0, 0.005, 80)
    first = B.fit_spline(beta, r, K=10)
    second = B.fit_spline(beta, r, K=10)
    assert first[2] == second[2]
    assert np.array_equal(first[1], second[1])
    assert first[4] is not None and first[4] > 0.0


def test_insufficient_samples_rejected():
    beta = np.linspace(0.0, 0.5, 5)
    with pytest.raises(cd.InsufficientBoundary):
        B.fit_spline(beta, np.full(5, 0.7), K=12)
    with pytest.raises(cd.InsufficientBoundary):
        B.fit_spline(np.full(30, 0.25), np.full(30, 0.7), K=4)


def test_fit_spline_rejects_bad_segment_counts_and_smoothing():
    beta = np.linspace(0.0, 0.5, 30)
    r = np.full(30, 0.7)
    for K in (0, -2):
        with pytest.raises(ValueError, match=f"K={K} spline segments"):
            B.fit_spline(beta, r, K=K)
    for lam in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=f"lam={lam} must be finite"):
            B.fit_spline(beta, r, K=4, lam=lam)


def test_extrapolation_is_linear():
    beta = np.linspace(0.1, 0.5, 30)
    r = 0.7 - 0.2 * beta + 0.3 * beta**2
    breaks, coef, lam, rms, _ = B.fit_spline(beta, r, K=6, lam=0.0)
    sb = cd.SplineBoundary(1, breaks, coef, lam, rms)
    for probes in (np.array([0.5, 0.6, 0.7, 0.8]), np.array([0.1, 0.05, 0.0, -0.05])):
        vals = np.asarray(B.evaluate_boundary(sb, probes))
        second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.abs(second_diff[1:]).max() < 1e-10


def test_is_concave_tracks_curvature_sign():
    beta = np.linspace(0.0, 1.0, 50)
    cap = 0.8 - 0.5 * (beta - 0.5) ** 2
    cup = 0.4 + 0.5 * (beta - 0.5) ** 2
    for samples, expected in ((cap, True), (cup, False)):
        breaks, coef, lam, rms, _ = B.fit_spline(beta, samples, K=8, lam=1e-6)
        sb = cd.SplineBoundary(1, breaks, coef, lam, rms)
        assert B.is_concave(sb) is expected


def test_boundary_samples_are_sorted_frontier(solve200):
    spec, table = solve200("split")
    region = cd.extract_region(spec, table)
    beta, r = cd.boundary.boundary_samples(region, 1)
    assert beta.size == cd.regions.boundary_nodes(region, 1).size
    assert (np.diff(beta) >= 0).all()
    assert (r > 0).all() and (r < 2 / math.sqrt(3)).all()


def test_boundary_samples_reject_a_corner_outside_the_model(solve200):
    spec, table = solve200("split")
    region = cd.extract_region(spec, table)
    for j in (0, 3, -1):
        with pytest.raises(ValueError, match="not a type"):
            cd.boundary.boundary_samples(region, j)


def test_scalar_and_batched_polar_paths_agree_bitwise(split_boundaries):
    """On every node of a Q=40 grid, scalar fast_member equals the batched
    fast_member_many, and to_polar equals the samples boundary_samples
    takes at the same nodes."""
    spec, _, fitted = split_boundaries
    region = cd.extract_region(spec, cd.value_iterate(spec, cd.build_grid(2, 40)))
    nodes = region.grid.nodes
    batch = cd.fast_member_many(spec, fitted, nodes)
    assert batch.dtype == np.int8 and set(np.unique(batch)) == {0, 1, 2}
    for node, want in zip(nodes, batch):
        assert (cd.fast_member(spec, fitted, node) or 0) == want
    all_ids = np.arange(region.grid.n_nodes)
    for j in (1, 2):
        beta, r = B.boundary_samples(region, j, all_ids)
        points = [cd.to_polar(node, j) for node in nodes if node[j] < 1.0]
        order = np.argsort([p.beta[0] for p in points], kind="stable")
        assert np.array_equal(beta, np.array([points[k].beta[0] for k in order]))
        assert np.array_equal(r, np.array([points[k].r for k in order]))


def test_fit_boundary_describes_the_region(split_boundaries):
    spec, region, fitted = split_boundaries
    for j in (1, 2):
        sb = fitted[j]
        assert sb.corner == j
        assert sb.knots.size == 13
        assert sb.coefficients.size == 15
        assert sb.rms < 0.02


def test_fast_member_matches_region_labels(split_boundaries):
    spec, region, fitted = split_boundaries
    grid = region.grid
    rng = np.random.default_rng(3)
    ids = rng.choice(grid.n_nodes, size=2000, replace=False)
    agree = 0
    for node_id in ids:
        got = cd.fast_member(spec, fitted, grid.nodes[node_id])
        want = int(region.labels[node_id])
        agree += (got or 0) == want
    assert agree / ids.size >= 0.99


def test_fast_member_basic_decisions(split_boundaries):
    spec, _, fitted = split_boundaries
    assert cd.fast_member(spec, fitted, np.array([0.98, 0.01, 0.01])) is None
    assert cd.fast_member(spec, fitted, np.array([0.02, 0.93, 0.05])) == 1
    assert cd.fast_member(spec, fitted, np.array([0.02, 0.05, 0.93])) == 2


def test_fast_member_at_exact_corner(split_boundaries):
    spec, _, fitted = split_boundaries
    assert cd.fast_member(spec, fitted, np.array([0.0, 1.0, 0.0])) == 1
    assert cd.fast_member(spec, fitted, np.array([0.0, 0.0, 1.0])) == 2


def test_fast_member_consults_only_the_best_decision(split_boundaries):
    """The procedure picks the cheapest decision first and asks only that
    corner's curve, so one curve suffices for posteriors leaning its way."""
    spec, _, fitted = split_boundaries
    only_one = {1: fitted[1]}
    assert cd.fast_member(spec, only_one, np.array([0.02, 0.93, 0.05])) == 1
    assert cd.fast_member(spec, only_one, np.array([0.6, 0.3, 0.1])) is None


def test_fast_member_requires_two_types(split_boundaries):
    spec, _, fitted = split_boundaries
    with pytest.raises(ValueError):
        cd.fast_member(spec, fitted, np.array([0.5, 0.5]))


def test_boundary_json_round_trip(tmp_path, split_boundaries):
    _, _, fitted = split_boundaries
    path = tmp_path / "boundaries.json"
    cd.save_boundaries(fitted.values(), str(path))
    loaded = cd.load_boundaries(str(path))
    assert sorted(loaded) == [1, 2]
    for j in (1, 2):
        assert np.array_equal(loaded[j].knots, fitted[j].knots)
        assert np.array_equal(loaded[j].coefficients, fitted[j].coefficients)
        assert loaded[j].lam == fitted[j].lam
        assert loaded[j].rms == fitted[j].rms


def test_boundary_json_shapes(split_boundaries):
    _, _, fitted = split_boundaries
    buf = io.StringIO()
    cd.save_boundary(fitted[1], buf)
    doc = json.loads(buf.getvalue())
    assert sorted(doc) == ["coefficients", "corner", "knots", "lambda", "rms"]
    # a single-curve document loads just as well as the list form
    single = cd.load_boundaries(io.StringIO(buf.getvalue()))
    assert sorted(single) == [1]
    assert np.array_equal(single[1].coefficients, fitted[1].coefficients)


@pytest.mark.parametrize(
    "knots,coefficients",
    [
        (np.full(5, math.nan), np.full(7, 0.3)),
        (np.linspace(0.0, 1.0, 5), np.array([0.3, 0.3, 0.3, math.nan, 0.3, 0.3, 0.3])),
        (np.linspace(0.0, 1.0, 5), np.array([0.3, 0.3, 0.3, 0.3, 0.3, 0.3, -math.inf])),
        (np.array([0.0, 0.25, math.inf, 0.75, 1.0]), np.full(7, 0.3)),
    ],
    ids=["knots-all-nan", "coefficient-nan", "coefficient-minus-inf", "knot-inf"],
)
def test_non_finite_curve_refused(knots, coefficients):
    """A curve with a non-finite knot or coefficient is refused when it is
    made: r <= NaN is false, so such a curve would silently never stop."""
    with pytest.raises(ValueError, match="^boundary curve for corner 2 has a non-finite"):
        cd.SplineBoundary(2, knots, coefficients, 1.0, 0.0)


@pytest.fixture(scope="module")
def reference_curves(solve200, grid200):
    """Curves fitted at Q=200 for "merged" (K=12) and for the c=0.05
    instance (K=8), with their boundary sample angles."""
    cheap = instances.two_type(10, 10, 3, 3, 0.05)
    solved = [(solve200("merged"), 12), ((cheap, cd.value_iterate(cheap, grid200)), 8)]
    curves = []
    for (spec, table), K in solved:
        region = cd.extract_region(spec, table)
        for j in (1, 2):
            curves.append((cd.fit_boundary(region, j, K), B.boundary_samples(region, j)[0]))
    return curves


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _overshooting_angles(sb):
    lo, hi = sb.knots[0], sb.knots[-1]
    return np.linspace(lo - 0.3 * (hi - lo), hi + 0.3 * (hi - lo), 2001)


def test_design_matches_one_spline_per_basis_function(reference_curves):
    """The basis matrix equals, bit for bit, the columns of K+3 splines that
    each carry one unit coefficient, for the values and second derivatives."""
    from scipy.interpolate import BSpline

    for sb, beta in reference_curves:
        t = B._full_knots(sb.knots)
        nb = t.size - 4
        for x in (beta, _overshooting_angles(sb)):
            for deriv in (0, 2):
                want = np.empty((x.size, nb))
                for i in range(nb):
                    coef = np.zeros(nb)
                    coef[i] = 1.0
                    spl = BSpline(t, coef, 3)
                    if deriv:
                        spl = spl.derivative(deriv)
                    want[:, i] = spl(np.clip(x, t[0], t[-1]))
                assert _same_bits(B._design(t, x, deriv), want)


def test_evaluate_boundary_matches_a_fresh_spline(reference_curves):
    """Array and scalar evaluation equal, bit for bit, a spline built from
    the curve's knots and coefficients, continued beyond each end knot by
    the line through the end value with the end slope."""
    from scipy.interpolate import BSpline

    for sb, _ in reference_curves:
        spl = BSpline(B._full_knots(sb.knots), sb.coefficients, 3)
        slope = spl.derivative(1)
        lo, hi = sb.knots[0], sb.knots[-1]
        x = _overshooting_angles(sb)
        want = spl(np.clip(x, lo, hi))
        left, right = x < lo, x > hi
        assert left.any() and right.any()
        want[left] = spl(lo) + slope(lo) * (x[left] - lo)
        want[right] = spl(hi) + slope(hi) * (x[right] - hi)
        assert _same_bits(B.evaluate_boundary(sb, x), want)
        for k in range(0, x.size, 50):
            got = B.evaluate_boundary(sb, float(x[k]))
            assert type(got) is float and _same_bits(got, want[k])
