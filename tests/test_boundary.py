import json
import math
import re

import numpy as np
import pytest

import changediag as cd
from changediag import boundary as B
from changediag.posterior import _announce, h_values_many

import fixed
import instances
import oracles


@pytest.fixture(scope="module")
def split_boundaries(solve200):
    spec, table = solve200("split")
    region = cd.extract_region(spec, table)
    fitted = {j: cd.fit_boundary(region, j, K=12) for j in (1, 2)}
    return spec, region, fitted


def test_corner_distances_from_polar():
    """Both far corners sit 2/sqrt(3) from either stopping corner, at the
    two ends of its 60-degree wedge: the one with pi_{corner-1} = 1 at
    angle pi/3, the other at angle 0."""
    for corner, (top, side) in ((1, (0, 2)), (2, (1, 0))):
        r, beta = B._polar(np.eye(3)[[top, side]], corner)
        assert r == pytest.approx(np.full(2, 2 / math.sqrt(3)), abs=1e-15)
        assert beta[1] == 0.0
        assert beta[0] == pytest.approx(math.pi / 3, abs=1e-12)


def test_radius_equals_embedded_distance():
    pis = np.random.default_rng(23).dirichlet(np.ones(3), 50)
    for corner in (1, 2):
        want = np.linalg.norm(cd.embed(pis) - cd.embed(np.eye(3)[corner]), axis=1)
        r, _ = B._polar(pis, corner)
        assert r == pytest.approx(want, abs=1e-12)


def test_polar_round_trip_two_types():
    """The plane-geometry inverse takes each row's (r, beta) back to it."""
    pis = np.random.default_rng(6).dirichlet(np.ones(3), 200)
    for corner in (1, 2):
        r, beta = B._polar(pis, corner)
        assert r.shape == beta.shape == (200,)
        for pi, rk, bk in zip(pis, r, beta):
            assert oracles.polar_inverse(rk, bk, corner) == pytest.approx(pi, abs=1e-12)


def test_polar_at_corner_is_radius_zero_angle_zero():
    pis = np.array([[0.2, 0.5, 0.3], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    r, beta = B._polar(pis, 1)
    assert r[1] == 0.0 and beta[1] == 0.0
    assert r[0] > 0.0 and beta[0] > 0.0
    r, beta = B._polar(pis, 2)
    assert r[2] == 0.0 and beta[2] == 0.0


def test_fit_constant_radius_is_exact():
    beta = np.linspace(0.0, 0.5, 30)
    r = np.full(30, 0.7)
    sb = fixed.spline_at(beta, r, 6, 1e-3)
    assert sb.rms < 1e-12
    assert B.evaluate_boundary(sb, np.array([0.05, 0.25, 0.49])) == pytest.approx(
        np.full(3, 0.7), abs=1e-12
    )
    assert cd.boundary.is_concave(sb)


def test_fit_reproduces_straight_line_at_any_smoothing():
    beta = np.linspace(0.0, 0.6, 40)
    r = 0.8 - 0.3 * beta
    for lam in (0.0, 1e-6, 10.0, 1e12):
        assert fixed.spline_at(beta, r, 8, lam).rms < 1e-8


def test_heavy_smoothing_tends_to_least_squares_line():
    rng = np.random.default_rng(1)
    beta = np.linspace(0.0, 0.6, 40)
    r = 0.8 - 0.3 * beta + rng.normal(0.0, 0.01, 40)
    sb = fixed.spline_at(beta, r, 8, 1e12)
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
    assert first[4] == second[4] > 0.0


def test_insufficient_samples_rejected():
    beta = np.linspace(0.0, 0.5, 5)
    with pytest.raises(cd.InsufficientBoundary):
        B.fit_spline(beta, np.full(5, 0.7), K=12)
    with pytest.raises(cd.InsufficientBoundary):
        B.fit_spline(np.full(30, 0.25), np.full(30, 0.7), K=4)


def test_fit_spline_rejects_bad_segment_counts():
    beta = np.linspace(0.0, 0.5, 30)
    r = np.full(30, 0.7)
    for K in (0, -2):
        with pytest.raises(ValueError, match=f"K={K} spline segments"):
            B.fit_spline(beta, r, K=K)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda region: B.fit_spline(*B.boundary_samples(region, 1), K=True),
         "K=True must be an integer"),
        (lambda region: B.fit_spline(*B.boundary_samples(region, 1), K=2.5),
         "K=2.5 must be an integer"),
        (lambda region: cd.fit_boundary(region, 1, 0), "K=0 spline segments must be at least 1"),
        (lambda region: B.boundary_samples(region, True), "j=True must be an integer"),
        (lambda region: B.boundary_samples(region, 1.0), "j=1.0 must be an integer"),
        (lambda region: cd.fit_boundary(region, 2.5, 4), "j=2.5 must be an integer"),
        (lambda region: B.boundary_samples(region, 0),
         "corner j=0 is not a type of the 2-type model"),
    ],
    ids=["K-true", "K-fraction", "K-0", "j-true", "j-float", "j-fraction", "j-0"],
)
def test_counts_and_corners_must_be_integers(split_boundaries, call, message):
    """A bool would count as 1 segment or read corner 1, and a fraction
    would end in a TypeError inside numpy; each is refused in one line."""
    _, region, _ = split_boundaries
    with pytest.raises(ValueError) as info:
        call(region)
    assert str(info.value) == message


def test_extrapolation_is_linear():
    beta = np.linspace(0.1, 0.5, 30)
    r = 0.7 - 0.2 * beta + 0.3 * beta**2
    sb = fixed.spline_at(beta, r, 6, 0.0)
    for probes in (np.array([0.5, 0.6, 0.7, 0.8]), np.array([0.1, 0.05, 0.0, -0.05])):
        vals = np.asarray(B.evaluate_boundary(sb, probes))
        second_diff = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.abs(second_diff[1:]).max() < 1e-10


def test_is_concave_tracks_curvature_sign():
    beta = np.linspace(0.0, 1.0, 50)
    cap = 0.8 - 0.5 * (beta - 0.5) ** 2
    cup = 0.4 + 0.5 * (beta - 0.5) ** 2
    for samples, expected in ((cap, True), (cup, False)):
        assert B.is_concave(fixed.spline_at(beta, samples, 8, 1e-6)) is expected


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


def test_polar_entry_points_refuse_more_than_two_types(split_boundaries):
    """_polar knows only the 2-type distance form, so a 3-type input must
    stop at these guards rather than get wrong radii."""
    spec3 = instances.three_type()
    region3 = cd.extract_region(spec3, cd.value_iterate(spec3, cd.build_grid(3, 4)))
    with pytest.raises(ValueError, match="^boundary curves are defined for the 2-type problem$"):
        B.boundary_samples(region3, 1)
    spec, _, fitted = split_boundaries
    with pytest.raises(ValueError) as info:
        cd.fast_member_many(spec, fitted, np.full((5, 4), 0.25))
    assert str(info.value) == (
        "fast membership needs 2-type posteriors, shape (n, 3), not (5, 4)"
    )


@pytest.mark.parametrize("shape", [(3,), (2, 2, 3)], ids=["one-posterior", "3-d"])
def test_fast_member_many_refuses_a_batch_that_is_not_2_d(split_boundaries, shape):
    """A single posterior used to end in an IndexError; every shape other
    than (n, 3) gets the one ValueError."""
    spec, _, fitted = split_boundaries
    with pytest.raises(ValueError) as info:
        cd.fast_member_many(spec, fitted, np.full(shape, 1.0 / 3.0))
    assert str(info.value) == (
        f"fast membership needs 2-type posteriors, shape (n, 3), not {shape}"
    )


def test_fast_member_many_reads_a_list_of_rows(split_boundaries, grid200):
    """Rows given as lists answer as the array does, and a list of rows of
    the wrong width gets the shape refusal, where both ended in an
    AttributeError."""
    spec, _, fitted = split_boundaries
    pis = grid200.nodes[::97]
    assert np.array_equal(cd.fast_member_many(spec, fitted, pis.tolist()),
                          cd.fast_member_many(spec, fitted, pis))
    with pytest.raises(ValueError) as info:
        cd.fast_member_many(spec, fitted, [[0.5, 0.5]])
    assert str(info.value) == "fast membership needs 2-type posteriors, shape (n, 3), not (1, 2)"


@pytest.mark.parametrize(
    "row", [[math.nan, 0.5, 0.5], [math.inf, 0.0, 0.0], [0.5, -math.inf, 0.5]],
    ids=["nan", "inf", "minus-inf"],
)
def test_table_and_spline_rules_refuse_non_finite_posteriors(split_boundaries, solve200, row):
    """Neither rule answers for a point it cannot place: NaN fails every
    comparison, so the spline rule would read it as continue."""
    spec, _, fitted = split_boundaries
    table = solve200("split")[1]
    bad = np.array(row)
    pis = np.vstack([np.full(3, 1.0 / 3.0), bad])
    refusal = re.escape(f"has a non-finite coordinate: {row}") + "$"
    with pytest.raises(ValueError, match="^point 1 " + refusal):
        cd.fast_member_many(spec, fitted, pis)
    with pytest.raises(ValueError, match="^point 0 " + refusal):
        cd.fast_member(spec, fitted, bad)
    for rule in (cd.TableStrategy(table), cd.SplineStrategy(fitted)):
        with pytest.raises(ValueError, match="^point 1 " + refusal):
            rule.decide_many(spec, pis, 0)
        with pytest.raises(ValueError, match="^point 0 " + refusal):
            rule.decide(spec, bad, 0)


def test_scalar_and_batched_polar_paths_agree_bitwise(split_boundaries):
    """On every node of a Q=40 grid, scalar fast_member equals the batched
    fast_member_many, and _polar of all nodes off the corner equals its
    one-node calls, each of which is the node's polar coordinates by plane
    geometry."""
    spec, _, fitted = split_boundaries
    region = cd.extract_region(spec, cd.value_iterate(spec, cd.build_grid(2, 40)))
    nodes = region.grid.nodes
    batch = cd.fast_member_many(spec, fitted, nodes)
    assert batch.dtype == np.int8 and set(np.unique(batch)) == {0, 1, 2}
    for node, want in zip(nodes, batch):
        assert (cd.fast_member(spec, fitted, node) or 0) == want
    for j in (1, 2):
        off_corner = nodes[nodes[:, j] < 1.0]
        r, beta = B._polar(off_corner, j)
        for node, r1, b1 in zip(off_corner, r, beta):
            one = B._polar(node[None, :], j)
            assert (one[0][0], one[1][0]) == (r1, b1)
            assert (r1, b1) == pytest.approx(oracles.polar_point(node, j), abs=1e-12)


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
    nodes = grid.nodes
    agree = 0
    for node_id in ids:
        got = cd.fast_member(spec, fitted, nodes[node_id])
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


def test_boundary_json_shapes(tmp_path, split_boundaries):
    _, _, fitted = split_boundaries
    path = str(tmp_path / "b1.json")
    cd.save_boundary(fitted[1], path)
    with open(path) as fh:
        doc = json.load(fh)
    assert sorted(doc) == ["coefficients", "corner", "knots", "lambda", "rms"]
    # a single-curve document loads just as well as the list form
    single = cd.load_boundaries(path)
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


@pytest.mark.parametrize("corner", [0, 3, 7])
def test_curve_for_a_corner_outside_the_2_type_model_refused(corner):
    with pytest.raises(ValueError, match=f"^boundary curve for corner {corner}: not a type"):
        cd.SplineBoundary(corner, np.linspace(0.0, 1.0, 5), np.full(7, 0.3), 1.0, 0.0)


#: A well-formed 4-segment curve, which each malformed case edits.
CURVE = dict(knots=np.linspace(0.0, 1.0, 5), coefficients=np.full(7, 0.3), lam=1.0, rms=0.0)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"coefficients": np.r_[np.full(7, 0.3), 5.0, 9.0]},
         " has coefficients of shape (9,), expected (7,)"),
        ({"coefficients": np.full(6, 0.3)}, " has coefficients of shape (6,), expected (7,)"),
        ({"coefficients": np.full((7, 1), 0.3)},
         " has coefficients of shape (7, 1), expected (7,)"),
        ({"knots": np.array([0.0, 0.5, 0.5, 1.0]), "coefficients": np.full(6, 0.3)},
         " needs two or more"),
        ({"knots": np.array([1.0, 0.5, 0.0]), "coefficients": np.full(5, 0.3)},
         " needs two or more"),
        ({"knots": np.array([0.5]), "coefficients": np.full(3, 0.3)}, " needs two or more"),
        ({"knots": np.linspace(0.0, 1.0, 5)[None, :]}, " needs two or more"),
        ({"lam": -1.0}, ": lambda=-1.0 must be finite and nonnegative"),
        ({"lam": math.inf}, ": lambda=inf must be finite and nonnegative"),
        ({"rms": -1.0}, ": rms=-1.0 must be finite and nonnegative"),
        ({"rms": math.nan}, ": rms=nan must be finite and nonnegative"),
    ],
    ids=["extra-coefficients", "missing-coefficient", "2-D-coefficients",
         "repeated-knot", "decreasing-knots", "one-knot", "2-D-knots",
         "lambda-negative", "lambda-inf", "rms-negative", "rms-nan"],
)
def test_malformed_curve_refused(fields, message):
    """Knots must be 1-D and strictly increasing and there must be one
    coefficient per B-spline, or scipy silently ignores the extras; the
    smoothing and the fit's rms are finite and nonnegative, as a fit
    writes them."""
    with pytest.raises(ValueError) as info:
        cd.SplineBoundary(1, **{**CURVE, **fields})
    assert str(info.value).startswith(f"boundary curve for corner 1{message}")
    assert "\n" not in str(info.value)


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


#: Largest difference, in units in the last place, between the piece
#: table's Horner evaluation and de Boor's recursion inside the knot span.
INTERIOR_ULPS = 8


def _ulps(a, b):
    """Distance of positive doubles in units in the last place."""
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


def test_evaluate_boundary_matches_a_fresh_spline(reference_curves):
    """Each piece is its segment's Taylor expansion at the left knot: row d
    is, bit for bit, a fresh spline's d-th derivative at the left knots over
    d!.  So evaluation equals the fresh spline bit for bit at every knot,
    and beyond each end knot equals the line through the end value with the
    end slope; inside the span, Horner's rule stays within INTERIOR_ULPS of
    de Boor's recursion.  Scalar and array evaluation agree bit for bit."""
    from scipy.interpolate import BSpline

    for sb, _ in reference_curves:
        spl = BSpline(B._full_knots(sb.knots), sb.coefficients, 3)
        lefts = sb.knots[:-1]
        for d in range(4):
            row = (spl.derivative(d) if d else spl)(lefts) / math.factorial(d)
            assert _same_bits(sb._pieces[1 + d, 1:-1], row)
        assert _same_bits(B.evaluate_boundary(sb, sb.knots), spl(sb.knots))
        slope = spl.derivative(1)
        lo, hi = sb.knots[0], sb.knots[-1]
        x = _overshooting_angles(sb)
        got = B.evaluate_boundary(sb, x)
        left, right = x < lo, x > hi
        assert left.any() and right.any()
        assert _same_bits(got[left], spl(lo) + slope(lo) * (x[left] - lo))
        assert _same_bits(got[right], spl(hi) + slope(hi) * (x[right] - hi))
        inside = ~(left | right)
        assert _ulps(got[inside], spl(x[inside])).max() <= INTERIOR_ULPS
        for k in range(0, x.size, 50):
            one = B.evaluate_boundary(sb, float(x[k]))
            assert type(one) is float and _same_bits(one, got[k])


def test_decisions_match_a_fresh_spline_rule(reference_curves, grid200):
    """fast_member_many announces what the same rule announces with a fresh
    spline, continued linearly past the end knots, as the boundary: on
    every Q=200 node and 2e5 Dirichlet(0.5) posteriors, no decision flips."""
    from scipy.interpolate import BSpline

    def reference(spec, curves, pis):
        cheapest = _announce(h_values_many(spec, pis), True)
        stop = np.zeros(pis.shape[0], dtype=bool)
        for sb in curves.values():
            rows = cheapest == sb.corner
            r, x = B._polar(pis[rows], sb.corner)
            spl = BSpline(B._full_knots(sb.knots), sb.coefficients, 3)
            lo, hi = sb.knots[0], sb.knots[-1]
            g = spl(np.clip(x, lo, hi))
            g = np.where(x < lo, spl(lo) + spl.derivative(1)(lo) * (x - lo), g)
            g = np.where(x > hi, spl(hi) + spl.derivative(1)(hi) * (x - hi), g)
            stop[rows] = (r <= g) | (r <= 0.0)
        return cheapest * stop

    rng = np.random.default_rng(2024)
    pis = np.vstack([grid200.nodes, rng.dirichlet(np.full(3, 0.5), 200_000)])
    specs = [instances.FIGURES["merged"], instances.two_type(10, 10, 3, 3, 0.05)]
    for spec, pair in zip(specs, (reference_curves[:2], reference_curves[2:])):
        curves = {sb.corner: sb for sb, _ in pair}
        got = B.fast_member_many(spec, curves, pis)
        assert np.array_equal(got, reference(spec, curves, pis))
        assert 0 < np.count_nonzero(got) < pis.shape[0]


def test_end_values_and_slopes_match_a_fresh_spline(reference_curves):
    """The linear extension starts from a fresh spline's value and first
    derivative at each end knot, bit for bit."""
    from scipy.interpolate import BSpline

    for sb, _ in reference_curves:
        spl = BSpline(B._full_knots(sb.knots), sb.coefficients, 3)
        ends = sb.knots[[0, -1]]
        values, slopes = sb._pieces[1:3, [0, -1]]
        assert _same_bits(values, spl(ends))
        assert _same_bits(slopes, spl.derivative(1)(ends))


def test_is_concave_takes_second_differences_of_the_evaluated_curve(reference_curves, monkeypatch):
    """is_concave sees the curve's values at the knots exactly as
    evaluate_boundary gives them: it flips at the largest second difference
    of those values and not an ulp away."""
    for sb, _ in reference_curves:
        g = B.evaluate_boundary(sb, sb.knots)
        t = B._full_knots(sb.knots)
        assert _same_bits(B._bspline(t, sb.coefficients, 3, sb.knots), g)
        top = (g[2:] - 2.0 * g[1:-1] + g[:-2]).max()
        monkeypatch.setattr(B, "_CONCAVE_EPS", top)
        assert B.is_concave(sb) is True
        monkeypatch.setattr(B, "_CONCAVE_EPS", np.nextafter(top, -np.inf))
        assert B.is_concave(sb) is False
