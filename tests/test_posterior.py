import numpy as np
import pytest

import changediag as cd
from changediag.posterior import (
    ImpossibleObservation, _announce, _row_min, h_values_many
)

import instances
import oracles


def figure_spec():
    return instances.FIGURES["merged"]


def test_initial_posterior_figure():
    assert cd.initial_posterior(figure_spec()).tolist() == [0.98, 0.01, 0.01]


def test_initial_posterior_certain_no_change():
    spec = cd.make_shiryaev(0.0, 0.05, [1.0], [[0.75, 0.25], [0.25, 0.75]], 1.0)
    assert cd.initial_posterior(spec).tolist() == [1.0, 0.0]


def test_initial_posterior_immediate_change():
    spec = cd.make_hypothesis_testing(
        [1 / 3, 1 / 3, 1 / 3],
        np.vstack([instances.TWO_TYPE_F, [[0.1, 0.1, 0.4, 0.4]]]),
        1.0,
        [[1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
    )
    pi0 = cd.initial_posterior(spec)
    assert pi0[0] == 0.0
    assert np.allclose(pi0[1:], 1 / 3, atol=1e-15)


def test_d_vector_figure_example():
    d = cd.d_vector(figure_spec(), np.array([0.98, 0.01, 0.01]), 0)
    assert d == pytest.approx([0.23275, 0.0138, 0.00345, 0.25], abs=1e-15)
    assert d[-1] == pytest.approx(d[:-1].sum(), abs=1e-15)
    assert (d >= 0).all()


def test_d_vector_type_corner():
    spec = figure_spec()
    for j, x in [(1, 0), (2, 3)]:
        pi = np.zeros(3)
        pi[j] = 1.0
        d = cd.d_vector(spec, pi, x)
        assert d[0] == 0.0
        assert d[j] == spec.f[j, x]
        assert d[3 - j] == 0.0


def test_d_vector_no_change_corner():
    spec = figure_spec()
    e0 = np.array([1.0, 0.0, 0.0])
    for x in range(4):
        d = cd.d_vector(spec, e0, x)
        assert d[0] == pytest.approx((1 - spec.p) * spec.f[0, x], abs=1e-15)
        for i in (1, 2):
            assert d[i] == pytest.approx(spec.p * spec.nu[i - 1] * spec.f[i, x], abs=1e-15)


def test_update_figure_example():
    pi = cd.update(figure_spec(), np.array([0.98, 0.01, 0.01]), 0)
    assert pi == pytest.approx([0.931, 0.0552, 0.0138], abs=1e-12)


def test_update_corner_absorbing():
    spec = figure_spec()
    e1 = np.array([0.0, 1.0, 0.0])
    pi = e1
    for x in (0, 1, 2, 3, 0):
        pi = cd.update(spec, pi, x)
    assert np.array_equal(pi, e1)


def test_update_keeps_pi0_at_zero():
    spec = instances.hypothesis_testing_two_type()
    pi = cd.initial_posterior(spec)
    rng = np.random.default_rng(7)
    for x in rng.integers(0, 4, size=200):
        pi = cd.update(spec, pi, int(x))
        assert pi[0] == 0.0


def test_impossible_observation():
    spec = cd.ProblemSpec(
        p0=0.0, p=0.1,
        nu=np.array([1.0]), f=np.array([[0.5, 0.5], [1.0, 0.0]]),
        c=1.0, a=np.array([[1.0], [0.0]]),
    )
    with pytest.raises(ImpossibleObservation):
        cd.update(spec, np.array([0.0, 1.0]), 1)


@pytest.mark.parametrize(
    "step,message",
    [
        (lambda spec: cd.update(spec, np.array([0.0, 1.0]), 1),
         "symbol 1 has zero likelihood at posterior [0.0, 1.0]"),
        (lambda spec: cd.update_many(spec, np.array([[0.5, 0.5], [0.0, 1.0]]), np.array([1, 1])),
         "symbol 1 has zero likelihood at posterior [0.0, 1.0] (row 1)"),
    ],
    ids=["update", "update-many"],
)
def test_impossible_observation_is_one_line(step, message):
    """Symbol 1 cannot follow a change of the one type, whose density never
    emits it; the batch names the first row where it arrives."""
    spec = cd.ProblemSpec(
        p0=0.0, p=0.1,
        nu=np.array([1.0]), f=np.array([[0.5, 0.5], [1.0, 0.0]]),
        c=1.0, a=np.array([[1.0], [0.0]]),
    )
    with pytest.raises(ImpossibleObservation) as info:
        step(spec)
    assert str(info.value) == message


@pytest.mark.parametrize("x", [-1, 4, 1.0, True, np.int64(-2)])
def test_update_refuses_a_symbol_outside_the_alphabet(x):
    """A negative symbol used to read the density column from the end of the
    alphabet, and the others ended in numpy IndexErrors."""
    spec = figure_spec()
    pi = cd.initial_posterior(spec)
    with pytest.raises(ValueError, match=rf"^symbol {x} outside alphabet 0\.\.3$"):
        cd.update(spec, pi, x)
    pis = np.tile(pi, (3, 1))
    xs = np.array([0, 1, x], dtype=np.asarray(x).dtype)
    row = 2 if xs.dtype.kind in "iu" else 0
    with pytest.raises(ValueError, match=rf"^symbol {xs[row]} outside alphabet 0\.\.3 \(row {row}\)$"):
        cd.update_many(spec, pis, xs)


def test_predictive_corners():
    spec = figure_spec()
    e0 = np.array([1.0, 0.0, 0.0])
    want = (1 - spec.p) * spec.f[0] + spec.p * (spec.nu[:, None] * spec.f[1:]).sum(axis=0)
    assert cd.predictive(spec, e0) == pytest.approx(want, abs=1e-15)
    for j in (1, 2):
        pi = np.zeros(3)
        pi[j] = 1.0
        assert cd.predictive(spec, pi) == pytest.approx(spec.f[j], abs=1e-15)


def test_predictive_normalized_at_random_points():
    spec = figure_spec()
    rng = np.random.default_rng(11)
    for _ in range(100):
        pi = rng.dirichlet(np.ones(3))
        assert cd.predictive(spec, pi).sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(instances.FIGURES))
def test_one_step_martingale_identities(name):
    spec = instances.FIGURES[name]
    rng = np.random.default_rng(29)
    for _ in range(50):
        pi = rng.dirichlet(np.full(3, 0.7))
        d = np.stack([cd.d_vector(spec, pi, x) for x in range(4)])
        assert d[:, 0].sum() == pytest.approx((1 - spec.p) * pi[0], abs=1e-14)
        for i in (1, 2):
            assert d[:, i].sum() == pytest.approx(
                pi[i] + pi[0] * spec.p * spec.nu[i - 1], abs=1e-14
            )


def test_no_change_mass_mean_shrinks_geometrically():
    """Pushing the exact path distribution forward keeps E[pi_0] on the
    geometric schedule (1-p0)(1-p)^n."""
    spec = figure_spec()
    atoms = [(cd.initial_posterior(spec), 1.0)]
    for n in range(1, 6):
        nxt = []
        for pi, prob in atoms:
            pred = cd.predictive(spec, pi)
            for x in range(4):
                nxt.append((cd.update(spec, pi, x), prob * pred[x]))
        atoms = nxt
        mean0 = sum(prob * pi[0] for pi, prob in atoms)
        assert mean0 == pytest.approx((1 - spec.p0) * (1 - spec.p) ** n, abs=1e-12)


def test_update_equals_normalized_d_vector():
    spec = figure_spec()
    rng = np.random.default_rng(3)
    for _ in range(25):
        pi = rng.dirichlet(np.ones(3))
        x = int(rng.integers(4))
        d = cd.d_vector(spec, pi, x)
        assert cd.update(spec, pi, x) == pytest.approx(d[:-1] / d[:-1].sum(), abs=1e-15)


def test_normalization_survives_a_million_updates():
    spec = figure_spec()
    rng = np.random.default_rng(123)
    xs = rng.integers(0, 4, size=1_000_000)
    pi = cd.initial_posterior(spec)
    for x in xs:
        pi = cd.update(spec, pi, x)
    assert abs(pi.sum() - 1.0) <= 1e-9
    assert (pi >= 0).all()


def test_h_costs_corners():
    spec = figure_spec()
    for j in (1, 2):
        pi = np.zeros(3)
        pi[j] = 1.0
        h_vals, h, col = cd.h_costs(spec, pi)
        assert h_vals[j - 1] == 0.0
        assert h == 0.0
        assert col == j - 1


def test_h_costs_shiryaev_false_alarm():
    spec = instances.shiryaev_binary()
    h_vals, h, col = cd.h_costs(spec, np.array([1.0, 0.0]))
    assert h_vals.tolist() == [1.0]
    assert h == 1.0 and col == 0


def test_h_costs_tie_breaks_to_smallest_index():
    spec = figure_spec()
    h_vals, h, col = cd.h_costs(spec, np.array([0.5, 0.25, 0.25]))
    assert h_vals[0] == h_vals[1]
    assert col == 0


def test_h_difference_crosses_where_expected():
    """For the skewed-cost instance h_1 = 10 pi_0 + 4 pi_2 and
    h_2 = 10 pi_0 + 16 pi_1 meet exactly where pi_2 = 4 pi_1."""
    spec = instances.FIGURES["split_skew"]
    pi0 = 0.2
    ts = np.linspace(0.0, 0.8, 81)
    diffs = []
    for t in ts:
        pi = np.array([pi0, t, 0.8 - t])
        h_vals, _, _ = cd.h_costs(spec, pi)
        diffs.append(h_vals[0] - h_vals[1])
    diffs = np.asarray(diffs)
    crossing = 0.8 / 5  # pi_1 value where pi_2 = 4 pi_1 on this row
    assert (diffs[ts < crossing] > 0).all()
    assert (diffs[ts > crossing] < 0).all()


def test_h_values_many_matches_scalar():
    spec = figure_spec()
    rng = np.random.default_rng(17)
    pis = rng.dirichlet(np.ones(3), size=40)
    batch = h_values_many(spec, pis)
    for row, pi in zip(batch, pis):
        h_vals, _, _ = cd.h_costs(spec, pi)
        assert row == pytest.approx(h_vals, abs=0)


def test_update_many_matches_scalar():
    """The batched and scalar updates, the numerators and the predictive
    law agree bit for bit with the recursion written out term by term,
    (1-p)*pi_0*f_0(x) and (pi_i + pi_0*p*nu_i)*f_i(x), for M = 1, 2, 3."""
    for spec in (instances.shiryaev_binary(), figure_spec(), instances.three_type()):
        M = spec.num_types
        rng = np.random.default_rng(5)
        pis = rng.dirichlet(np.ones(M + 1), size=60)
        pis[: M + 1] = np.eye(M + 1)
        xs = rng.integers(0, spec.alphabet_size, size=60)
        batch = cd.update_many(spec, pis, xs)
        for out, pi, x in zip(batch, pis, xs):
            weights = np.concatenate(
                [[(1.0 - spec.p) * pi[0]], pi[1:] + pi[0] * spec.p * spec.nu]
            )
            num = weights * spec.f[:, x]
            d = cd.d_vector(spec, pi, int(x))
            assert np.array_equal(d, np.append(num, num.sum()))
            assert np.array_equal(cd.predictive(spec, pi), weights @ spec.f)
            want = num / num.sum()
            want /= want.sum()
            assert np.array_equal(cd.update(spec, pi, int(x)), want)
            assert np.array_equal(out, want)


def test_update_many_matches_scalar_on_eight_coordinates():
    """Rows of eight coordinates are summed pairwise by numpy, in the
    scalar update and in the batch alike: seven types, C- and F-ordered."""
    spec = instances.sa_three_component()
    rng = np.random.default_rng(8)
    pis = rng.dirichlet(np.full(8, 0.5), size=200)
    xs = rng.integers(0, spec.alphabet_size, size=200)
    for batch in (cd.update_many(spec, pis, xs), cd.update_many(spec, np.asfortranarray(pis), xs)):
        for out, pi, x in zip(batch, pis, xs):
            assert out.tobytes() == cd.update(spec, pi, int(x)).tobytes()


def signed_rows(rng, n, width):
    """Rows of small integers at several scales, with ties, +0.0 and -0.0,
    and rows of only +0.0 and of only -0.0."""
    x = rng.integers(-3, 4, (n, width)) * 10.0 ** rng.integers(-12, 12, (n, width))
    x[rng.random(x.shape) < 0.3] = -0.0
    x[0], x[1] = 0.0, -0.0
    return x


@pytest.mark.parametrize("width", list(range(2, 18)) + [71])
def test_update_many_is_the_row_major_update_bit_for_bit(width):
    """The batch update equals the form that reduces each C-ordered row
    with one numpy call (pairwise from eight coordinates up), for batches
    laid out by rows or by columns."""
    M = width - 1
    rng = np.random.default_rng(width)
    a = np.ones((width, M))
    a[np.arange(1, width), np.arange(M)] = 0.0
    spec = cd.ProblemSpec(
        p0=0.1, p=0.2, nu=np.full(M, 1.0 / M),
        f=rng.dirichlet(np.ones(5), size=width), c=1.0, a=a,
    )
    pis = rng.dirichlet(np.full(width, 0.5), size=500)
    xs = rng.integers(0, 5, size=500)
    want = pis * np.r_[1.0 - spec.p, np.ones(M)]
    want[:, 1:] += pis[:, :1] * spec.p * spec.nu
    want *= spec.f.T[xs]
    want /= np.add.reduce(want, axis=1, keepdims=True)
    want /= np.add.reduce(want, axis=1, keepdims=True)
    for batch in (pis, np.asfortranarray(pis)):
        assert cd.update_many(spec, batch, xs).tobytes() == want.tobytes()


@pytest.mark.parametrize("width", range(1, 18))
def test_row_min_is_numpy_minimum_reduce(width):
    """Bit for bit up to eight columns; beyond, numpy's vectorized
    reduction may pick the other zero of a +0.0/-0.0 tie, so the values
    are compared."""
    rng = np.random.default_rng(100 + width)
    x = signed_rows(rng, 3000, width)
    want = np.minimum.reduce(x, axis=1)
    for rows in (x, np.asfortranarray(x)):
        got = _row_min(rows)
        if width <= 8:
            assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, want)


def test_recursion_matches_joint_law_oracle():
    spec = figure_spec()
    rng = np.random.default_rng(41)
    for _ in range(20):
        path = [int(s) for s in rng.integers(0, 4, size=int(rng.integers(1, 7)))]
        pi = cd.initial_posterior(spec)
        prob = 1.0
        for x in path:
            prob *= cd.predictive(spec, pi)[x]
            pi = cd.update(spec, pi, x)
        assert pi == pytest.approx(oracles.path_posterior(spec, path), abs=1e-12)
        assert prob == pytest.approx(oracles.path_probability(spec, path), rel=1e-12)


def test_announce_names_the_cheapest_type_where_the_rule_stops():
    """1-based argmin of h where ``stop`` holds, the lower index on ties,
    0 elsewhere; int8 for a row mask and for a scalar alike."""
    h = np.array([[2.0, 1.0, 3.0], [1.0, 1.0, 0.5], [4.0, 4.0, 4.0], [0.0, 1.0, 0.0]])
    out = _announce(h, np.array([True, True, True, False]))
    assert out.dtype == np.int8 and out.tolist() == [2, 3, 1, 0]
    assert _announce(h, True).tolist() == [2, 3, 1, 1]
    assert _announce(h, False).tolist() == [0, 0, 0, 0]
    assert _announce(h, False).dtype == np.int8
