import dataclasses
import inspect
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import changediag as cd
from changediag.model import SpecValidationError, sa_to_dict, spec_from_dict, spec_to_dict

import instances
import oracles


def test_figure_spec_validates():
    cd.validate(instances.FIGURES["merged"])


def test_diagonal_cost_rejected():
    spec = instances.FIGURES["merged"]
    a = spec.a.copy()
    a[1, 0] = 5.0
    with pytest.raises(SpecValidationError, match="diagonal isolation cost"):
        cd.ProblemSpec(spec.p0, spec.p, spec.nu, spec.f, spec.c, a)


def test_unnormalized_density_rejected():
    spec = instances.FIGURES["merged"]
    f = spec.f.copy()
    f[1] *= 0.9
    with pytest.raises(SpecValidationError, match="row 1 not normalized"):
        cd.ProblemSpec(spec.p0, spec.p, spec.nu, f, spec.c, spec.a)


@pytest.mark.parametrize(
    "field,value,match",
    [
        ("p", 0.0, "p"),
        ("p", 1.0, "p"),
        ("p0", -0.1, "p0"),
        ("c", 0.0, "c"),
    ],
)
def test_scalar_bounds_rejected(field, value, match):
    spec = instances.FIGURES["merged"]
    kwargs = dict(p0=spec.p0, p=spec.p, nu=spec.nu, f=spec.f, c=spec.c, a=spec.a)
    kwargs[field] = value
    with pytest.raises(SpecValidationError, match=match):
        cd.ProblemSpec(**kwargs)


@pytest.mark.parametrize(
    "field,index,value,message",
    [
        ("c", None, math.nan, "c=nan is not finite"),
        ("c", None, math.inf, "c=inf is not finite"),
        ("p0", None, math.nan, "p0=nan is not finite"),
        ("p", None, math.nan, "p=nan is not finite"),
        ("a", (1, 1), math.nan, "a[1][1]=nan is not finite"),
        ("a", (0, 1), math.inf, "a[0][1]=inf is not finite"),
        ("f", (2, 0), math.nan, "f[2][0]=nan is not finite"),
        ("nu", (1,), math.nan, "nu[1]=nan is not finite"),
    ],
    ids=["c-nan", "c-inf", "p0-nan", "p-nan", "a-nan", "a-inf", "f-nan", "nu-nan"],
)
def test_non_finite_field_rejected(field, index, value, message):
    """NaN fails every comparison, so a range or sign check alone lets it
    through; each field is refused with one line naming it."""
    doc = spec_to_dict(instances.FIGURES["merged"])
    key = {"c": "delay_cost", "a": "terminal_costs", "f": "densities"}.get(field, field)
    if index is None:
        doc[key] = value
    else:
        target = doc[key]
        for i in index[:-1]:
            target = target[i]
        target[index[-1]] = value
    with pytest.raises(SpecValidationError) as info:
        spec_from_dict(doc)
    assert str(info.value) == message


def test_zero_nu_entry_rejected():
    spec = instances.FIGURES["merged"]
    with pytest.raises(SpecValidationError):
        cd.ProblemSpec(spec.p0, spec.p, np.array([1.0, 0.0]), spec.f, spec.c, spec.a)


def test_spec_with_a_density_row_summing_past_one_cannot_be_built():
    """An invalid spec never exists, so no kernel can be handed one: built
    directly or read from a document, it fails at construction with the
    validator's own message."""
    spec = instances.FIGURES["merged"]
    f = spec.f.copy()
    f[2] *= 1.5
    with pytest.raises(SpecValidationError, match="row 2 not normalized: sums to 1.5"):
        cd.ProblemSpec(spec.p0, spec.p, spec.nu, f, spec.c, spec.a)
    doc = {**spec_to_dict(spec), "densities": f.tolist()}
    with pytest.raises(SpecValidationError) as info:
        spec_from_dict(doc)
    assert str(info.value) == "density row 2 not normalized: sums to 1.5"


def test_invalid_suspended_animation_system_cannot_be_built(tmp_path):
    sa = instances.sa_two_component(cd.phi_min_index(2))
    with pytest.raises(SpecValidationError, match="component 2 failure probability 1.5"):
        cd.SuspendedAnimationSpec((0.1, 1.5), sa.phi, sa.label_densities)
    doc = {**sa_to_dict(sa), "component_failure_probs": [0.1, 1.5]}
    path = tmp_path / "sa.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecValidationError) as info:
        cd.load_sa_spec(str(path))
    assert str(info.value) == "component 2 failure probability 1.5 outside (0, 1)"


@pytest.mark.parametrize(
    "doc,message",
    [
        ([1], "system document must be a JSON object"),
        ("abc", "system document must be a JSON object"),
        ({"component_failure_probs": [0.1], "phi": [1],
          "label_densities": [[0.5, 0.5], [0.2, 0.8]]},
         "malformed system document: "),
        ({"component_failure_probs": [0.1], "phi": [{"subset": [1], "label": "x"}],
          "label_densities": [[0.5, 0.5], [0.2, 0.8]]},
         "malformed system document: "),
    ],
    ids=["list", "string", "phi-entry-int", "phi-label-text"],
)
def test_malformed_system_document_rejected(tmp_path, doc, message):
    path = tmp_path / "sa.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(SpecValidationError, match=message):
        cd.load_sa_spec(str(path))


def test_theta_prior_values():
    spec = instances.shiryaev_binary()
    assert spec.p0 == 0.02
    assert cd.theta_prior(spec, 0) == 0.02
    assert cd.theta_prior(spec, 1) == pytest.approx(0.98 * 0.05, abs=1e-15)
    assert cd.theta_prior(spec, np.int64(3)) == cd.theta_prior(spec, 3)


def test_theta_prior_immediate_change():
    spec = instances.hypothesis_testing_two_type()
    assert cd.theta_prior(spec, 0) == 1.0
    for t in (1, 2, 10):
        assert cd.theta_prior(spec, t) == 0.0


def test_theta_prior_sums_to_one():
    spec = instances.shiryaev_binary()
    total = math.fsum(cd.theta_prior(spec, t) for t in range(10_001))
    tail = (1 - spec.p0) * (1 - spec.p) ** 10_000
    assert abs(total - 1.0) <= tail + 1e-12


@given(p0=st.floats(0.0, 1.0), p=st.floats(0.01, 0.99), horizon=st.integers(1, 200))
@settings(max_examples=50, deadline=None)
def test_theta_prior_tail_bound(p0, p, horizon):
    spec = cd.make_shiryaev(p0, p, [1.0], [[0.5, 0.5], [0.1, 0.9]], 1.0)
    total = math.fsum(cd.theta_prior(spec, t) for t in range(horizon + 1))
    tail = (1 - p0) * (1 - p) ** horizon
    assert total == pytest.approx(1.0 - tail, abs=1e-12)


def test_make_shiryaev_costs():
    spec = instances.shiryaev_binary()
    assert spec.a.tolist() == [[1.0], [0.0]]
    cd.validate(spec)


def test_make_shiryaev_two_types():
    f = [[0.5, 0.5], [0.2, 0.8], [0.2, 0.8]]
    spec = cd.make_shiryaev(0.1, 0.1, [0.5, 0.5], f, 2.0)
    assert spec.a.tolist() == [[1.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
    cd.validate(spec)


def test_make_hypothesis_testing_prior():
    spec = instances.hypothesis_testing_two_type()
    assert spec.p0 == 1.0
    pi0 = cd.initial_posterior(spec)
    assert pi0.tolist() == [0.0, 0.5, 0.5]


def test_derive_min_index_two_components():
    spec = cd.derive_suspended_animation(
        instances.sa_two_component(cd.phi_min_index(2)), 1.0, [[10, 10], [0, 3], [3, 0]]
    )
    assert spec.p0 == 0.0
    assert spec.p == pytest.approx(0.19, abs=1e-15)
    assert spec.nu[0] == pytest.approx(0.10 / 0.19, rel=1e-12)
    assert spec.nu[1] == pytest.approx(0.09 / 0.19, rel=1e-12)
    # with the min-index labeling the first label also satisfies nu_1 = p_1 / p
    assert spec.nu[0] == pytest.approx(0.1 / spec.p, rel=1e-12)
    cd.validate(spec)


def test_derive_cardinality_two_components():
    spec = cd.derive_suspended_animation(
        instances.sa_two_component(cd.phi_cardinality(2)), 1.0, [[10, 10], [0, 3], [3, 0]]
    )
    p1 = p2 = 0.1
    assert spec.nu[0] == pytest.approx((p1 * (1 - p2) + p2 * (1 - p1)) / spec.p, rel=1e-12)
    assert spec.nu[1] == pytest.approx(p1 * p2 / spec.p, rel=1e-12)


def test_derive_single_component():
    sa = cd.SuspendedAnimationSpec(
        (0.3,), {frozenset({1}): 1},
        np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1]]),
    )
    spec = cd.derive_suspended_animation(sa, 1.0, [[5.0], [0.0]])
    assert spec.p == pytest.approx(0.3, abs=1e-15)
    assert spec.nu[0] == pytest.approx(1.0, abs=1e-15)


def test_derive_matches_enumeration():
    sa = instances.sa_two_component(cd.phi_cardinality(2))
    spec = cd.derive_suspended_animation(sa, 1.0, [[10, 10], [0, 3], [3, 0]])
    law = oracles.sa_joint_law((0.1, 0.1), cd.phi_cardinality(2), 200)
    nu_hat = law.sum(axis=0) / law.sum()
    assert np.allclose(nu_hat, spec.nu, atol=1e-12)
    t_marginal = law.sum(axis=1)
    expected = [cd.theta_prior(spec, t) for t in range(1, 201)]
    assert np.allclose(t_marginal, expected, atol=(1 - spec.p) ** 200 + 1e-12)


def test_derive_rejects_unused_label():
    f = np.array([[0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1], [0.1, 0.2, 0.3, 0.4]])
    phi = {frozenset({1}): 1, frozenset({2}): 2}
    # the system is refused when it is built, before it can reach derive
    with pytest.raises(SpecValidationError, match="no label"):
        cd.SuspendedAnimationSpec((0.1, 0.1), phi, f)


def test_phi_constructors():
    assert cd.phi_min_index(2) == {
        frozenset({1}): 1, frozenset({2}): 2, frozenset({1, 2}): 1,
    }
    assert cd.phi_cardinality(2) == {
        frozenset({1}): 1, frozenset({2}): 1, frozenset({1, 2}): 2,
    }
    assert cd.phi_binary(2) == {
        frozenset({1}): 1, frozenset({2}): 2, frozenset({1, 2}): 3,
    }
    # every nonempty subset of {1..3} gets a label
    for phi in (cd.phi_min_index(3), cd.phi_cardinality(3), cd.phi_binary(3)):
        assert len(phi) == 7


def test_spec_json_round_trip(tmp_path):
    spec = instances.FIGURES["asym_split"]
    path = str(tmp_path / "spec.json")
    cd.save_spec(spec, path)
    with open(path) as fh:
        doc = json.load(fh)
    assert sorted(doc) == ["alphabet_size", "delay_cost", "densities", "nu",
                           "num_types", "p", "p0", "terminal_costs"]
    back = cd.load_spec(path)
    assert back.alphabet_size == spec.alphabet_size
    assert back.num_types == spec.num_types
    assert back.p0 == spec.p0 and back.p == spec.p and back.c == spec.c
    assert np.array_equal(back.nu, spec.nu)
    assert np.array_equal(back.f, spec.f)
    assert np.array_equal(back.a, spec.a)


def test_spec_json_paths(tmp_path):
    spec = instances.shiryaev_binary()
    path = tmp_path / "spec.json"
    cd.save_spec(spec, str(path))
    assert cd.load_spec(str(path)).a.tolist() == [[1.0], [0.0]]


def test_spec_dict_round_trip_preserves_floats():
    spec = instances.FIGURES["split_skew"]
    again = spec_from_dict(spec_to_dict(spec))
    assert again.p == spec.p and np.array_equal(again.a, spec.a)


def test_sa_json_round_trip(tmp_path):
    sa = instances.sa_two_component(cd.phi_min_index(2))
    path = tmp_path / "sa.json"
    cd.save_sa_spec(sa, str(path))
    back = cd.load_sa_spec(str(path))
    assert back.component_failure_probs == sa.component_failure_probs
    assert dict(back.phi) == dict(sa.phi)
    assert np.array_equal(back.label_densities, sa.label_densities)


def test_spec_equality_compares_every_field(tmp_path):
    """Two loads of one file are equal (and hash alike); changing any one
    field makes the specs differ."""
    path = str(tmp_path / "spec.json")
    cd.save_spec(instances.FIGURES["merged"], path)
    first, second = cd.load_spec(path), cd.load_spec(path)
    assert first == second and hash(first) == hash(second)
    assert first != "not a spec"
    doc = spec_to_dict(first)
    changed = {
        "p0": 0.03,
        "p": 0.06,
        "delay_cost": 2.0,
        "nu": [0.4, 0.6],
        "densities": [[0.25] * 4, [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]],
        "terminal_costs": [[10.0, 10.0], [0.0, 4.0], [3.0, 0.0]],
    }
    for key, value in changed.items():
        assert spec_from_dict({**doc, key: value}) != first, key


def test_json_writers_write_indented_newline_terminated_documents(tmp_path):
    """Every save function writes its document to a path as indented JSON
    ending in a newline."""
    sa = instances.sa_two_component(cd.phi_min_index(2))
    sb = cd.SplineBoundary(corner=1, knots=np.linspace(0.2, 1.0, 5),
                           coefficients=np.full(7, 0.3), lam=0.5, rms=0.01)
    cases = [
        (cd.save_spec, instances.FIGURES["merged"]),
        (cd.save_sa_spec, sa),
        (cd.save_boundary, sb),
        (cd.save_boundaries, [sb]),
    ]
    for save, obj in cases:
        path = tmp_path / "doc.json"
        save(obj, str(path))
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", save.__name__


def test_sizes_are_read_off_the_densities():
    """``alphabet_size`` and ``num_types`` are the shape of ``f``, not
    constructor arguments; replacing ``f`` reads them again."""
    expected = {
        "merged": (instances.FIGURES["merged"], 4, 2),
        "three_type": (instances.three_type(), 4, 3),
        "shiryaev_binary": (instances.shiryaev_binary(), 2, 1),
        "hypothesis_testing": (instances.hypothesis_testing_two_type(), 4, 2),
        "sa_three_component": (instances.sa_three_component(), 4, 7),
    }
    for name, (spec, A, M) in expected.items():
        assert (spec.alphabet_size, spec.num_types) == (A, M), name
    wider = dataclasses.replace(instances.shiryaev_binary(),
                                f=[[0.5, 0.25, 0.25], [0.25, 0.25, 0.5]])
    assert (wider.alphabet_size, wider.num_types) == (3, 1)
    assert list(inspect.signature(cd.ProblemSpec).parameters) == ["p0", "p", "nu", "f", "c", "a"]
    with pytest.raises(ValueError, match="num_types"):
        dataclasses.replace(instances.shiryaev_binary(), num_types=1)


def test_make_hypothesis_testing_fixes_p():
    spec = cd.make_hypothesis_testing([0.5, 0.5], instances.TWO_TYPE_F, 1.0,
                                      [[10, 10], [0, 3], [3, 0]])
    assert spec == instances.hypothesis_testing_two_type()


def _merged(**fields):
    return dataclasses.replace(instances.FIGURES["merged"], **fields)


def _sa(probs, phi, rows=3):
    return cd.SuspendedAnimationSpec(probs, phi, np.full((rows, 4), 0.25))


_ONE, _TWO, _BOTH = frozenset({1}), frozenset({2}), frozenset({1, 2})
_SEVEN_TYPE_COSTS = np.ones((8, 7)) - np.eye(8, 7, -1)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: _merged(f=[0.25] * 4),
         "f has shape (1, 4), expected (M+1, alphabet_size) with M >= 1 types and at "
         "least one symbol"),
        (lambda: _merged(f=np.zeros((3, 0))),
         "f has shape (3, 0), expected (M+1, alphabet_size) with M >= 1 types and at "
         "least one symbol"),
        (lambda: _merged(f=np.full((3, 2, 2), 0.25)),
         "f has shape (3, 2, 2), expected (M+1, alphabet_size) with M >= 1 types and at "
         "least one symbol"),
        (lambda: _merged(nu=[0.2, 0.3, 0.5]), "nu has shape (3,), expected (2,)"),
        (lambda: _merged(nu=[1.5, -0.5]), "nu[1]=-0.5 must be strictly positive"),
        (lambda: _merged(nu=[0.5, 0.6]), "nu sums to 1.1, not 1 within 1e-12"),
        (lambda: _merged(f=[[0.25] * 4, [0.5, 0.6, -0.2, 0.1], [0.25] * 4]),
         "f[1][2]=-0.2 is negative"),
        (lambda: _merged(a=[[10, 10], [0, 3]]), "a has shape (2, 2), expected (3, 2)"),
        (lambda: _merged(a=[[10, -1], [0, 3], [3, 0]]), "a[0][1]=-1.0 is negative"),
        (lambda: spec_from_dict({**spec_to_dict(_merged()), "num_types": 3}),
         "model document has num_types=3, but its densities give 2"),
        (lambda: spec_from_dict({**spec_to_dict(_merged()), "alphabet_size": 5}),
         "model document has alphabet_size=5, but its densities give 4"),
        (lambda: cd.theta_prior(_merged(), -1), "change time t=-1 must be nonnegative"),
        (lambda: cd.theta_prior(_merged(), 2.5), "t=2.5 must be an integer"),
        (lambda: cd.theta_prior(_merged(), True), "t=True must be an integer"),
        (lambda: _sa((), {}), "at least one component required"),
        (lambda: _sa((0.1,), {_ONE: 1, _TWO: 1}), "phi labels 1 subsets outside 1..1, e.g. [2]"),
        (lambda: _sa((0.1, 0.1), {_ONE: 1, _TWO: 3, _BOTH: 3}),
         "labels must cover 1..3 with every label used; unused: [2]"),
        (lambda: _sa((0.1,), {_ONE: 0}, rows=2), "phi labels subset [1] with 0; labels start at 1"),
        (lambda: _sa((0.1, 0.1), {_ONE: 1, _TWO: 0, _BOTH: 2}),
         "phi labels subset [2] with 0; labels start at 1"),
        (lambda: _sa((0.1, 0.1), cd.phi_min_index(2), rows=2),
         "label_densities has 2 rows, expected 3 (pre-failure row plus one per label)"),
        # the joint failure of the two rare components underflows to weight 0
        (lambda: cd.derive_suspended_animation(
            _sa((1e-200, 1e-200, 0.5), cd.phi_binary(3), rows=8), 1.0, _SEVEN_TYPE_COSTS),
         "derived type weight for label 3 is zero (label unreachable)"),
    ],
    ids=["f-one-row", "f-no-symbol", "f-3-d", "nu-shape", "nu-negative", "nu-sum",
         "f-negative", "a-shape", "a-negative", "document-num-types",
         "document-alphabet-size", "theta-prior-negative-t", "theta-prior-fractional-t",
         "theta-prior-boolean-t", "sa-no-component", "sa-phi-outside", "sa-label-unused",
         "sa-label-zero", "sa-label-zero-among-three", "sa-density-rows",
         "sa-unreachable-label"],
)
def test_model_refusals_are_one_line(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
