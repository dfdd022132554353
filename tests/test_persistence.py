"""JSON persistence: the writers' bytes are pinned, and every reader refuses
a malformed document with one ValueError that names it."""

import functools
import hashlib
import json
import math
import operator

import numpy as np
import pytest

import changediag as cd
from changediag.model import sa_to_dict, spec_to_dict

import instances


def curve(j):
    return cd.SplineBoundary(corner=j, knots=np.linspace(0.0, np.pi / 3, 5),
                             coefficients=np.linspace(0.2, 0.5, 7) * j,
                             lam=1e-3, rms=0.0125)


def small_table():
    grid = cd.build_grid(2, 6)
    return cd.ValueTable(grid=grid, values=np.linspace(0.0, 1.0, grid.n_nodes),
                         labels=(np.arange(grid.n_nodes) % 3).astype(np.int8),
                         iterations=21, sup_change=5e-5, error_bound=0.25, tol=1e-4)


def three_component_system():
    return cd.SuspendedAnimationSpec(
        (0.1, 0.2, 0.05), cd.phi_cardinality(3),
        [[0.4, 0.6], [0.3, 0.7], [0.2, 0.8], [0.1, 0.9]],
    )


# sha256 of each written file: the bytes are the file formats, so a writer
# that moves a byte fails here
GOLDEN = {
    "spec-merged": "fa65dfd14d00f163ec8cd6ac333adb6e0839cd4544894eec53581ebf57381e97",
    "spec-three": "714bfe719794f9259eb6bf6e17c8c3ae56ec94fe6cdb7eec9b1d5e69382c3447",
    "sa": "b94e03168e2f153ee06ed15b5260764f1319bd8a18d0c2397d9ff0d2f6ba4621",
    "boundary": "5035d784de63bd1c11d0f9d2f75f90e0203e749ea4721a9a30674f415208c204",
    "boundaries": "daee4f627c141d91ab11cddf524812f8945aade50c25c0f7ae61d48387c62359",
    "table": "1fc78ae1a51d831a0cffdc01703646474f660ea9889aa64b4ab453acf9f5e196",
    "table.json": "82f21d995f4bccee67dc78a062dff8eefc92f823154a31aa71635f2ffe754dca",
}

WRITERS = {
    "spec-merged": lambda p: cd.save_spec(instances.FIGURES["merged"], p),
    "spec-three": lambda p: cd.save_spec(instances.three_type(), p),
    "sa": lambda p: cd.save_sa_spec(three_component_system(), p),
    "boundary": lambda p: cd.save_boundary(curve(2), p),
    "boundaries": lambda p: cd.save_boundaries([curve(1), curve(2)], p),
    "table": lambda p: cd.save_table(small_table(), instances.FIGURES["merged"], p),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writers_keep_their_golden_bytes(tmp_path, name):
    WRITERS[name](str(tmp_path / name))
    for path in sorted(tmp_path.iterdir()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == GOLDEN[path.name], path.name


def _sidecar_doc(tmp_path):
    cd.save_table(small_table(), instances.FIGURES["merged"], str(tmp_path / "t.cdvt"))
    return json.loads((tmp_path / "t.cdvt.json").read_text())


def _curves_doc(tmp_path):
    cd.save_boundaries([curve(1), curve(2)], str(tmp_path / "b.json"))
    return json.loads((tmp_path / "b.json").read_text())


# reader -> (good document, its file name, load from that path, what the
# errors name, path to an integer field, path to a numeric array field, path
# to a one-number field).  A curve file is an array, so its second curve
# carries the cases; the sidecar's own fields carry its integer and
# one-number cases, its embedded model the array cases.
READERS = {
    "model": (lambda tmp: spec_to_dict(instances.FIGURES["merged"]), "m.json",
              cd.load_spec, "model document", ("num_types",), ("nu",), ("p0",)),
    "system": (lambda tmp: sa_to_dict(three_component_system()), "s.json",
               cd.load_sa_spec, "system document", ("phi", 1, "label"),
               ("label_densities",), ("component_failure_probs", 0)),
    "curves": (_curves_doc, "b.json", cd.load_boundaries, "boundary curve",
               (1, "corner"), (1, "knots"), (1, "lambda")),
    "sidecar": (_sidecar_doc, "t.cdvt.json", lambda p: cd.load_table(p[:-5])[1],
                "model document", ("Q",), ("model", "terminal_costs"), ("tol",)),
}

DELETE = object()

# case -> (which field, new value, expected message); the field None stands
# for the document itself (the second curve of a curve file)
CASES = {
    "not-an-object": (None, [1], "{what} must be a JSON object"),
    "missing-key": ("numeric", DELETE, "{what} missing key '{key}'"),
    "wrong-type": ("numeric", {"a": 1}, "malformed {what}: "),
    "fractional-integer": ("integer", 2.5, "malformed {what}: 2.5 is not an integer"),
    "boolean-integer": ("integer", True, "malformed {what}: True is not an integer"),
    "boolean-real": ("numeric", [[0.5, True]],
                     "malformed {what}: {key} holds True, not a number"),
    "list-for-one-number": ("scalar", [0.5],
                            "malformed {what}: {key} is [0.5], not one number"),
}


def _edited(doc, path, value):
    """``doc`` with the entry at ``path`` set to ``value`` or deleted; the
    empty path stands for the document itself."""
    box = [doc]
    *parents, last = (0, *path)
    parent = functools.reduce(operator.getitem, parents, box)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return box[0]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_refuses_a_malformed_document(tmp_path, reader, case):
    make, name, load, what, integer_path, numeric_path, scalar_path = READERS[reader]
    field, value, message = CASES[case]
    doc = make(tmp_path)
    if field is None:
        path = (1,) if reader == "curves" else ()
    else:
        path = {"integer": integer_path, "numeric": numeric_path,
                "scalar": scalar_path}[field]
    if reader == "sidecar" and path[:1] != ("model",):
        what = f"{tmp_path / name}: table sidecar"
    (tmp_path / name).write_text(json.dumps(_edited(doc, path, value)))
    with pytest.raises(ValueError) as info:
        load(str(tmp_path / name))
    got = str(info.value)
    key = next((k for k in reversed(path) if isinstance(k, str)), "")
    assert message.format(what=what, key=key) in got
    assert "\n" not in got


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_reads_an_integral_float_as_an_integer(tmp_path, reader):
    """2.0 reads as 2: the loaded object equals the one of the original."""
    make, name, load, _, integer_path, _, _ = READERS[reader]
    doc = make(tmp_path)
    (tmp_path / name).write_text(json.dumps(doc))
    want = load(str(tmp_path / name))
    value = functools.reduce(operator.getitem, integer_path, doc)
    assert type(value) is int
    (tmp_path / name).write_text(json.dumps(_edited(doc, integer_path, float(value))))
    got = load(str(tmp_path / name))
    if reader == "system":
        assert sa_to_dict(got) == sa_to_dict(want)
        integers = list(got.phi.values())
    elif reader == "curves":
        assert sorted(got) == [1, 2]
        integers = [got[2].corner]
    else:
        assert got == want
        integers = [got.num_types, got.alphabet_size]
    assert all(type(value) is int for value in integers)


def _refusal_of_sidecar(tmp_path, **fields):
    doc = {**_sidecar_doc(tmp_path), **fields}
    (tmp_path / "t.cdvt.json").write_text(json.dumps(doc))
    with pytest.raises(ValueError) as info:
        cd.load_table(str(tmp_path / "t.cdvt"))
    prefix = f"malformed {tmp_path / 't.cdvt.json'}: table sidecar: "
    assert str(info.value).startswith(prefix)
    return str(info.value)[len(prefix):]


@pytest.mark.parametrize("stop_tol", [math.nan, math.inf, -math.inf])
def test_sidecar_refuses_a_non_finite_stop_tol(tmp_path, stop_tol):
    """A NaN stop_tol used to load, and a table strategy on it never
    stopped a run."""
    assert _refusal_of_sidecar(tmp_path, stop_tol=stop_tol) == (
        f"stop_tol={stop_tol} contradicts sup_change=5e-05 and tol=0.0001, which give 5e-05"
    )


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"stop_tol": 1e-3},
         "stop_tol=0.001 contradicts sup_change=5e-05 and tol=0.0001, which give 5e-05"),
        ({"stop_tol": math.nan, "sup_change": math.nan},
         "sup_change=nan must be finite and nonnegative"),
        ({"stop_tol": math.inf, "sup_change": math.inf},
         "sup_change=inf must be finite and nonnegative"),
    ],
    ids=["other-than-sup-change", "both-nan", "both-inf"],
)
def test_sidecar_stop_tol_is_its_finite_sup_change(tmp_path, fields, message):
    """The labels are solved at the last sweep change, so a table's stop_tol
    is its sup_change; a sidecar that stores another is refused."""
    assert _refusal_of_sidecar(tmp_path, **fields) == message


def test_two_curves_for_one_corner_are_refused(tmp_path):
    """The last curve for a corner used to win silently, changing the
    strategy without a word."""
    path = str(tmp_path / "b.json")
    cd.save_boundaries([curve(1), curve(2), curve(1)], path)
    with pytest.raises(ValueError, match="^two boundary curves for corner 1$"):
        cd.load_boundaries(path)
    cd.save_boundaries([curve(2), curve(1)], path)
    assert sorted(cd.load_boundaries(path)) == [1, 2]
