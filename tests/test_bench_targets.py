"""The benchmark calls the package by name, and its traced run wraps library
functions by name; a rename in the package would break only a benchmark run,
so check the names here, along with every name a module exports."""

import functools
import importlib
import importlib.util
import json
import pkgutil
import re
from pathlib import Path

import pytest

import changediag
from changediag import solver

import instances
from test_cli import fresh_python

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: f"{t[0]}.{t[1]}")
def test_traced_target_resolves(target):
    mod_name, attr, _, hook = target
    home = importlib.import_module(f"changediag.{mod_name}")
    if "." in attr:
        # Tracer.install wraps the method the class itself defines
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(home, cls_name))
    else:
        assert callable(getattr(home, attr))
    assert hook is None or callable(hook)


def test_cli_import_registers_every_traced_module(tmp_path):
    """``Tracer.install`` runs right after ``import changediag.cli`` and
    looks each target's module up in ``sys.modules``: the package registers
    its modules there, although their bodies have not run."""
    names = sorted({f"changediag.{t[0]}" for t in load_targets()})
    code = (
        "import json, sys\nimport changediag.cli\n"
        f"print(json.dumps([m for m in {names!r} if m not in sys.modules]))"
    )
    assert json.loads(fresh_python(code, tmp_path)) == []


def test_package_names_resolve_live(monkeypatch):
    """The traced run replaces a function in its home module and later puts
    it back; the package name must follow both, never keep a stale one."""
    original = changediag.simulator.estimate_risk

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(changediag.simulator, "estimate_risk", patched)
    assert changediag.estimate_risk is patched
    monkeypatch.undo()
    assert changediag.estimate_risk is original


def test_nnz_hook_reads_the_transition_operator():
    """The traced run reads matrix size and bytes off transition_matrix's
    result through the CSR attributes."""
    [hook] = [t[3] for t in load_targets() if t[2] == "solver.transition_matrix"]
    spec = instances.FIGURES["merged"]
    grid = changediag.build_grid(spec.num_types, 30)
    T = solver.transition_matrix(spec, grid)
    counts = hook((spec, grid), T)
    n = grid.n_nodes
    assert counts["n"] == n
    assert counts["nnz"] == T.indices.size == T.data.size == T.indptr[-1]
    # int32 indptr and indices, float64 data
    assert counts["bytes"] == 4 * (n + 1) + 12 * counts["nnz"]


def bench_names():
    """Every ``cd.<name>`` the benchmark sources use, dotted chains in full."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        found.update(re.findall(r"\bcd\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)", path.read_text()))
    return sorted(found)


@pytest.mark.parametrize("name", bench_names())
def test_bench_name_resolves(name):
    functools.reduce(getattr, name.split("."), changediag)


MODULES = ["changediag"] + [
    f"changediag.{m.name}" for m in pkgutil.iter_modules(changediag.__path__)
]


def test_dir_lists_every_exported_name():
    assert set(changediag.__all__) <= set(dir(changediag))


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    home = importlib.import_module(module)
    exported = getattr(home, "__all__", [])  # the CLI module exports nothing
    assert [name for name in exported if not hasattr(home, name)] == []
