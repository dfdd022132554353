"""The benchmark calls the package by name, and its traced run wraps library
functions by name; a rename in the package would break only a benchmark run,
so check the names here, along with every name a module exports, the
arguments the benchmark passes, and the command lines it runs."""

import ast
import functools
import importlib
import importlib.util
import inspect
import json
import pkgutil
import re
import sys
from pathlib import Path

import click
import pytest

import changediag
from changediag import solver
from changediag.cli import main

import instances
from test_cli import fresh_python

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_bench_module("spans").TARGETS


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


def dotted(node):
    """``a.b.c`` for an attribute chain on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def bench_calls():
    """Every ``cd.<name>(...)`` call in the benchmark sources, as (where,
    name, positional count or None when one is starred, keyword names)."""
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = dotted(node.func) if isinstance(node, ast.Call) else None
            if name is None or not name.startswith("cd."):
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield (
                f"{path.name}:{node.lineno}",
                name[3:],
                None if starred else len(node.args),
                [k.arg for k in node.keywords],
            )


@pytest.mark.parametrize("call", list(bench_calls()), ids=lambda c: f"{c[0]}-{c[1]}")
def test_bench_call_binds_to_the_signature(call):
    """Deleting or renaming a parameter the benchmark passes breaks the
    call; this shows it without running the benchmark."""
    _, name, positional, keywords = call
    target = functools.reduce(getattr, name.split("."), changediag)
    signature = inspect.signature(target)
    if positional is None or None in keywords:  # *args or **kwargs at the call
        params = signature.parameters
        assert [k for k in keywords if k is not None and k not in params] == []
    else:
        signature.bind(*[None] * positional, **dict.fromkeys(keywords))


#: The package record that a name in the benchmark sources holds, as the
#: name itself or as the last part of a dotted chain such as ``p.spec``.
#: The count hooks of ``spans.py`` read the records that traced functions
#: return, which ``test_every_count_hook_runs_on_real_results`` covers.
RECORD_NAMES = {"spec": "spec", "table": "table", "est": "est", "again": "est"}


def bench_record_reads():
    """Every ``<record>.<attribute>`` in the benchmark sources, as sorted
    (where, record, attribute) triples."""
    found = set()
    for path in BENCH.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            owner = dotted(node.value) if isinstance(node, ast.Attribute) else None
            if owner is not None and owner.split(".")[-1] in RECORD_NAMES:
                found.add((f"{path.name}:{node.lineno}", RECORD_NAMES[owner.split(".")[-1]],
                           node.attr))
    return sorted(found)


@pytest.fixture(scope="module")
def records():
    """A ProblemSpec, the ValueTable of a small solve of it and the
    RiskEstimate of that table's rule."""
    spec = instances.FIGURES["merged"]
    table = changediag.value_iterate(spec, changediag.build_grid(2, 20))
    est = changediag.estimate_risk(spec, changediag.TableStrategy(table), runs=20, seed=0)
    return {"spec": spec, "table": table, "est": est}


def test_bench_reads_the_record_fields_it_depends_on():
    """The scan below sees the reads a derived field would break."""
    reads = {(record, attr) for _, record, attr in bench_record_reads()}
    assert {("spec", "alphabet_size"), ("spec", "num_types"), ("est", "runs"),
            ("table", "tol")} <= reads


@pytest.mark.parametrize("read", bench_record_reads(), ids=lambda r: f"{r[0]}-{r[1]}.{r[2]}")
def test_bench_record_attribute_resolves(records, read):
    """A record field the benchmark reads that turns into a derived value,
    or goes, breaks only a benchmark run; this shows it on real records."""
    _, record, attr = read
    assert hasattr(records[record], attr)


def test_every_count_hook_runs_on_real_results(tmp_path):
    """Each traced count hook reads its function's real arguments and result:
    a ValueTable, a TransitionOperator, a RiskEstimate, the samples and the
    files written."""
    spec = instances.FIGURES["merged"]
    grid = changediag.build_grid(2, 20)
    table = changediag.value_iterate(spec, grid)
    region = changediag.extract_region(spec, table)
    calls = {
        "solver.transition_matrix": (spec, grid),
        "solver.value_iterate": (spec, grid),
        "solver.save_table": (table, spec, str(tmp_path / "t.cdvt")),
        "regions.export_region": (region, str(tmp_path / "r.csv")),
        "boundary.boundary_samples": (region, 1),
        "simulator.estimate_risk": (spec, changediag.TableStrategy(table), 20, 0),
    }
    hooked = [t for t in load_targets() if t[3] is not None]
    assert sorted(name for _, _, name, _ in hooked) == sorted(calls)
    for mod_name, attr, name, hook in hooked:
        args = calls[name]
        counts = hook(args, getattr(importlib.import_module(f"changediag.{mod_name}"), attr)(*args))
        assert counts and all(isinstance(v, (int, str)) for v in counts.values()), name


def test_pipeline_command_lines_parse(tmp_path, monkeypatch, capsys):
    """Each command line of the CLI chain the benchmark times parses with
    its command's options and arguments, in a directory holding the files
    it names; nothing runs."""
    workloads = load_bench_module("workloads")
    sizes = workloads.FULL["pipeline_q400"]
    commands = workloads.Pipeline(0, sizes, tmp_path).commands(0)
    monkeypatch.chdir(tmp_path)
    for _, args in commands:
        for arg in args:
            if re.fullmatch(r"[\w-]+\.(json|cdvt|csv)", arg):
                (tmp_path / arg).touch()
    for name, args in commands:
        if args[0] in main.commands:
            main.commands[args[0]].make_context(args[0], args[1:])
        else:
            # a group option: --version prints and exits before any command
            with pytest.raises(click.exceptions.Exit) as stop:
                main.make_context("changediag", args)
            assert stop.value.exit_code == 0, name
    assert changediag.__version__ in capsys.readouterr().out


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
