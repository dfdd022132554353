"""The benchmark calls the package by name, and its traced run wraps library
functions by name; a rename in the package would break only a benchmark run,
so check the names here."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import changediag

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


def bench_names():
    """Every ``cd.<name>`` the benchmark sources use."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        found.update(re.findall(r"\bcd\.([A-Za-z_]\w*)", path.read_text()))
    return sorted(found)


@pytest.mark.parametrize("name", bench_names())
def test_bench_name_resolves(name):
    assert hasattr(changediag, name)
