"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded from the benchmark's side only: ``Tracer.install``
replaces public functions and strategy methods of the ``changediag``
modules with timing wrappers, in every module namespace that bound them,
so calls the library makes internally (``value_iterate`` building its
transition matrix, the CLI loading a table) are caught as child spans.
``remove`` puts the originals back.  Nothing under ``src/`` is edited.

A span is ``(run, id, parent, name, start_ns, end_ns, attrs)``; ``attrs``
holds counts taken from the call's arguments or result at the same
boundary (matrix nnz, sweeps, file bytes, runs and steps).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _nnz(args, result):
    return {
        "nnz": int(result.nnz),
        "bytes": int(result.data.nbytes + result.indices.nbytes + result.indptr.nbytes),
        "n": int(result.shape[0]),
    }


def _file_bytes(index):
    return lambda args, result: {"bytes": os.path.getsize(args[index])}


def _risk(args, result):
    return {
        "strategy": type(args[1]).__name__,
        "runs": int(result.runs),
        "steps": int(result.tau.sum()),
    }


#: (module, attribute or "Class.method", span name, count hook).  The span
#: name's prefix is the layer, i.e. the package module that owns the code.
TARGETS = [
    ("model", "load_spec", "model.load_spec", None),
    ("model", "save_spec", "model.save_spec", None),
    ("posterior", "update", "posterior.update", None),
    ("posterior", "update_many", "posterior.update_many", None),
    ("solver", "build_grid", "solver.build_grid", None),
    ("solver", "transition_matrix", "solver.transition_matrix", _nnz),
    ("solver", "stopping_cost_sup", "solver.stopping_cost_sup", None),
    ("solver", "value_iterate", "solver.value_iterate",
     lambda args, result: {"iterations": int(result.iterations)}),
    ("solver", "save_table", "solver.save_table", _file_bytes(2)),
    ("solver", "load_table", "solver.load_table", None),
    ("solver", "interpolate", "solver.interpolate", None),
    ("solver", "interpolate_many", "solver.interpolate_many", None),
    ("regions", "extract_region", "regions.extract_region", None),
    ("regions", "check_region_properties", "regions.check_region_properties", None),
    ("regions", "export_region", "regions.export_region", _file_bytes(1)),
    ("regions", "import_region", "regions.import_region", None),
    ("boundary", "boundary_samples", "boundary.boundary_samples",
     lambda args, result: {"samples": int(result[0].size)}),
    ("boundary", "fit_spline", "boundary.fit_spline", None),
    ("boundary", "fit_boundary", "boundary.fit_boundary", None),
    ("boundary", "fast_member", "boundary.fast_member", None),
    ("simulator", "estimate_risk", "simulator.estimate_risk", _risk),
    ("simulator", "TableStrategy.decide", "simulator.decide", None),
    ("simulator", "SplineStrategy.decide", "simulator.decide", None),
    ("simulator", "TableStrategy.decide_many", "simulator.decide_many", None),
    ("simulator", "SplineStrategy.decide_many", "simulator.decide_many", None),
]


class Tracer:
    """Records nested spans; ``run`` tags the spans of one request."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run = "setup"
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self.run, sid, parent, name, start, end, attrs)

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                result = fn(*args, **kwargs)
                if hook is not None:
                    attrs.update(hook(args, result))
                return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target wherever a ``changediag`` module binds it."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "changediag" or key.startswith("changediag."))
        ]
        for mod_name, attr, name, hook in TARGETS:
            home = sys.modules[f"changediag.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name, hook))
                continue
            original = getattr(home, attr)
            traced = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, traced)

    def remove(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def find(self, name: str) -> list[tuple[float, dict]]:
        """(seconds, attrs) of every span with this name."""
        return [((s[5] - s[4]) * 1e-9, s[6]) for s in self.spans if s[3] == name]

    def total(self, name: str) -> float:
        return sum(d for d, _ in self.find(name))

    def _self_ns(self) -> list[int]:
        own = [s[5] - s[4] for s in self.spans]
        for s in self.spans:
            if s[2] >= 0:
                own[s[2]] -= s[5] - s[4]
        return own

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span less the time its children cover."""
        out: dict[str, float] = defaultdict(float)
        for s, own in zip(self.spans, self._self_ns()):
            out[s[3]] += own * 1e-9
        return dict(out)

    def below(self, name: str) -> float:
        """Seconds covered by the children of the spans called ``name``, which
        is the self time of everything beneath them."""
        ids = {s[1] for s in self.spans if s[3] == name}
        return sum(s[5] - s[4] for s in self.spans if s[2] in ids) * 1e-9

    def merge(self, path: str) -> None:
        """Append the spans another process wrote with ``write``."""
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        base = len(self.spans)
        for s in spans:
            parent = s["parent"] + base if s["parent"] >= 0 else -1
            self.spans.append((s["run"], s["id"] + base, parent, s["name"], s["start_ns"],
                               s["end_ns"], s["attrs"]))

    def write(self, path: str, meta: dict) -> None:
        keys = ("run", "id", "parent", "name", "start_ns", "end_ns", "attrs")
        with open(path, "w") as fh:
            json.dump({"meta": meta, "spans": [dict(zip(keys, s)) for s in self.spans]}, fh)
            fh.write("\n")
