"""Runs one workload, untraced for the end-to-end metrics or traced for the
per-layer ones, and assembles the result object ``run.py`` prints."""

from __future__ import annotations

import contextlib
import resource
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

import changediag as cd
from spans import Tracer
from workloads import ROOT, WORKLOADS, Gate, import_seconds, strategies

#: End-to-end metrics, reported by every workload with tracing off.
E2E = {
    "setup_s": "s",
    "wall_p75_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run: name -> (unit, better).
LAYER = {
    "cli.import_s": ("s", "lower"),
    "model.load_spec_s": ("s", "lower"),
    "solver.build_grid_s": ("s", "lower"),
    "solver.transition_matrix_s": ("s", "lower"),
    "solver.T_nnz": ("count", "lower"),
    "solver.value_iterate_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.sweep_s": ("s", "lower"),
    "solver.sweep_bytes": ("bytes", "lower"),
    "solver.save_table_s": ("s", "lower"),
    "solver.load_table_s": ("s", "lower"),
    "solver.table_bytes": ("bytes", "lower"),
    "solver.interpolate_many_ns_per_point": ("ns", "lower"),
    "regions.extract_region_s": ("s", "lower"),
    "regions.check_region_properties_s": ("s", "lower"),
    "regions.export_region_s": ("s", "lower"),
    "regions.csv_bytes": ("bytes", "lower"),
    "regions.import_region_s": ("s", "lower"),
    "boundary.boundary_samples_s": ("s", "lower"),
    "boundary.samples": ("count", "lower"),
    "boundary.fit_spline_s": ("s", "lower"),
    "boundary.fast_member_us": ("us", "lower"),
    "posterior.update_us": ("us", "lower"),
    "posterior.update_many_ns_per_row": ("ns", "lower"),
    "simulator.env_setup_us_per_run": ("us", "lower"),
    "simulator.decide_many_s": ("s", "lower"),
    "simulator.decide_many_calls": ("count", "lower"),
    "simulator.self_s": ("s", "lower"),
    "simulator.steps": ("count", "lower"),
    "simulator.steps_per_s": ("1/s", "higher"),
    "simulator.runs_per_s.table": ("1/s", "higher"),
    "simulator.runs_per_s.spline": ("1/s", "higher"),
    "simulator.thread_scaling": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
    "trace.accounted_share": ("ratio", "higher"),
}

#: Self-time metrics read straight off the span tree: metric -> span name.
SELF_TIMES = {
    "model.load_spec_s": "model.load_spec",
    "solver.build_grid_s": "solver.build_grid",
    "solver.transition_matrix_s": "solver.transition_matrix",
    "solver.value_iterate_s": "solver.value_iterate",
    "solver.save_table_s": "solver.save_table",
    "solver.load_table_s": "solver.load_table",
    "regions.extract_region_s": "regions.extract_region",
    "regions.check_region_properties_s": "regions.check_region_properties",
    "regions.export_region_s": "regions.export_region",
    "regions.import_region_s": "regions.import_region",
    "boundary.boundary_samples_s": "boundary.boundary_samples",
    "boundary.fit_spline_s": "boundary.fit_spline",
}

#: Float64 vectors a sweep streams besides the matrix (V, h, delay, T @ V,
#: the new V and its change), used for the computed ``solver.sweep_bytes``.
SWEEP_VECTORS = 6


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def timed(fn) -> tuple[float, object]:
    t = time.perf_counter()
    out = fn()
    return time.perf_counter() - t, out


def untraced(w, gate: Gate, seconds: float) -> tuple[dict, dict]:
    reps = w.sizes.reps
    setups = []
    for _ in range(reps):
        dt, state = timed(w.setup)
        setups.append(dt)
    setup_s = statistics.median(setups)
    if w.setup_import:
        setup_s += import_seconds(w.setup_import, reps)

    summaries, walls = [], []
    start = time.perf_counter()
    # Start a unit only if it should end within the measuring time.
    while not walls or time.perf_counter() - start + statistics.fmean(walls) <= seconds:
        rec: dict = {}
        dt, _ = timed(lambda: w.unit(state, len(walls), rec))
        walls.append(dt)
        summaries.append(w.check(state, rec, gate))
    w.final_check(state, summaries, gate)

    # The 75th percentile of the unit times, the highest with ten units
    # beyond it in an in-process run.  The machine this was tuned on
    # alternates for seconds to minutes between an idle state and a
    # contended one up to 1.75 times slower; nearly every 40-s run sees the
    # contended state for more than a quarter of its time, so the 75th
    # percentile varied across ten runs half as much as the mean and a
    # third as much as the median, which flips between the two states.
    metrics = {
        "setup_s": setup_s,
        "wall_p75_s": float(np.percentile(walls, 75)),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail = {
        "units": len(walls),
        "unit_s": dict(zip(("min", "p25", "p50", "p75", "max"),
                           np.percentile(walls, [0, 25, 50, 75, 100]).tolist()),
                       mean=statistics.fmean(walls)),
        "setup_runs": reps,
        "setup_s_each": setups,
        **w.detail(summaries),
    }
    return metrics, detail


def micro_probes(p, seed: int, runs: int) -> dict:
    """Per-call costs of the scalar and batched kernels on the "merged"
    instance and the workload's table of it, and Monte Carlo thread
    scaling."""
    spec = p.spec
    rng = np.random.default_rng(seed)
    out = {}

    start = cd.initial_posterior(spec)
    cycles = rng.integers(0, spec.alphabet_size, (300, 64)).tolist()
    t = time.perf_counter()
    for cycle in cycles:
        pi = start
        for x in cycle:
            pi = cd.update(spec, pi, x)
    out["posterior.update_us"] = (time.perf_counter() - t) / (300 * 64) * 1e6

    n = 4096
    points = rng.dirichlet(np.ones(spec.num_types + 1), n)
    symbols = rng.integers(0, spec.alphabet_size, n)

    def per_item_ns(fn) -> float:
        return statistics.median(timed(fn)[0] for _ in range(30)) / n * 1e9

    out["posterior.update_many_ns_per_row"] = per_item_ns(
        lambda: cd.update_many(spec, points, symbols))
    out["solver.interpolate_many_ns_per_point"] = per_item_ns(
        lambda: cd.solver.interpolate_many(p.table.grid, p.table.values, points))

    t = time.perf_counter()
    for pt in points[:2000]:
        cd.fast_member(spec, p.fits, pt)
    out["boundary.fast_member_us"] = (time.perf_counter() - t) / 2000 * 1e6

    t = time.perf_counter()
    for k in range(2000):
        cd.Environment(spec, seed, k)
    out["simulator.env_setup_us_per_run"] = (time.perf_counter() - t) / 2000 * 1e6

    table = cd.TableStrategy(p.table)
    one, two = (
        timed(lambda: cd.estimate_risk(spec, table, runs=runs, seed=seed, threads=threads))[0]
        for threads in (1, 2)
    )
    out["simulator.thread_scaling"] = one / two
    return out


def traced(w, gate: Gate, seed: int, out_dir: Path) -> tuple[dict, dict]:
    import_s = import_seconds("changediag.cli", w.sizes.reps)
    rec, plain_s = w.plain_pass()
    tracer = Tracer()
    tracer.install()
    try:
        pass_s, (state, rec_t, traced_s) = timed(lambda: w.traced_pass(tracer))
        p = state["merged"]
        tracer.run = "probe"
        for strategy in strategies(p).values():
            cd.estimate_risk(p.spec, strategy, runs=w.sizes.probe_runs, seed=seed, threads=1)
    finally:
        tracer.remove()
    w.final_check(state, [w.check(state, rec, gate), w.check(state, rec_t, gate)], gate)

    m = {"cli.import_s": import_s, "trace.overhead_s": traced_s - plain_s}
    own = tracer.self_times()
    for metric, span in SELF_TIMES.items():
        m[metric] = own.get(span, 0.0)

    tm = tracer.find("solver.transition_matrix")[0][1]
    iterations = sum(a["iterations"] for _, a in tracer.find("solver.value_iterate"))
    m["solver.T_nnz"] = tm["nnz"]
    m["solver.iterations"] = iterations
    m["solver.sweep_s"] = m["solver.value_iterate_s"] / iterations
    m["solver.sweep_bytes"] = tm["bytes"] + SWEEP_VECTORS * 8 * tm["n"]
    m["solver.table_bytes"] = tracer.find("solver.save_table")[0][1]["bytes"]
    m["regions.csv_bytes"] = tracer.find("regions.export_region")[0][1]["bytes"]
    m["boundary.samples"] = sum(a["samples"] for _, a in tracer.find("boundary.boundary_samples"))

    risk = tracer.find("simulator.estimate_risk")
    risk_s = sum(d for d, _ in risk)
    m["simulator.decide_many_s"] = tracer.total("simulator.decide_many")
    m["simulator.decide_many_calls"] = len(tracer.find("simulator.decide_many"))
    m["simulator.self_s"] = risk_s - m["simulator.decide_many_s"]
    m["simulator.steps"] = sum(a["steps"] for _, a in risk)
    m["simulator.steps_per_s"] = m["simulator.steps"] / risk_s
    for kind, cls in (("table", "TableStrategy"), ("spline", "SplineStrategy")):
        mine = [(d, a["runs"]) for d, a in risk if a["strategy"] == cls]
        m[f"simulator.runs_per_s.{kind}"] = sum(r for _, r in mine) / sum(d for d, _ in mine)

    detail: dict = {}
    m["trace.accounted_share"] = w.accounted_share(tracer, rec_t, pass_s, detail)

    m.update(micro_probes(p, seed, max(w.sizes.probe_runs, w.sizes.runs)))
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{w.name}-seed{seed}.json"), {"seed": seed, **detail})
    detail["spans"] = len(tracer.spans)
    return m, detail


def run(name: str, seed: int, seconds: float, trace: bool, sizes) -> tuple[dict, dict]:
    """One benchmark run: the result object and a detail dict for humans."""
    gate = Gate()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch) as tmp:
            w = WORKLOADS[name](seed, sizes, Path(tmp))
            if trace:
                values, detail = traced(w, gate, seed, ROOT / ".bench_out")
                units = {k: LAYER[k][0] for k in LAYER}
            else:
                values, detail = untraced(w, gate, seconds)
                units = E2E
    finally:
        with contextlib.suppress(OSError):
            scratch.rmdir()
    detail["error_rate"] = gate.failed / max(gate.attempted, 1)
    detail["failures"] = gate.failures
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": float(values[k]), "unit": u} for k, u in units.items()},
    }
    return result, detail
