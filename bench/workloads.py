"""The benchmark workloads: set-up, timed unit, and correctness gate.

Every workload is a closed loop with one caller: the next unit of work
starts when the previous one has returned, and Monte Carlo runs at one
thread.  A workload object offers

* ``setup()``: build what the timed unit consumes (timed as ``setup_s``);
* ``unit(state, k, rec)``: one fixed-size unit of work (timed for ``wall_p75_s``);
  ``rec`` is where it leaves data for the gate, outside the timed region;
* ``check(state, rec, gate)``: the correctness gate for that unit; returns
  the small summary ``detail(summaries)`` reports from, so units' outputs
  are not kept;
* ``final_check(state, summaries, gate)``: gates that run once per
  benchmark run, on all units' summaries;
* ``plain_pass()`` and ``traced_pass(tracer)``: what the traced run
  compares and records spans over: one set-up and unit 0 in-process, then
  one set-up and unit 1 traced (a unit's index picks its seeds, so the
  gate pools independent runs); for the pipeline, the chain, then the
  chain again with each command's process recording its own spans;
* ``accounted_share(tracer, rec, pass_s, detail)``: how much of the traced
  pass the layer spans explain.

Instances come from ``tests/instances.py``; the seed given on the command
line picks the Monte Carlo streams, the online symbol stream and the CLI's
``--seed``, so the same seed gives the same inputs.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import changediag as cd
import instances

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of one workload.

    ``runs`` is the Monte Carlo run count of one ``estimate_risk`` call (the
    CLI's ``--runs`` on the pipeline); ``segments`` the number of alarm
    cycles in one online replay; ``reps`` how often set-up is repeated to
    report its median; ``probe_runs`` the run count of the thread check and
    of the traced run's extra ``estimate_risk`` calls.
    """

    Q: int
    runs: int = 2_000
    segments: int = 0
    reps: int = 3
    probe_runs: int = 2_000


FULL = {
    "pipeline_q400": Sizes(Q=400, runs=10_000),
    "in_process": Sizes(Q=200, runs=4_000, segments=150),
}

#: Sizes for the benchmark's own smoke tests.
TINY = {
    "pipeline_q400": Sizes(Q=80, runs=300, reps=1, probe_runs=200),
    "in_process": Sizes(Q=160, runs=300, segments=20, reps=1, probe_runs=200),
}

#: Symbols pre-drawn per online segment; one alarm cycle on "merged" stays
#: far below this (the longest of 20k Monte Carlo runs took 25 symbols).
SEGMENT_LEN = 64


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def import_seconds(module: str, reps: int) -> float:
    """Median time to import ``module`` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    times = []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


class Gate:
    """Attempted and failed operation counts; an operation fails when any
    of its checks fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, what: str, **checks: bool) -> bool:
        self.attempted += 1
        bad = [name for name, ok in checks.items() if not ok]
        if bad:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {', '.join(bad)}")
        return not bad

    def count(self, what: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.failures) < 20:
            self.failures.append(f"{what}: {failed} of {attempted}")


def region_gate(gate: Gate, report: dict, what: str) -> None:
    """Both stopping sets non-empty and holding their corner, no strict
    convexity violation, and one stopping component."""
    labels = report["labels"]
    entries = [labels.get(j, labels.get(str(j))) for j in (1, 2)]
    gate.op(
        what,
        nonempty=all(e["nonempty"] for e in entries),
        corner=all(e["contains_corner"] for e in entries),
        strict_convex=all(e["strict_violations"] == 0 for e in entries),
        one_component=report["stopping_components"] == 1,
    )


def moments(x: np.ndarray) -> np.ndarray:
    """(count, sum, sum of squares); moments of pooled samples add up."""
    return np.array([x.size, x.sum(), x @ x])


def mean_se(m: np.ndarray) -> tuple[float, float]:
    n, total, squares = m
    var = max(squares - total * total / n, 0.0) / (n - 1)
    return total / n, float(np.sqrt(var / n))


def risk_gate(gate: Gate, realized: np.ndarray, diff: np.ndarray, v0: float | None,
              allowance: float, what: str) -> None:
    """On the moments of all runs of one strategy: the mean cost within 4
    standard errors plus ``allowance`` of the table's V(pi_0), and the
    realized and posterior-form costs (``diff`` is their difference) within
    4 paired standard errors.

    The runs are pooled because one call's 4000 runs are too few: their
    skewed costs gave |z| > 4 about once in 80 calls on "long".  The
    allowance is the grid error ``tests/test_acceptance.py`` allows, which
    pooled runs resolve.
    """
    d_mean, d_se = mean_se(diff)
    checks = {"forms_agree": abs(d_mean) <= 4 * d_se + 1e-12}
    if v0 is not None:
        mean, se = mean_se(realized)
        checks["matches_value"] = abs(mean - v0) <= 4 * se + allowance
    gate.op(what, **checks)


def same_estimate(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, f), getattr(b, f))
        for f in ("theta", "mu", "tau", "d", "realized", "posterior_form", "capped")
    )


@dataclass
class Prepared:
    spec: cd.ProblemSpec
    table: cd.ValueTable
    fits: dict
    v0: float


def prepare(spec: cd.ProblemSpec, Q: int, K: int, workdir: Path) -> Prepared:
    """The library form of solve -> regions -> fit-boundary: model file,
    solve, table round trip, region extraction and check, CSV round trip,
    and one spline per corner."""
    model = str(workdir / "model.json")
    cd.save_spec(spec, model)
    spec = cd.load_spec(model)
    table = cd.value_iterate(spec, cd.build_grid(spec.num_types, Q))
    path = str(workdir / "table.cdvt")
    cd.save_table(table, spec, path)
    table, _ = cd.load_table(path)
    region = cd.extract_region(spec, table)
    cd.check_region_properties(region)  # the regions command's report; gated on the pipeline
    csv_path = str(workdir / "region.csv")
    cd.export_region(region, csv_path)
    region = cd.import_region(csv_path)
    fits = {j: cd.fit_boundary(region, j, K) for j in range(1, spec.num_types + 1)}
    v0 = cd.interpolate(table, cd.initial_posterior(spec))
    return Prepared(spec, table, fits, v0)


def strategies(p: Prepared) -> dict:
    return {"table": cd.TableStrategy(p.table), "spline": cd.SplineStrategy(p.fits)}


# ---------------------------------------------------------------------------
# pipeline_q400: the CLI chain as separate processes
# ---------------------------------------------------------------------------


class Pipeline:
    """solve -Q 400 -> regions -> fit-boundary -j 1, -j 2 -> simulate --table,
    each a fresh process, after a ``--version`` start-up probe."""

    name = "pipeline_q400"
    setup_import = None

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed, self.sizes, self.dir = seed, sizes, workdir
        self.spec = instances.FIGURES["merged"]

    def commands(self, k: int) -> list[tuple[str, list[str]]]:
        return [
            ("startup", ["--version"]),
            ("solve", ["solve", "model.json", "-Q", str(self.sizes.Q), "-o", "t.cdvt"]),
            ("regions", ["regions", "t.cdvt", "-o", "r.csv"]),
            ("fit_boundary_1", ["fit-boundary", "r.csv", "-j", "1", "-o", "b1.json"]),
            ("fit_boundary_2", ["fit-boundary", "r.csv", "-j", "2", "-o", "b2.json"]),
            ("simulate", ["simulate", "model.json", "--table", "t.cdvt", "--threads", "1",
                          "--runs", str(self.sizes.runs), "--seed", str(self.seed * 1000 + k),
                          "-o", "sim.json"]),
        ]

    def _process(self, args: list[str], module: bool = True) -> tuple[float, int]:
        """Wall time and exit code of one ``python -m changediag.cli`` process
        (or of the script given first in ``args``)."""
        cmd = [sys.executable, "-m", "changediag.cli", *args] if module else [sys.executable, *args]
        t = time.perf_counter()
        proc = subprocess.run(
            cmd, cwd=self.dir, env=child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=170,
        )
        return time.perf_counter() - t, proc.returncode

    def setup(self):
        """Writes the model file, then one ``--version`` process so the
        interpreter and libraries are in the page cache before timing."""
        cd.save_spec(self.spec, str(self.dir / "model.json"))
        self._process(["--version"])
        return None

    def unit(self, state, k: int, rec: dict) -> None:
        for name, args in self.commands(k):
            rec[name] = self._process(args)

    def check(self, state, rec: dict, gate: Gate) -> dict:
        for name, (_, code) in rec.items():
            gate.op(f"cli {name}", exit_0=code == 0)
        if rec["regions"][1] == 0:
            with open(self.dir / "r.csv.report.json") as fh:
                region_gate(gate, json.load(fh), "regions report")
        return {name: seconds for name, (seconds, _) in rec.items()}

    def final_check(self, state, summaries: list[dict], gate: Gate) -> None:
        """``solve`` run twice writes byte-identical tables."""
        first = (self.dir / "t.cdvt").read_bytes()
        _, code = self._process(["solve", "model.json", "-Q", str(self.sizes.Q), "-o", "t2.cdvt"])
        same = code == 0 and (self.dir / "t2.cdvt").read_bytes() == first
        gate.op("solve byte-identical", exit_0=code == 0, identical=same)

    def plain_pass(self) -> tuple[dict, float]:
        """Set-up and one chain without ``--version``, untraced."""
        self.setup()
        rec: dict = {}
        self.unit(None, 0, rec)
        del rec["startup"]
        return rec, sum(seconds for seconds, _ in rec.values())

    def traced_pass(self, tracer) -> tuple[dict, dict, float]:
        """The chain again, each command in a fresh process that records
        spans (``cli_traced.py``); their spans join ``tracer``."""
        rec = {}
        script = str(Path(__file__).resolve().parent / "cli_traced.py")
        for name, args in self.commands(1)[1:]:
            out = str(self.dir / f"spans-{name}.json")
            rec[name] = self._process([script, out, name, *args], module=False)
            tracer.merge(out)
        seconds = sum(s for s, _ in rec.values())
        table, spec = cd.load_table(str(self.dir / "t.cdvt"))
        fits = {}
        for j in (1, 2):
            fits.update(cd.load_boundaries(str(self.dir / f"b{j}.json")))
        v0 = cd.interpolate(table, cd.initial_posterior(spec))
        return {"merged": Prepared(spec, table, fits, v0)}, rec, seconds

    def accounted_share(self, tracer, rec: dict, pass_s: float, detail: dict) -> float:
        """Each command's layer self time over its process time less its own
        import; per command into ``detail``, overall returned."""
        layers = rest = 0.0
        for name, (seconds, _) in rec.items():
            below = tracer.below(f"cli.{name}")
            own = seconds - tracer.find(f"cli.{name}")[0][1]["import_s"]
            detail[f"accounted_share.{name}"] = below / own
            layers, rest = layers + below, rest + own
        return layers / rest

    def detail(self, summaries: list[dict]) -> dict:
        return {f"cli_{name}_s": statistics.median(s[name] for s in summaries)
                for name in summaries[0]}


# ---------------------------------------------------------------------------
# in_process: Monte Carlo on short and long runs, and the online stream
# ---------------------------------------------------------------------------

#: The in-process instances and the spline segments fitted for each: the
#: CLI's default, and 8 for "long", whose Q=200 boundaries have 15 nodes
#: (12 segments need 16).
INSTANCES = {
    "merged": (instances.FIGURES["merged"], 12),
    "long": (instances.two_type(10, 10, 3, 3, 0.05), 8),
}


class MonteCarlo:
    """``estimate_risk`` at one thread, ``runs`` runs per call, one call per
    strategy."""

    def __init__(self, name: str, instance: str, kinds: tuple[str, ...], seed: int,
                 sizes: Sizes):
        self.name, self.instance, self.kinds = name, instance, kinds
        self.seed, self.sizes = seed, sizes

    def sim_seed(self, k: int) -> int:
        return self.seed * 100_000 + k

    def unit(self, p: Prepared, k: int, rec: dict) -> None:
        strats = strategies(p)
        for kind in self.kinds:
            t = time.perf_counter()
            rec[kind] = cd.estimate_risk(
                p.spec, strats[kind], runs=self.sizes.runs, seed=self.sim_seed(k), threads=1
            )
            rec[kind + "_s"] = time.perf_counter() - t

    def check(self, p: Prepared, rec: dict, gate: Gate) -> dict:
        """No run hit the observation cap.  Returns, per strategy, runs,
        seconds, mean tau, and the moments ``final_check`` pools."""
        out = {}
        for kind in self.kinds:
            est = rec[kind]
            gate.op(f"{self.name} estimate_risk {kind}", no_cap=est.cap_rate == 0.0)
            out[kind] = (est.runs, rec[kind + "_s"], float(est.tau.mean()),
                         moments(est.realized), moments(est.realized - est.posterior_form))
        return out

    def final_check(self, p: Prepared, summaries: list[dict], gate: Gate) -> None:
        """The risk gate on all runs of the run; a threads=1 and a threads=2
        estimate of one seed are identical."""
        allowance = 5 * p.spec.c / p.table.grid.Q + p.table.tol
        for kind in self.kinds:
            risk_gate(gate, sum(s[kind][3] for s in summaries), sum(s[kind][4] for s in summaries),
                      p.v0 if kind == "table" else None, allowance, f"{self.name} risk {kind}")
        strats = strategies(p)
        for kind in self.kinds:
            one, two = (
                cd.estimate_risk(p.spec, strats[kind], runs=self.sizes.probe_runs,
                                 seed=self.sim_seed(99_999), threads=threads)
                for threads in (1, 2)
            )
            gate.op(f"{self.name} thread invariance {kind}", identical=same_estimate(one, two))

    def detail(self, summaries: list[dict]) -> dict:
        out = {}
        runs = time_s = 0.0
        for kind in self.kinds:
            r = sum(s[kind][0] for s in summaries)
            t = sum(s[kind][1] for s in summaries)
            out[f"{self.name}.mc_runs_per_s.{kind}"] = r / t
            out[f"{self.name}.mean_tau.{kind}"] = float(np.mean([s[kind][2] for s in summaries]))
            runs, time_s = runs + r, time_s + t
        out[f"{self.name}.mc_runs_per_s"] = runs / time_s
        return out


class Online:
    """One pre-drawn symbol stream replayed through ``update`` and then the
    scalar ``decide`` of the table and of the spline strategy, resetting
    the posterior after each alarm."""

    name = "online_stream"
    instance = "merged"

    def __init__(self, seed: int, sizes: Sizes):
        spec = INSTANCES[self.instance][0]
        # Alarm cycle k reads the ground-truth stream of run k of this seed.
        envs = (cd.Environment(spec, seed, k) for k in range(sizes.segments))
        self.segments = [[env.symbol(n) for n in range(1, SEGMENT_LEN + 1)] for env in envs]

    def unit(self, p: Prepared, k: int, rec: dict) -> None:
        spec = p.spec
        update = cd.update
        start = cd.initial_posterior(spec)
        clock = time.perf_counter_ns
        for kind, strategy in strategies(p).items():
            decide = strategy.decide
            lat, pis, decs = [], [], []
            truncated = 0
            for seg in self.segments:
                pi = start
                for n, x in enumerate(seg, 1):
                    t0 = clock()
                    pi = update(spec, pi, x)
                    d = decide(spec, pi, n)
                    lat.append(clock() - t0)
                    pis.append(pi)
                    decs.append(0 if d is None else d)
                    if d is not None:
                        break
                else:
                    truncated += 1
            rec[kind] = (lat, pis, decs, truncated)

    def check(self, p: Prepared, rec: dict, gate: Gate) -> dict:
        """Every scalar decision equals ``decide_many`` on the recorded
        posteriors.  Returns the latencies and truncated cycles."""
        out = {}
        for kind, strategy in strategies(p).items():
            lat, pis, decs, truncated = rec[kind]
            batch = strategy.decide_many(p.spec, np.array(pis), 0)
            wrong = int(np.count_nonzero(batch != np.array(decs)))
            gate.count(f"online {kind} decisions", len(decs), wrong)
            out[kind] = (np.array(lat), truncated)
        return out

    def final_check(self, p: Prepared, summaries: list[dict], gate: Gate) -> None:
        pass

    def detail(self, summaries: list[dict]) -> dict:
        out = {}
        every = []
        for kind in ("table", "spline"):
            lat = np.concatenate([s[kind][0] for s in summaries]) * 1e-3
            every.append(lat)
            out[f"online_us_p50.{kind}"] = float(np.percentile(lat, 50))
            out[f"online_us_p99.{kind}"] = float(np.percentile(lat, 99))
            out[f"truncated.{kind}"] = sum(s[kind][1] for s in summaries)
        lat = np.concatenate(every)
        out["online_us_p50"] = float(np.percentile(lat, 50))
        out["online_us_p99"] = float(np.percentile(lat, 99))
        out["online_symbols"] = int(lat.size)
        return out


class InProcess:
    """Three parts in one process and one unit: ``mc_short`` (estimate_risk
    on "merged", runs of about 9 symbols, table and spline strategies),
    ``mc_long`` (the table strategy on "long", about 42 symbols a run) and
    the online stream on "merged".  Set-up is ``prepare`` on both
    instances."""

    name = "in_process"
    setup_import = "changediag"

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.sizes, self.dir = sizes, workdir
        self.parts = [
            MonteCarlo("mc_short", "merged", ("table", "spline"), seed, sizes),
            MonteCarlo("mc_long", "long", ("table",), seed, sizes),
            Online(seed, sizes),
        ]

    def setup(self) -> dict:
        state = {}
        for name, (spec, K) in INSTANCES.items():
            (self.dir / name).mkdir(exist_ok=True)
            state[name] = prepare(spec, self.sizes.Q, K, self.dir / name)
        return state

    def unit(self, state: dict, k: int, rec: dict) -> None:
        for part in self.parts:
            t = time.perf_counter()
            part.unit(state[part.instance], k, rec.setdefault(part.name, {}))
            rec[part.name + "_s"] = time.perf_counter() - t

    def check(self, state: dict, rec: dict, gate: Gate) -> dict:
        out = {}
        for part in self.parts:
            out[part.name] = part.check(state[part.instance], rec[part.name], gate)
            out[part.name + "_s"] = rec[part.name + "_s"]
        return out

    def final_check(self, state: dict, summaries: list[dict], gate: Gate) -> None:
        for part in self.parts:
            part.final_check(state[part.instance], [s[part.name] for s in summaries], gate)

    def plain_pass(self) -> tuple[dict, float]:
        state = self.setup()
        rec: dict = {}
        t = time.perf_counter()
        self.unit(state, 0, rec)
        return rec, time.perf_counter() - t

    def traced_pass(self, tracer) -> tuple[dict, dict, float]:
        tracer.run = "setup"
        state = self.setup()
        tracer.run = "unit"
        rec: dict = {}
        t = time.perf_counter()
        self.unit(state, 1, rec)
        return state, rec, time.perf_counter() - t

    def accounted_share(self, tracer, rec: dict, pass_s: float, detail: dict) -> float:
        """The top-level spans' share of the traced set-up and unit."""
        covered = sum(s[5] - s[4] for s in tracer.spans if s[2] < 0 and s[0] != "probe")
        return covered * 1e-9 / pass_s

    def detail(self, summaries: list[dict]) -> dict:
        out = {}
        for part in self.parts:
            out[f"{part.name}_s"] = float(np.mean([s[part.name + "_s"] for s in summaries]))
            out.update(part.detail([s[part.name] for s in summaries]))
        return out


#: Workload name -> class, each built as ``cls(seed, sizes, workdir)``.
WORKLOADS = {cls.name: cls for cls in (Pipeline, InProcess)}
