"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench

Every workload runs once untraced and once traced and must emit exactly the
metrics ``BENCHMARK.json`` declares, each with its unit; each correctness
gate must trip when fed a wrong reference.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import changediag as cd  # noqa: E402
import harness  # noqa: E402
import instances  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in DECLARED["workloads"]]


def test_declared_metrics_match_the_harness():
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == harness.E2E
    assert {m["name"]: (m["unit"], m["better"]) for m in DECLARED["per_layer"]} == harness.LAYER
    assert sorted(NAMES) == sorted(workloads.FULL) == sorted(workloads.TINY)


@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(name, trace):
    result, detail = harness.run(name, seed=3, seconds=0.1, trace=trace,
                                 sizes=workloads.TINY[name])
    if not trace:
        assert detail["units"] == 1
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, detail["failures"]
    assert result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    json.dumps(result)


@pytest.fixture(scope="module")
def merged200():
    spec = instances.FIGURES["merged"]
    table = cd.value_iterate(spec, cd.build_grid(2, 200))
    est = cd.estimate_risk(spec, cd.TableStrategy(table), runs=4000, seed=5, threads=1)
    return spec, table, est


def test_risk_gate_trips_on_a_wrong_reference(merged200):
    spec, table, est = merged200
    v0 = cd.interpolate(table, cd.initial_posterior(spec))
    realized = workloads.moments(est.realized)
    diff = workloads.moments(est.realized - est.posterior_form)
    gate = workloads.Gate()
    workloads.risk_gate(gate, realized, diff, v0, 0.0, "right")
    assert gate.failed == 0
    workloads.risk_gate(gate, realized, diff, v0 + 5 * est.std_error, 0.0, "wrong value")
    assert gate.failed == 1 and "matches_value" in gate.failures[0]
    shifted = workloads.moments(est.realized - est.posterior_form + 1.0)
    workloads.risk_gate(gate, realized, shifted, None, 0.0, "forms apart")
    assert gate.failed == 2 and gate.attempted == 3
    assert "forms_agree" in gate.failures[1]


def test_pooled_moments_match_the_estimate(merged200):
    _, _, est = merged200
    half = est.runs // 2
    pooled = workloads.moments(est.realized[:half]) + workloads.moments(est.realized[half:])
    mean, se = workloads.mean_se(pooled)
    assert mean == pytest.approx(est.mean, rel=1e-12)
    assert se == pytest.approx(est.std_error, rel=1e-9)


def test_region_gate_trips_on_a_wrong_report():
    good = {
        "labels": {str(j): {"nonempty": True, "contains_corner": True, "strict_violations": 0}
                   for j in (1, 2)},
        "stopping_components": 1,
    }
    gate = workloads.Gate()
    workloads.region_gate(gate, good, "good")
    assert gate.failed == 0
    bad = json.loads(json.dumps(good))
    bad["stopping_components"] = 2
    workloads.region_gate(gate, bad, "two components")
    bad = json.loads(json.dumps(good))
    bad["labels"]["2"]["strict_violations"] = 1
    workloads.region_gate(gate, bad, "not convex")
    assert gate.failed == 2


def test_online_gate_trips_on_a_wrong_decision(tmp_path):
    spec, K = workloads.INSTANCES["merged"]
    p = workloads.prepare(spec, 80, K, tmp_path)
    w = workloads.Online(seed=4, sizes=workloads.TINY["in_process"])
    rec: dict = {}
    w.unit(p, 0, rec)
    gate = workloads.Gate()
    w.check(p, rec, gate)
    assert gate.failed == 0 and gate.attempted == len(rec["table"][2]) + len(rec["spline"][2])
    decisions = rec["table"][2]
    decisions[-1] = 3 - decisions[-1] if decisions[-1] else 1
    w.check(p, rec, gate)
    assert gate.failed == 1


def test_thread_check_compares_every_field(merged200):
    spec, table, est = merged200
    again = cd.estimate_risk(spec, cd.TableStrategy(table), runs=4000, seed=5, threads=2)
    assert workloads.same_estimate(est, again)
    again.tau = np.where(np.arange(again.tau.size) == 0, again.tau + 1, again.tau)
    assert not workloads.same_estimate(est, again)


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "bench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
