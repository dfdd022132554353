import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import changediag as cd
from changediag.cli import main
from changediag.model import spec_to_dict
from changediag.simulator import TableStrategy

import instances
from replay import replay


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def model_path(tmp_path):
    path = tmp_path / "model.json"
    cd.save_spec(instances.FIGURES["merged"], str(path))
    return str(path)


def solve_to(runner, model_path, out, *extra):
    result = runner.invoke(main, ["solve", model_path, "-o", out, *extra])
    return result


def test_solve_writes_table_sidecar_manifest(runner, model_path, tmp_path):
    out = str(tmp_path / "table.cdvt")
    result = solve_to(runner, model_path, out, "-Q", "60")
    assert result.exit_code == 0, result.output
    assert "solved:" in result.output
    table, spec = cd.load_table(out)
    assert table.converged and table.grid.Q == 60
    sidecar = json.loads((tmp_path / "table.cdvt.json").read_text())
    assert sidecar["Q"] == 60
    manifest = json.loads((tmp_path / "table.cdvt.manifest.json").read_text())
    assert manifest["subcommand"] == "solve"
    assert manifest["report"]["converged"] is True
    assert_phase_timings(manifest, ["load", "grid", "iterate", "save"])


def assert_phase_timings(manifest, phases):
    assert list(manifest["timings"]) == phases
    assert all(isinstance(s, float) and s >= 0 for s in manifest["timings"].values())


def test_solve_is_bit_reproducible(runner, model_path, tmp_path):
    out1 = str(tmp_path / "a.cdvt")
    out2 = str(tmp_path / "b.cdvt")
    assert solve_to(runner, model_path, out1, "-Q", "40").exit_code == 0
    assert solve_to(runner, model_path, out2, "-Q", "40").exit_code == 0
    assert (tmp_path / "a.cdvt").read_bytes() == (tmp_path / "b.cdvt").read_bytes()


def test_solve_rejects_malformed_model(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["solve", str(bad), "-o", str(tmp_path / "t.cdvt")])
    assert result.exit_code == 1
    assert "error:" in result.output


def test_solve_sweep_cap_exit_2_and_single_sweep_table(runner, model_path, tmp_path):
    out = str(tmp_path / "one.cdvt")
    result = solve_to(runner, model_path, out, "-Q", "50", "--max-iter", "1",
                      "--tol", "1e-300")
    assert result.exit_code == 2
    assert "sweep cap" in result.output
    table, spec = cd.load_table(out)
    want = cd.value_iterate(instances.FIGURES["merged"], cd.build_grid(2, 50),
                            tol=1e-300, max_iter=1)
    assert np.array_equal(table.values, want.values)


def test_regions_csv_labels_and_report(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "4").exit_code == 0
    out = str(tmp_path / "region.csv")
    result = runner.invoke(main, ["regions", table_path, "-o", out])
    assert result.exit_code == 0, result.output
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    assert len(rows) == 15
    labels = {row["label"] for row in rows}
    assert {"1", "2"} <= labels
    report = json.loads((tmp_path / "region.csv.report.json").read_text())
    assert report["labels"]["1"]["nonempty"] is True
    assert "continuation components:" in result.output
    manifest = json.loads((tmp_path / "region.csv.manifest.json").read_text())
    assert_phase_timings(manifest, ["load", "check", "export"])


def test_regions_compare_table_reports_the_primary_region(runner, model_path, tmp_path):
    """With --compare-table of more sweeps, the report still describes the
    primary table's region: it equals the single-table report except for
    the nestedness entry, which checks the longer horizon against the
    shorter one."""
    shallow, deep = str(tmp_path / "s1.cdvt"), str(tmp_path / "s.cdvt")
    assert solve_to(runner, model_path, shallow, "-Q", "40", "--max-iter", "1").exit_code == 2
    assert solve_to(runner, model_path, deep, "-Q", "40").exit_code == 0
    reports = {}
    for name, extra in (("alone", []), ("compared", ["--compare-table", deep])):
        out = str(tmp_path / f"{name}.csv")
        result = runner.invoke(main, ["regions", shallow, *extra, "-o", out])
        assert result.exit_code == 0, result.output
        reports[name] = json.loads(Path(out + ".report.json").read_text())
    nested = reports["compared"].pop("nested")
    assert nested["ok"] and nested["N_coarse"] == 1 < nested["N_fine"]
    assert reports["alone"].pop("nested") is None
    assert reports["compared"] == reports["alone"]


def test_regions_nestedness_report(runner, model_path, tmp_path):
    coarse = str(tmp_path / "n5.cdvt")
    fine = str(tmp_path / "n50.cdvt")
    for path, n in ((coarse, "5"), (fine, "50")):
        result = solve_to(runner, model_path, path, "-Q", "40",
                          "--max-iter", n, "--tol", "1e-300")
        assert result.exit_code == 2
    out = str(tmp_path / "nested.csv")
    result = runner.invoke(
        main, ["regions", fine, "--compare-table", coarse, "-o", out]
    )
    assert result.exit_code == 0, result.output
    assert "nested: True" in result.output
    report = json.loads((tmp_path / "nested.csv.report.json").read_text())
    assert report["nested"]["ok"] is True
    assert report["nested"]["violations"] == 0


def test_fit_boundary_outputs(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "100").exit_code == 0
    region_csv = str(tmp_path / "region.csv")
    assert runner.invoke(
        main, ["regions", table_path, "--format", "raw", "-o", region_csv]
    ).exit_code == 0
    out = str(tmp_path / "g1.json")
    result = runner.invoke(main, ["fit-boundary", region_csv, "-j", "1", "-o", out])
    assert result.exit_code == 0, result.output
    assert "rms=" in result.output and "lambda=" in result.output
    loaded = cd.load_boundaries(out)
    assert loaded[1].corner == 1
    # sample scatter around the true curve is at the lattice scale
    assert loaded[1].rms < 2.5 / 100


def test_fit_boundary_too_many_segments(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "20").exit_code == 0
    region_csv = str(tmp_path / "region.csv")
    assert runner.invoke(
        main, ["regions", table_path, "--format", "raw", "-o", region_csv]
    ).exit_code == 0
    result = runner.invoke(
        main,
        ["fit-boundary", region_csv, "-j", "1", "-K", "40",
         "-o", str(tmp_path / "g.json")],
    )
    assert result.exit_code == 1
    assert "error:" in result.output


def test_fit_boundary_rejects_truncated_region_csv(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "60").exit_code == 0
    region_csv = tmp_path / "region.csv"
    assert runner.invoke(
        main, ["regions", table_path, "-o", str(region_csv)]
    ).exit_code == 0
    lines = region_csv.read_bytes().splitlines(keepends=True)
    region_csv.write_bytes(b"".join(lines[: 2 + 1000]))
    result = runner.invoke(
        main,
        ["fit-boundary", str(region_csv), "-j", "1", "-o", str(tmp_path / "g.json")],
    )
    assert result.exit_code == 1
    assert result.output.startswith("error: ")
    assert len(result.output.strip().splitlines()) == 1
    assert "1000 data rows" in result.output
    assert not (tmp_path / "g.json").exists()


def scipy_modules_after(code: str, cwd) -> list[str]:
    """scipy modules loaded by ``code`` run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(cd.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (
        f"{code}\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_cli_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    loaded = scipy_modules_after("import changediag.cli", tmp_path)
    for heavy in ("scipy.optimize", "scipy.interpolate", "scipy.sparse"):
        assert heavy not in loaded


def test_version_and_table_simulation_load_no_scipy(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "8").exit_code == 0
    args = [["--version"],
            ["simulate", model_path, "--table", table_path, "--runs", "50",
             "--threads", "1", "-o", str(tmp_path / "sim.json")]]
    code = (
        "from changediag.cli import main\n"
        f"for args in {args!r}:\n"
        "    assert main(args, standalone_mode=False) in (None, 0)\n"
    )
    assert scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "sim.json").exists()


def test_solve_loads_no_scipy_optimize(model_path, tmp_path):
    """solve builds T with numpy alone: neither scipy.optimize nor
    scipy.sparse, nor any other scipy module, is loaded."""
    args = ["solve", model_path, "-Q", "8", "-o", str(tmp_path / "t.cdvt")]
    code = (
        "from changediag.cli import main\n"
        f"assert main({args!r}, standalone_mode=False) in (None, 0)\n"
    )
    loaded = scipy_modules_after(code, tmp_path)
    assert not [m for m in loaded if m.startswith("scipy.optimize")]
    assert loaded == []
    assert (tmp_path / "t.cdvt").exists()


def test_regions_and_fit_boundary_load_no_scipy(runner, model_path, tmp_path):
    """regions at the table's own stop_tol and at another (which rebuilds T)
    and fit-boundary for both corners load no scipy module."""
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "60").exit_code == 0
    curves = [str(tmp_path / f"b{j}.json") for j in (1, 2)]
    args = [
        ["regions", table_path, "-o", str(tmp_path / "r.csv")],
        ["regions", table_path, "--stop-tol", "1e-3", "-o", str(tmp_path / "r2.csv")],
        *(["fit-boundary", str(tmp_path / "r.csv"), "-j", str(j), "-o", out]
          for j, out in zip((1, 2), curves)),
    ]
    code = (
        "from changediag.cli import main\n"
        f"for args in {args!r}:\n"
        "    assert main(args, standalone_mode=False) in (None, 0)\n"
    )
    assert scipy_modules_after(code, tmp_path) == []
    assert (tmp_path / "r2.csv").exists()
    both = tmp_path / "bb.json"
    both.write_text(json.dumps([json.loads(Path(out).read_text()) for out in curves]))
    result = runner.invoke(main, ["simulate", model_path, "--boundaries", str(both),
                                  "--runs", "200", "-o", str(tmp_path / "sim.json")])
    assert result.exit_code == 0, result.output
    manifest = json.loads((tmp_path / "sim.json.manifest.json").read_text())
    assert manifest["report"]["runs_per_s"] > 0


def test_simulate_stop_at_zero_uniform_cost(runner, tmp_path):
    base = instances.FIGURES["merged"]
    spec = cd.ProblemSpec(
        alphabet_size=4, num_types=2, p0=0.0, p=0.05,
        nu=base.nu, f=base.f, c=1.0,
        a=np.array([[7.0, 7.0], [0.0, 3.0], [3.0, 0.0]]),
    )
    model = tmp_path / "uniform.json"
    cd.save_spec(spec, str(model))
    out = str(tmp_path / "risk.json")
    result = runner.invoke(
        main,
        ["simulate", str(model), "--baseline", "stop-at-0",
         "--runs", "200", "-o", out],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "risk.json").read_text())
    assert doc["mean"] == 7.0
    assert doc["std_error"] == 0.0
    assert doc["cap_rate"] == 0.0


def test_simulate_same_seed_identical_output(runner, model_path, tmp_path):
    args = ["simulate", model_path, "--baseline", "threshold-0.8",
            "--runs", "500", "--seed", "4"]
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert runner.invoke(main, [*args, "-o", out1]).exit_code == 0
    assert runner.invoke(main, [*args, "-o", out2]).exit_code == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_simulate_thread_count_does_not_change_output(runner, model_path, tmp_path):
    args = ["simulate", model_path, "--baseline", "threshold-0.8",
            "--runs", "400", "--seed", "6"]
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert runner.invoke(main, [*args, "-o", out1, "--threads", "1"]).exit_code == 0
    assert runner.invoke(main, [*args, "-o", out2, "--threads", "4"]).exit_code == 0
    assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()


def test_simulate_table_strategy_matches_table_value(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "100").exit_code == 0
    out = str(tmp_path / "risk.json")
    trace = str(tmp_path / "trace.csv")
    result = runner.invoke(
        main,
        ["simulate", model_path, "--table", table_path, "--runs", "20000",
         "--seed", "3", "--trace", trace, "-o", out],
    )
    assert result.exit_code == 0, result.output
    doc = json.loads((tmp_path / "risk.json").read_text())
    table, spec = cd.load_table(table_path)
    want = cd.interpolate(table, cd.initial_posterior(spec))
    slack = 3 * doc["std_error"] + 5 * spec.c / 100 + table.tol
    assert abs(doc["mean"] - want) <= slack
    with open(trace, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "mu", "tau", "d", "cost"]
    assert len(rows) == 20001


def test_diagnose_alarm_matches_library_run(runner, model_path, tmp_path):
    spec = instances.FIGURES["merged"]
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "100").exit_code == 0
    table, _ = cd.load_table(table_path)
    rec = replay(spec, TableStrategy(table), seed=2, run_index=5)
    stream = tmp_path / "stream.txt"
    stream.write_text("".join(f"{x}\n" for x in rec.observations) + "0\n" * 50)
    result = runner.invoke(
        main,
        ["diagnose", model_path, "--table", table_path, "--stream", str(stream),
         "--echo-posterior"],
    )
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[-1] == f"ALARM n={rec.tau} d={rec.d}"
    echoed = [json.loads(line) for line in lines[:-1]]
    assert len(echoed) == rec.tau
    if echoed:
        assert echoed[0]["n"] == 1


def test_diagnose_rejects_bad_symbols(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "40").exit_code == 0
    out_of_range = tmp_path / "bad.txt"
    out_of_range.write_text("0\n9\n")
    result = runner.invoke(
        main,
        ["diagnose", model_path, "--table", table_path, "--stream", str(out_of_range)],
    )
    assert result.exit_code == 3
    assert "outside alphabet" in result.output
    not_a_number = tmp_path / "worse.txt"
    not_a_number.write_text("frog\n")
    result = runner.invoke(
        main,
        ["diagnose", model_path, "--table", table_path, "--stream", str(not_a_number)],
    )
    assert result.exit_code == 3
    assert "not a symbol" in result.output


def test_diagnose_eof_reports_last_posterior(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "40").exit_code == 0
    stream = tmp_path / "short.txt"
    stream.write_text("0\n1\n")
    result = runner.invoke(
        main,
        ["diagnose", model_path, "--table", table_path, "--stream", str(stream)],
    )
    assert result.exit_code == 4
    assert "stream ended before alarm" in result.output
    tail = result.output.rsplit("last posterior ", 1)[1].strip()
    pi = json.loads(tail)
    assert len(pi) == 3
    assert sum(pi) == pytest.approx(1.0, abs=1e-9)


def test_derive_sa_command(runner, tmp_path):
    sa_path = tmp_path / "system.json"
    cd.save_sa_spec(instances.sa_two_component(cd.phi_min_index(2)), str(sa_path))
    out = str(tmp_path / "derived.json")
    result = runner.invoke(
        main,
        ["derive-sa", str(sa_path), "--delay-cost", "1.0",
         "--false-alarm", "10", "--misdiagnosis", "3", "-o", out],
    )
    assert result.exit_code == 0, result.output
    spec = cd.load_spec(out)
    assert spec.p0 == 0.0
    assert spec.p == pytest.approx(0.19, abs=1e-15)
    assert spec.nu[0] == pytest.approx(10 / 19, rel=1e-12)
    assert spec.nu[1] == pytest.approx(9 / 19, rel=1e-12)
    assert spec.a.tolist() == [[10.0, 10.0], [0.0, 3.0], [3.0, 0.0]]
    manifest = json.loads((tmp_path / "derived.json.manifest.json").read_text())
    assert manifest["report"]["num_types"] == 2


def test_derive_sa_cost_flag_conflicts(runner, tmp_path):
    sa_path = tmp_path / "system.json"
    cd.save_sa_spec(instances.sa_two_component(cd.phi_min_index(2)), str(sa_path))
    costs = tmp_path / "a.json"
    costs.write_text("[[10, 10], [0, 3], [3, 0]]\n")
    result = runner.invoke(
        main,
        ["derive-sa", str(sa_path), "--delay-cost", "1.0",
         "--false-alarm", "10", "--misdiagnosis", "3",
         "--terminal-costs", str(costs), "-o", str(tmp_path / "x.json")],
    )
    assert result.exit_code == 1
    assert "excludes" in result.output


def assert_one_error_line(result):
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output.startswith("error: ")
    assert len(result.output.strip().splitlines()) == 1


def test_table_of_another_model_is_refused(runner, model_path, tmp_path):
    """A table only drives the model it was solved for: a 2-type model of
    other costs and a 3-type model both fail cleanly on a merged table."""
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "40").exit_code == 0
    stream = tmp_path / "stream.txt"
    stream.write_text("0\n" * 20)
    for name, spec in [("split", instances.FIGURES["split"]),
                       ("three", instances.three_type())]:
        other = str(tmp_path / f"{name}.json")
        cd.save_spec(spec, other)
        result = runner.invoke(
            main, ["simulate", other, "--table", table_path, "--runs", "10",
                   "-o", str(tmp_path / "sim.json")],
        )
        assert_one_error_line(result)
        assert "different model" in result.output
        result = runner.invoke(
            main, ["diagnose", other, "--table", table_path, "--stream", str(stream)],
        )
        assert_one_error_line(result)
    assert not (tmp_path / "sim.json").exists()


def test_fit_boundary_rejects_a_corner_outside_the_model(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "40").exit_code == 0
    region_csv = str(tmp_path / "region.csv")
    assert runner.invoke(main, ["regions", table_path, "-o", region_csv]).exit_code == 0
    for j in ("0", "3"):
        result = runner.invoke(
            main, ["fit-boundary", region_csv, "-j", j, "-o", str(tmp_path / "g.json")],
        )
        assert_one_error_line(result)
        assert "not a type" in result.output
    assert not (tmp_path / "g.json").exists()


def test_boundaries_need_a_two_type_model_and_every_curve(runner, model_path, tmp_path):
    curves = [
        cd.SplineBoundary(corner=j, knots=np.linspace(0.0, np.pi / 3, 5),
                          coefficients=np.full(7, 0.3), lam=1.0, rms=0.0)
        for j in (1, 2)
    ]
    both, only_one = str(tmp_path / "both.json"), str(tmp_path / "one.json")
    cd.save_boundaries(curves, both)
    cd.save_boundaries(curves[:1], only_one)
    three = str(tmp_path / "three.json")
    cd.save_spec(instances.three_type(), three)
    stream = tmp_path / "stream.txt"
    stream.write_text("0\n" * 20)
    sim_out = str(tmp_path / "sim.json")
    for model, curves_path, message in [
        (three, both, "2-type model"),
        (model_path, only_one, "no curve for type 2"),
    ]:
        result = runner.invoke(
            main, ["simulate", model, "--boundaries", curves_path, "--runs", "10",
                   "-o", sim_out],
        )
        assert_one_error_line(result)
        assert message in result.output
        result = runner.invoke(
            main, ["diagnose", model, "--boundaries", curves_path,
                   "--stream", str(stream)],
        )
        assert_one_error_line(result)
        assert message in result.output
    result = runner.invoke(
        main, ["simulate", model_path, "--boundaries", both, "--runs", "10",
               "--threads", "1", "-o", sim_out],
    )
    assert result.exit_code == 0, result.output


def test_simulate_rejects_bad_monte_carlo_inputs(runner, model_path, tmp_path):
    out = str(tmp_path / "sim.json")
    base = ["simulate", model_path, "--baseline", "stop-at-5", "-o", out]
    for extra, message in [
        (["--seed", "-1"], "seed=-1"),
        (["--seed", str(2**64)], f"seed={2**64}"),
        (["--runs", "0"], "runs=0"),
    ]:
        result = runner.invoke(main, [*base, *extra])
        assert_one_error_line(result)
        assert message in result.output
    assert not (tmp_path / "sim.json").exists()
    result = runner.invoke(main, [*base, "--seed", str(2**64 - 1), "--runs", "50"])
    assert result.exit_code == 0, result.output


def test_simulate_manifest_reports_rate_tau_quantiles_and_cap_rate(
        runner, model_path, tmp_path):
    out = str(tmp_path / "sim.json")
    result = runner.invoke(
        main, ["simulate", model_path, "--baseline", "threshold-0.8", "--runs", "300",
               "--seed", "5", "--n-max", "12", "--threads", "1", "-o", out],
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "sim.json.manifest.json").read_text())["report"]
    est = cd.estimate_risk(instances.FIGURES["merged"], cd.PosteriorThreshold(0.8),
                           runs=300, seed=5, n_max=12)
    assert report["runs_per_s"] > 0
    taus = np.sort(est.tau)
    assert report["tau"] == {"p50": int(taus[149]), "p90": int(taus[269]),
                             "p99": int(taus[296]), "max": 12}
    assert report["cap_rate"] == est.cap_rate > 0


def test_diagnose_missing_stream_file(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "40").exit_code == 0
    result = runner.invoke(
        main, ["diagnose", model_path, "--table", table_path,
               "--stream", str(tmp_path / "nonexistent.txt")],
    )
    assert_one_error_line(result)
    assert "nonexistent.txt" in result.output


def test_boundaries_file_missing_a_field(runner, model_path, tmp_path):
    curves = [
        cd.SplineBoundary(corner=j, knots=np.linspace(0.0, np.pi / 3, 5),
                          coefficients=np.full(7, 0.3), lam=1.0, rms=0.0)
        for j in (1, 2)
    ]
    good = str(tmp_path / "both.json")
    cd.save_boundaries(curves, good)
    for field in ("knots", "coefficients", "lambda", "rms"):
        doc = json.loads(Path(good).read_text())
        del doc[1][field]
        broken = tmp_path / f"no-{field}.json"
        broken.write_text(json.dumps(doc))
        result = runner.invoke(
            main, ["simulate", model_path, "--boundaries", str(broken), "--runs", "10",
                   "-o", str(tmp_path / "sim.json")],
        )
        assert_one_error_line(result)
        assert repr(field) in result.output
    assert not (tmp_path / "sim.json").exists()


DERIVE_COSTS = ["--delay-cost", "1", "--false-alarm", "1", "--misdiagnosis", "1"]


@pytest.fixture(scope="module")
def artefacts(tmp_path_factory):
    """A model, its tables at Q=20 and Q=10, the Q=20 region CSV, a Q=20
    table of another model, boundaries files with a NaN coefficient and with
    two extra coefficients, system files for derive-sa, and the malformed
    documents the one JSON reader refuses: a table sidecar that is an array,
    curves with an ill-typed corner or knots or a list for lambda, two curves
    for one corner, a model with a fractional type count or a list for p0,
    models and a cost matrix holding booleans, Q=20 tables with NaN values and
    with a label byte of 200, and a file that is not JSON."""
    root = tmp_path_factory.mktemp("artefacts")
    spec = instances.FIGURES["merged"]
    cd.save_spec(spec, str(root / "model.json"))
    doc = spec_to_dict(spec)
    doc["densities"][1][2] = math.nan
    (root / "model-nan-density.json").write_text(json.dumps(doc))
    doc = {**spec_to_dict(spec), "num_types": 2.9}
    (root / "model-fractional-types.json").write_text(json.dumps(doc))
    doc = {**spec_to_dict(spec), "p0": True}
    (root / "model-p0-true.json").write_text(json.dumps(doc))
    doc = {**spec_to_dict(spec), "p0": [0.5]}
    (root / "model-p0-list.json").write_text(json.dumps(doc))
    doc = spec_to_dict(spec)
    doc["densities"][0] = [True, False, False, False]
    (root / "model-boolean-density.json").write_text(json.dumps(doc))
    for Q in (20, 10):
        table = cd.value_iterate(spec, cd.build_grid(2, Q))
        cd.save_table(table, spec, str(root / f"t{Q}.cdvt"))
        if Q == 20:
            cd.export_region(cd.extract_region(spec, table), str(root / "r.csv"), "raw")
            cd.save_table(table, spec, str(root / "t20-array-sidecar.cdvt"))
            (root / "t20-array-sidecar.cdvt.json").write_text("[1]")
            bad = dataclasses.replace(table, values=np.full_like(table.values, np.nan))
            cd.save_table(bad, spec, str(root / "t20-nan.cdvt"))
            bad = dataclasses.replace(table, labels=table.labels.copy())
            bad.labels[5] = -56  # written as the byte 200
            cd.save_table(bad, spec, str(root / "t20-label-200.cdvt"))
    skew = instances.FIGURES["split_skew"]
    cd.save_table(cd.value_iterate(skew, cd.build_grid(2, 20)), skew, str(root / "t20-skew.cdvt"))
    curves = [
        cd.SplineBoundary(corner=j, knots=np.linspace(0.0, np.pi / 3, 5),
                          coefficients=np.full(7, 0.3), lam=1.0, rms=0.0)
        for j in (1, 2)
    ]
    cd.save_boundaries(curves, str(root / "nan-curve.json"))
    doc = json.loads((root / "nan-curve.json").read_text())
    doc[0]["coefficients"][3] = math.nan
    (root / "nan-curve.json").write_text(json.dumps(doc))
    doc[0]["coefficients"][3] = 0.3
    doc[0]["coefficients"] += [5.0, 9.0]
    (root / "extra-coefficients.json").write_text(json.dumps(doc))
    doc[0]["coefficients"] = doc[1]["coefficients"]
    for name, key, value in [("corner-null", "corner", None),
                             ("knots-object", "knots", {"a": 1}),
                             ("corner-fractional", "corner", 1.7),
                             ("lambda-list", "lambda", [1, 2])]:
        (root / f"{name}.json").write_text(
            json.dumps([{**doc[0], key: value}, doc[1]]))
    third = {**doc[0], "coefficients": [0.06] * 7}
    (root / "two-curves-for-corner-1.json").write_text(json.dumps([*doc, third]))
    cd.save_sa_spec(instances.sa_two_component(cd.phi_min_index(2)), str(root / "sa.json"))
    (root / "tc-object.json").write_text('{"a": 1}')
    (root / "tc-boolean.json").write_text("[[true, true], [false, true], [true, false]]")
    (root / "sa-list.json").write_text("[1]")
    (root / "bad.json").write_text("{\n")
    (root / "sa-phi-int.json").write_text(json.dumps({
        "component_failure_probs": [0.1],
        "phi": [1],
        "label_densities": [[0.5, 0.5], [0.2, 0.8]],
    }))
    return root


@pytest.mark.parametrize(
    "args,message",
    [
        (["solve", "model.json", "--tol", "0"], "tol=0.0 must be positive"),
        (["solve", "model.json", "--max-iter", "0"], "max_iter=0 must be at least 1"),
        (["solve", "model.json", "-Q", "0"], "Q=0"),
        (["regions", "t20.cdvt", "--compare-table", "t10.cdvt"], "regions on one grid"),
        (["regions", "t20.cdvt", "--stop-tol", "nan"], "stop_tol=nan must be finite"),
        (["fit-boundary", "r.csv", "-j", "1", "-K", "0"], "K=0 spline segments"),
        (["fit-boundary", "r.csv", "-j", "1", "-K", "-2"], "K=-2 spline segments"),
        (["fit-boundary", "r.csv", "-j", "1", "--lam", "-1"], "lam=-1.0 must be finite"),
        (["fit-boundary", "r.csv", "-j", "1", "--lam", "nan"], "lam=nan must be finite"),
        (["simulate", "model.json", "--baseline", "stop-at-5", "--n-max", "-5"],
         "n_max=-5 must be nonnegative"),
        (["simulate", "model.json", "--baseline", "stop-at-5", "--threads", "0"],
         "threads=0 must be at least 1"),
        (["derive-sa", "sa-list.json", *DERIVE_COSTS],
         "system document must be a JSON object"),
        (["derive-sa", "sa-phi-int.json", *DERIVE_COSTS],
         "malformed system document: "),
        (["solve", "model.json", "-Q", "10", "--tol", "nan"], "tol=nan must be finite"),
        (["solve", "model.json", "-Q", "10", "--tol", "inf"], "tol=inf must be finite"),
        (["simulate", "model.json", "--baseline", "threshold-nan", "--runs", "5"],
         "threshold=nan must lie in [0, 1]"),
        (["simulate", "model.json", "--baseline", "threshold-1.5", "--runs", "5"],
         "threshold=1.5 must lie in [0, 1]"),
        (["simulate", "model.json", "--boundaries", "nan-curve.json", "--runs", "5"],
         "boundary curve for corner 1 has a non-finite knot or coefficient"),
        (["regions", "t20.cdvt", "--compare-table", "t20-skew.cdvt"],
         "t20-skew.cdvt: the table was solved for a different model"),
        (["simulate", "model.json", "--boundaries", "extra-coefficients.json",
          "--runs", "5"],
         "boundary curve for corner 1 has coefficients of shape (9,), expected (7,)"),
        (["derive-sa", "sa.json", "--delay-cost", "0.1",
          "--terminal-costs", "tc-object.json"],
         "tc-object.json: terminal costs must be a numeric matrix"),
        (["simulate", "model.json", "--baseline", "stop-at--3", "--runs", "5"],
         "k=-3 must be nonnegative"),
        (["derive-sa", "sa.json", "--delay-cost", "nan", "--false-alarm", "1",
          "--misdiagnosis", "1"],
         "c=nan is not finite"),
        (["solve", "model-nan-density.json", "-Q", "10"], "f[1][2]=nan is not finite"),
        (["regions", "t20-array-sidecar.cdvt"],
         "t20-array-sidecar.cdvt.json: table sidecar must be a JSON object"),
        (["simulate", "model.json", "--table", "t20-array-sidecar.cdvt", "--runs", "5"],
         "t20-array-sidecar.cdvt.json: table sidecar must be a JSON object"),
        (["simulate", "model.json", "--boundaries", "corner-null.json", "--runs", "5"],
         "malformed boundary curve: None is not an integer"),
        (["simulate", "model.json", "--boundaries", "knots-object.json", "--runs", "5"],
         "malformed boundary curve: "),
        (["simulate", "model.json", "--boundaries", "corner-fractional.json",
          "--runs", "5"],
         "malformed boundary curve: 1.7 is not an integer"),
        (["solve", "model-fractional-types.json", "-Q", "10"],
         "malformed model document: 2.9 is not an integer"),
        (["simulate", "model.json", "--boundaries", "two-curves-for-corner-1.json",
          "--runs", "5"],
         "two boundary curves for corner 1"),
        (["solve", "model-p0-true.json", "-Q", "10"],
         "malformed model document: p0 holds True, not a number"),
        (["solve", "model-boolean-density.json", "-Q", "10"],
         "malformed model document: densities holds True, not a number"),
        (["solve", "model-p0-list.json", "-Q", "10"],
         "malformed model document: p0 is [0.5], not one number"),
        (["simulate", "model.json", "--boundaries", "lambda-list.json", "--runs", "5"],
         "malformed boundary curve: lambda is [1, 2], not one number"),
        (["derive-sa", "sa.json", "--delay-cost", "1",
          "--terminal-costs", "tc-boolean.json"],
         "tc-boolean.json: terminal costs must be a numeric matrix "
         "(the matrix holds True, not a number)"),
        (["simulate", "model.json", "--table", "t20-nan.cdvt", "--runs", "200",
          "--n-max", "300"],
         "t20-nan.cdvt: value nan at node 0 is not finite"),
        (["regions", "t20-nan.cdvt"], "t20-nan.cdvt: value nan at node 0 is not finite"),
        (["regions", "t20-label-200.cdvt"], "t20-label-200.cdvt: labels outside 0..2"),
        (["solve", "bad.json", "-Q", "10"], "bad.json: not valid JSON: "),
        (["simulate", "model.json", "--boundaries", "bad.json", "--runs", "5"],
         "bad.json: not valid JSON: "),
        (["derive-sa", "sa.json", "--delay-cost", "1", "--terminal-costs", "bad.json"],
         "bad.json: not valid JSON: "),
        (["simulate", "model.json", "--baseline", "stop-at-x", "--runs", "5"],
         "unknown baseline 'stop-at-x' (use stop-at-<k> or threshold-<t>)"),
        (["simulate", "model.json", "--baseline", "stop-at-1.5", "--runs", "5"],
         "unknown baseline 'stop-at-1.5' (use stop-at-<k> or threshold-<t>)"),
        (["simulate", "model.json", "--baseline", "threshold-abc", "--runs", "5"],
         "unknown baseline 'threshold-abc' (use stop-at-<k> or threshold-<t>)"),
        (["simulate", "model.json", "--baseline", "threshold-2", "--runs", "5"],
         "threshold=2.0 must lie in [0, 1]"),
        (["simulate", "model.json", "--table", "t20.cdvt", "--baseline", "stop-at-3"],
         "give exactly one of --table, --boundaries, --baseline"),
    ],
    ids=[
        "solve-tol-0",
        "solve-max-iter-0",
        "solve-Q-0",
        "regions-compare-other-Q",
        "regions-stop-tol-nan",
        "fit-K-0",
        "fit-K-minus-2",
        "fit-lam-minus-1",
        "fit-lam-nan",
        "simulate-n-max-minus-5",
        "simulate-threads-0",
        "derive-sa-list-document",
        "derive-sa-phi-entry-int",
        "solve-tol-nan",
        "solve-tol-inf",
        "simulate-threshold-nan",
        "simulate-threshold-1.5",
        "simulate-boundary-nan-coefficient",
        "regions-compare-other-model",
        "simulate-boundary-extra-coefficients",
        "derive-sa-terminal-costs-object",
        "simulate-stop-at-minus-3",
        "derive-sa-delay-cost-nan",
        "solve-nan-density",
        "regions-array-sidecar",
        "simulate-array-sidecar",
        "simulate-boundary-corner-null",
        "simulate-boundary-knots-object",
        "simulate-boundary-corner-1.7",
        "solve-num-types-2.9",
        "simulate-two-curves-for-corner-1",
        "solve-p0-true",
        "solve-boolean-density",
        "solve-p0-list",
        "simulate-boundary-lambda-list",
        "derive-sa-boolean-terminal-costs",
        "simulate-nan-table",
        "regions-nan-table",
        "regions-label-200",
        "solve-bad-json",
        "simulate-boundaries-bad-json",
        "derive-sa-terminal-costs-bad-json",
        "simulate-baseline-stop-at-x",
        "simulate-baseline-stop-at-1.5",
        "simulate-baseline-threshold-abc",
        "simulate-threshold-2",
        "simulate-table-and-baseline",
    ],
)
def test_bad_input_ends_in_one_error_line(artefacts, monkeypatch, args, message):
    """Every command turns a rejected input into exit 1 and one stderr line,
    with no traceback and no output file."""
    monkeypatch.chdir(artefacts)
    result = CliRunner().invoke(main, [*args, "-o", "out"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), result.stderr
    assert message in lines[0]
    assert not (artefacts / "out").exists()


@pytest.mark.parametrize(
    "extra",
    [[], ["--table", "t20.cdvt", "--boundaries", "nan-curve.json"]],
    ids=["neither", "both"],
)
def test_diagnose_strategy_error_names_only_its_options(artefacts, monkeypatch, extra):
    """diagnose has no --baseline, so its refusal does not name one."""
    monkeypatch.chdir(artefacts)
    result = CliRunner().invoke(main, ["diagnose", "model.json", *extra], input="0\n")
    assert result.exit_code == 1, result.output
    assert result.stdout == ""
    assert result.stderr == "error: give exactly one of --table, --boundaries\n"
