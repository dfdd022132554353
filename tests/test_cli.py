import csv
import dataclasses
import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import click
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
    # the format follows from M, so the CSV header records it and the
    # manifest has no option for it; the slack is the table's, so the
    # manifest reports it beside the region report
    assert manifest["parameters"] == {}
    assert manifest["report"] == {**report, "stop_tol": cd.load_table(table_path)[0].stop_tol}
    with open(out) as fh:
        assert fh.readline().endswith(" format=embedded\n")


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
        main, ["regions", table_path, "-o", region_csv]
    ).exit_code == 0
    out = str(tmp_path / "g1.json")
    result = runner.invoke(main, ["fit-boundary", region_csv, "-j", "1", "-o", out])
    assert result.exit_code == 0, result.output
    assert "rms=" in result.output and "lambda=" in result.output
    assert "cv_sse=" in result.output
    # cross-validation picks the smoothing, which the report records
    manifest = json.loads((tmp_path / "g1.json.manifest.json").read_text())
    assert manifest["parameters"] == {"j": 1, "K": 12}
    assert manifest["report"]["cv_sse"] > 0.0
    loaded = cd.load_boundaries(out)
    assert loaded[1].corner == 1
    # sample scatter around the true curve is at the lattice scale
    assert loaded[1].rms < 2.5 / 100


def test_fit_boundary_too_many_segments(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "20").exit_code == 0
    region_csv = str(tmp_path / "region.csv")
    assert runner.invoke(
        main, ["regions", table_path, "-o", region_csv]
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


def fresh_python(code: str, cwd) -> str:
    """stdout of ``code`` run in a fresh interpreter that imports this
    package."""
    src = os.path.dirname(os.path.dirname(cd.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True,
    ).stdout


def modules_after(code: str, cwd, package: str = "scipy") -> list[str]:
    """Modules of ``package`` (scipy unless named) loaded by ``code`` run in
    a fresh interpreter."""
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m == {package!r} "
        f"or m.startswith({package + '.'!r}))))"
    )
    return json.loads(fresh_python(probe, cwd).strip().splitlines()[-1])


def modules_run(code: str, cwd) -> list[str]:
    """The ``changediag`` submodules whose body ``code`` ran in a fresh
    interpreter.  The package registers its library modules lazily, and
    each stays a ``_LazyModule`` until its first attribute access; the probe
    reads ``type()``, because any attribute access would run the body."""
    probe = (
        f"{code}\nimport importlib.util, json, sys\n"
        "print(json.dumps(sorted(m for m, mod in sys.modules.items() "
        "if m.startswith('changediag.') and type(mod) is not importlib.util._LazyModule)))"
    )
    return json.loads(fresh_python(probe, cwd).strip().splitlines()[-1])


def run_commands(arg_lists) -> str:
    """Code that runs each CLI argument list in turn, each to exit 0."""
    return (
        "from changediag.cli import main\n"
        f"for args in {arg_lists!r}:\n"
        "    assert main(args, standalone_mode=False) in (None, 0), args\n"
    )


def boundary_chain(model_path, tmp_path) -> tuple[str, str]:
    """Code for solve -> regions -> fit-boundary -j 1 and -j 2 on "merged"
    at Q=60, which then joins the two curves into bb.json, and code for
    simulate --boundaries and diagnose --boundaries with them."""
    t, csv, both = (str(tmp_path / name) for name in ("t.cdvt", "r.csv", "bb.json"))
    curves = [str(tmp_path / f"b{j}.json") for j in (1, 2)]
    (tmp_path / "stream.txt").write_text("3\n" * 200)
    build = run_commands([
        ["solve", model_path, "-Q", "60", "-o", t],
        ["regions", t, "-o", csv],
        *(["fit-boundary", csv, "-j", str(j), "-o", out] for j, out in zip((1, 2), curves)),
    ]) + (
        "import json, pathlib\n"
        f"pathlib.Path({both!r}).write_text(json.dumps("
        f"[json.loads(pathlib.Path(p).read_text()) for p in {curves!r}]))\n"
    )
    use = run_commands([
        ["simulate", model_path, "--boundaries", both, "--runs", "200",
         "-o", str(tmp_path / "sim.json")],
        ["diagnose", model_path, "--boundaries", both,
         "--stream", str(tmp_path / "stream.txt")],
    ])
    return build, use


def test_chain_runs_with_scipy_blocked(model_path, tmp_path):
    """Nothing in the package needs scipy: with ``import scipy`` made to
    fail, the whole chain through the spline rule runs."""
    build, use = boundary_chain(model_path, tmp_path)
    out = fresh_python("import sys\nsys.modules['scipy'] = None\n" + build + use, tmp_path)
    assert (tmp_path / "sim.json").exists()
    assert out.splitlines()[-1].startswith("ALARM n=")


def test_boundary_rules_load_no_scipy(model_path, tmp_path):
    """simulate --boundaries and diagnose --boundaries evaluate the curves
    with numpy alone: no scipy module is loaded."""
    build, use = boundary_chain(model_path, tmp_path)
    fresh_python(build, tmp_path)
    assert modules_after(use, tmp_path) == []
    assert (tmp_path / "sim.json").exists()


def test_version_runs_no_library_module_and_loads_no_numpy(tmp_path):
    code = run_commands([["--version"]])
    assert modules_run(code, tmp_path) == ["changediag.cli"]
    assert modules_after(code, tmp_path, "numpy") == []


def test_solve_runs_only_model_posterior_and_solver(model_path, tmp_path):
    code = run_commands([["solve", model_path, "-Q", "8", "-o", str(tmp_path / "t.cdvt")]])
    assert modules_run(code, tmp_path) == [
        "changediag.cli", "changediag.model", "changediag.posterior", "changediag.solver",
    ]


def test_regions_runs_neither_boundary_nor_simulator(runner, model_path, tmp_path):
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "20").exit_code == 0
    ran = modules_run(run_commands([["regions", table_path, "-o", str(tmp_path / "r.csv")]]), tmp_path)
    assert "changediag.regions" in ran
    assert "changediag.boundary" not in ran
    assert "changediag.simulator" not in ran


def test_fit_boundary_does_not_run_simulator(runner, model_path, tmp_path):
    table_path, csv = str(tmp_path / "t.cdvt"), str(tmp_path / "r.csv")
    assert solve_to(runner, model_path, table_path, "-Q", "60").exit_code == 0
    assert runner.invoke(main, ["regions", table_path, "-o", csv]).exit_code == 0
    args = ["fit-boundary", csv, "-j", "1", "-o", str(tmp_path / "b1.json")]
    ran = modules_run(run_commands([args]), tmp_path)
    assert "changediag.boundary" in ran
    assert "changediag.simulator" not in ran


def test_cli_import_leaves_heavy_scipy_modules_unloaded(tmp_path):
    loaded = modules_after("import changediag.cli", tmp_path)
    for heavy in ("scipy.optimize", "scipy.interpolate", "scipy.sparse"):
        assert heavy not in loaded


def test_version_and_table_simulation_load_no_scipy(runner, model_path, tmp_path):
    """Neither loads scipy, and a single-thread simulation starts no thread
    pool, so it leaves ``concurrent.futures`` unloaded too."""
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
    assert modules_after(code, tmp_path) == []
    assert modules_after(code, tmp_path, "concurrent.futures") == []
    assert (tmp_path / "sim.json").exists()


def test_solve_loads_no_scipy_optimize(model_path, tmp_path):
    """solve builds T with numpy alone: neither scipy.optimize nor
    scipy.sparse, nor any other scipy module, is loaded."""
    args = ["solve", model_path, "-Q", "8", "-o", str(tmp_path / "t.cdvt")]
    code = (
        "from changediag.cli import main\n"
        f"assert main({args!r}, standalone_mode=False) in (None, 0)\n"
    )
    loaded = modules_after(code, tmp_path)
    assert not [m for m in loaded if m.startswith("scipy.optimize")]
    assert loaded == []
    assert (tmp_path / "t.cdvt").exists()


def test_fit_boundary_loads_no_numpy_ma(runner, model_path, tmp_path):
    """Cross-validation picks its folds without ``np.setdiff1d``, whose
    import of ``numpy.ma`` would cost every fit-boundary process."""
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "60").exit_code == 0
    csv = str(tmp_path / "r.csv")
    assert runner.invoke(main, ["regions", table_path, "-o", csv]).exit_code == 0
    args = ["fit-boundary", csv, "-j", "1", "-o", str(tmp_path / "b1.json")]
    code = (
        "from changediag.cli import main\n"
        f"assert main({args!r}, standalone_mode=False) in (None, 0)\n"
    )
    assert modules_after(code, tmp_path, "numpy.ma") == []
    assert (tmp_path / "b1.json").exists()


def test_regions_and_fit_boundary_load_no_scipy(runner, model_path, tmp_path):
    """regions and fit-boundary for both corners load no scipy module."""
    table_path = str(tmp_path / "t.cdvt")
    assert solve_to(runner, model_path, table_path, "-Q", "60").exit_code == 0
    curves = [str(tmp_path / f"b{j}.json") for j in (1, 2)]
    args = [
        ["regions", table_path, "-o", str(tmp_path / "r.csv")],
        *(["fit-boundary", str(tmp_path / "r.csv"), "-j", str(j), "-o", out]
          for j, out in zip((1, 2), curves)),
    ]
    code = (
        "from changediag.cli import main\n"
        f"for args in {args!r}:\n"
        "    assert main(args, standalone_mode=False) in (None, 0)\n"
    )
    assert modules_after(code, tmp_path) == []
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
        p0=0.0, p=0.05,
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
    # int() would read "1_0" as 10 and "٣" as 3
    for line in ("frog", "1_0", "\u0663"):
        not_a_number.write_text(f"{line}\n")
        result = runner.invoke(
            main,
            ["diagnose", model_path, "--table", table_path, "--stream", str(not_a_number)],
        )
        assert result.exit_code == 3
        assert f"step 1: not a symbol: {line!r}" in result.output


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
    for one corner, a model with a fractional type count, with a type count
    its densities do not have or with a list for p0, models and cost
    matrices holding booleans or of one dimension, Q=20 tables with NaN
    values, with a label byte of 200, without a sidecar, as a version-1
    pair, with a string for a flag, with converged against the criterion,
    with an unknown criterion, with a NaN stop_tol, with Q=0 or a Q over the
    grid cap, with node data one byte short or long, and with the node data
    of the Q=20 table of another model, and a file that is not JSON."""
    root = tmp_path_factory.mktemp("artefacts")
    spec = instances.FIGURES["merged"]
    cd.save_spec(spec, str(root / "model.json"))
    doc = spec_to_dict(spec)
    doc["densities"][1][2] = math.nan
    (root / "model-nan-density.json").write_text(json.dumps(doc))
    doc = {**spec_to_dict(spec), "num_types": 2.9}
    (root / "model-fractional-types.json").write_text(json.dumps(doc))
    doc = {**spec_to_dict(spec), "num_types": 3}
    (root / "model-three-types-two-rows.json").write_text(json.dumps(doc))
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
            cd.export_region(cd.extract_region(spec, table), str(root / "r.csv"))
            cd.save_table(table, spec, str(root / "t20-array-sidecar.cdvt"))
            (root / "t20-array-sidecar.cdvt.json").write_text("[1]")
            bad = dataclasses.replace(table, values=np.full_like(table.values, np.nan))
            cd.save_table(bad, spec, str(root / "t20-nan.cdvt"))
            bad = dataclasses.replace(table, labels=table.labels.copy())
            bad.labels[5] = -56  # written as the byte 200
            cd.save_table(bad, spec, str(root / "t20-label-200.cdvt"))
    skew = instances.FIGURES["split_skew"]
    cd.save_table(cd.value_iterate(skew, cd.build_grid(2, 20)), skew, str(root / "t20-skew.cdvt"))
    data, sidecar = (root / "t20.cdvt").read_bytes(), json.loads((root / "t20.cdvt.json").read_text())
    for name, payload, fields in [
        ("no-sidecar", data, None),
        ("v1", b"CDVT" + bytes(61) + data, {"version": 1}),
        ("converged-yes", data, {"converged": "yes"}),
        ("converged-false", data, {"converged": False}),
        ("criterion-gap", data, {"criterion": "gap"}),
        ("stop-tol-nan", data, {"stop_tol": math.nan}),
        ("Q-0", data, {"Q": 0}),
        ("Q-5000", data, {"Q": 5000}),
        ("short", data[:-1], {}),
        ("long", data + b"\0", {}),
        ("skew-data", (root / "t20-skew.cdvt").read_bytes(), {}),
    ]:
        (root / f"t20-{name}.cdvt").write_bytes(payload)
        if fields is not None:
            (root / f"t20-{name}.cdvt.json").write_text(json.dumps({**sidecar, **fields}))
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
    (root / "tc-vector.json").write_text("[1, 2, 3]")
    (root / "sa-list.json").write_text("[1]")
    (root / "bad.json").write_text("{\n")
    M = 128
    costs = np.ones((M + 1, M))
    np.fill_diagonal(costs[1:], 0.0)
    (root / "model-128-types.json").write_text(json.dumps({
        **spec_to_dict(spec), "alphabet_size": 2, "num_types": M, "nu": [1.0 / M] * M,
        "densities": [[0.5, 0.5]] * (M + 1), "terminal_costs": costs.tolist(),
    }))
    cd.save_sa_spec(cd.SuspendedAnimationSpec(
        component_failure_probs=(0.1,) * 8,
        phi=cd.phi_binary(8),
        label_densities=np.full((256, 2), 0.5),
    ), str(root / "sa-255-labels.json"))
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
        (["fit-boundary", "r.csv", "-j", "1", "-K", "0"], "K=0 spline segments"),
        (["fit-boundary", "r.csv", "-j", "1", "-K", "-2"], "K=-2 spline segments"),
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
        (["regions", "t20-no-sidecar.cdvt"],
         "t20-no-sidecar.cdvt: sidecar with the model is missing"),
        (["simulate", "model.json", "--table", "t20-v1.cdvt", "--runs", "5"],
         "malformed t20-v1.cdvt.json: table sidecar: unsupported version 1"),
        (["regions", "t20-converged-yes.cdvt"],
         "malformed t20-converged-yes.cdvt.json: table sidecar: 'yes' is not true or false"),
        (["simulate", "model.json", "--table", "t20-stop-tol-nan.cdvt", "--runs", "5"],
         "malformed t20-stop-tol-nan.cdvt.json: table sidecar: "
         "stop_tol=nan contradicts sup_change=8.305009400366714e-05 and tol=0.0001, "
         "which give 8.305009400366714e-05"),
        (["regions", "t20-Q-0.cdvt"],
         "malformed t20-Q-0.cdvt.json: table sidecar: Q=0 must be at least 1"),
        (["regions", "t20-Q-5000.cdvt"],
         "t20-Q-5000.cdvt.json: grid M=2, Q=5000 has 12507501 nodes, over the cap"),
        (["regions", "t20-short.cdvt"], "t20-short.cdvt: truncated node data"),
        (["regions", "t20-long.cdvt"], "t20-long.cdvt: trailing bytes after the node data"),
        (["simulate", "model.json", "--table", "t20-skew-data.cdvt", "--runs", "5"],
         "t20-skew-data.cdvt: node data do not match the crc32 of t20-skew-data.cdvt.json"),
        (["solve", "bad.json", "-Q", "10"], "bad.json: not valid JSON: "),
        (["simulate", "model.json", "--boundaries", "bad.json", "--runs", "5"],
         "bad.json: not valid JSON: "),
        (["derive-sa", "sa.json", "--delay-cost", "1", "--terminal-costs", "bad.json"],
         "bad.json: not valid JSON: "),
        (["simulate", "model.json", "--baseline", "stop-at-x", "--runs", "5"],
         "unknown baseline 'stop-at-x' (use stop-at-<k> or threshold-<t>)"),
        (["simulate", "model.json", "--baseline", "stop-at-1.5", "--runs", "5"],
         "unknown baseline 'stop-at-1.5' (use stop-at-<k> or threshold-<t>)"),
        (["simulate", "model.json", "--baseline", "stop-at-1_0", "--runs", "5"],
         "unknown baseline 'stop-at-1_0' (use stop-at-<k> or threshold-<t>)"),
        (["simulate", "model.json", "--baseline", "threshold-abc", "--runs", "5"],
         "unknown baseline 'threshold-abc' (use stop-at-<k> or threshold-<t>)"),
        (["simulate", "model.json", "--baseline", "threshold-0.5_0", "--runs", "5"],
         "unknown baseline 'threshold-0.5_0' (use stop-at-<k> or threshold-<t>)"),
        (["simulate", "model.json", "--baseline", "threshold-٠.٥", "--runs", "5"],
         "unknown baseline 'threshold-٠.٥' (use stop-at-<k> or threshold-<t>)"),
        (["simulate", "model.json", "--baseline", "threshold-2", "--runs", "5"],
         "threshold=2.0 must lie in [0, 1]"),
        (["simulate", "model.json", "--table", "t20.cdvt", "--baseline", "stop-at-3"],
         "give exactly one of --table, --boundaries, --baseline"),
        (["solve", "model-128-types.json", "-Q", "2"],
         "num_types=128 is over the limit of 127 types"),
        (["derive-sa", "sa-255-labels.json", *DERIVE_COSTS],
         "num_types=255 is over the limit of 127 types"),
        (["solve", "model-three-types-two-rows.json", "-Q", "10"],
         "model document has num_types=3, but its densities give 2"),
        (["regions", "t20-converged-false.cdvt"],
         "malformed t20-converged-false.cdvt.json: table sidecar: "
         "converged=False contradicts sup_change=8.305009400366714e-05 and tol=0.0001, "
         "which give True"),
        (["simulate", "model.json", "--table", "t20-criterion-gap.cdvt", "--runs", "5"],
         "malformed t20-criterion-gap.cdvt.json: table sidecar: "
         "criterion='gap' contradicts sup_change=8.305009400366714e-05 and tol=0.0001, "
         "which give 'delta'"),
        (["derive-sa", "sa.json", "--delay-cost", "1", "--terminal-costs", "tc-vector.json"],
         "tc-vector.json: terminal costs must be a numeric matrix (it has shape (3,))"),
        (["derive-sa", "sa.json", "--delay-cost", "1"],
         "give --false-alarm and --misdiagnosis, or --terminal-costs"),
    ],
    ids=[
        "solve-tol-0",
        "solve-max-iter-0",
        "solve-Q-0",
        "regions-compare-other-Q",
        "fit-K-0",
        "fit-K-minus-2",
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
        "regions-no-sidecar",
        "simulate-version-1-table",
        "regions-sidecar-flag-string",
        "simulate-sidecar-stop-tol-nan",
        "regions-sidecar-Q-0",
        "regions-sidecar-Q-over-the-cap",
        "regions-short-node-data",
        "regions-long-node-data",
        "simulate-node-data-of-another-model",
        "solve-bad-json",
        "simulate-boundaries-bad-json",
        "derive-sa-terminal-costs-bad-json",
        "simulate-baseline-stop-at-x",
        "simulate-baseline-stop-at-1.5",
        "simulate-baseline-stop-at-1_0",
        "simulate-baseline-threshold-abc",
        "simulate-baseline-threshold-0.5_0",
        "simulate-baseline-threshold-arabic-digits",
        "simulate-threshold-2",
        "simulate-table-and-baseline",
        "solve-128-types",
        "derive-sa-255-labels",
        "solve-num-types-against-densities",
        "regions-sidecar-converged-against-criterion",
        "simulate-sidecar-unknown-criterion",
        "derive-sa-terminal-costs-vector",
        "derive-sa-no-cost-form",
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


SIMULATE_STOP_AT_1 = ["simulate", "model.json", "--baseline", "stop-at-1"]


@pytest.mark.parametrize(
    "args,refusal",
    [
        ([*SIMULATE_STOP_AT_1, "--runs", "abc"], "'abc' is not a valid integer."),
        ([*SIMULATE_STOP_AT_1, "--runs", "1_0"], "'1_0' is not a valid integer."),
        ([*SIMULATE_STOP_AT_1, "--runs", "١٠"], "'١٠' is not a valid integer."),
        ([*SIMULATE_STOP_AT_1, "--seed", " 1"], "' 1' is not a valid integer."),
        (["solve", "model.json", "-Q", "1_0"], "'1_0' is not a valid integer."),
        (["solve", "model.json", "--tol", "1_0e-4"], "'1_0e-4' is not a valid float."),
        (["solve", "model.json", "--tol", "١e-4"], "'١e-4' is not a valid float."),
        (["fit-boundary", "r.csv", "-j", "١"], "'١' is not a valid integer."),
        (["derive-sa", "sa.json", "--delay-cost", "0x1", *DERIVE_COSTS[2:]],
         "'0x1' is not a valid float."),
    ],
    ids=["runs-abc", "runs-underscore", "runs-arabic-digits", "seed-space",
         "solve-Q-underscore", "solve-tol-underscore", "solve-tol-arabic-digit",
         "fit-j-arabic-digit", "derive-sa-hex-cost"],
)
def test_numeric_options_read_ascii_decimal_text_only(artefacts, monkeypatch, args, refusal):
    """int() and float() also read underscores, other scripts' digits and
    surrounding space; every numeric option refuses them as click refuses
    "abc": a usage error, exit 2, and no output file."""
    monkeypatch.chdir(artefacts)
    result = CliRunner().invoke(main, [*args, "-o", "out"])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.endswith(refusal + "\n"), result.stderr
    assert not (artefacts / "out").exists()


#: Every option of every command, by its spellings.
CLI_OPTIONS = {
    "solve": ["-Q/--resolution", "--tol", "--max-iter", "-o/--out"],
    "regions": ["--compare-table", "-o/--out"],
    "fit-boundary": ["-j/--corner", "-K/--segments", "-o/--out"],
    "simulate": ["--table", "--boundaries", "--baseline", "--runs", "--seed", "--n-max",
                 "--threads", "--trace", "-o/--out"],
    "diagnose": ["--table", "--boundaries", "--stream", "--echo-posterior"],
    "derive-sa": ["--delay-cost", "--false-alarm", "--misdiagnosis", "--terminal-costs",
                  "-o/--out"],
}

#: Every parameter with a default of a public function or method (its
#: ``__init__`` included) that a module of the package defines.
DEFAULTED_PARAMETERS = {
    "regions.check_region_properties": {"other": None},
    "simulator.Environment.__init__": {"run_index": 0},
    "simulator.estimate_risk": {"n_max": cd.DEFAULT_N_MAX, "threads": 1},
    "solver.TransitionOperator.matvec": {"out": None},
    "solver.value_iterate": {"tol": 1e-4, "max_iter": 100_000},
}


def _defaulted_parameters() -> dict:
    found = {}
    for info in pkgutil.iter_modules(cd.__path__):
        module = importlib.import_module(f"changediag.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                members = [(name, obj)]
            elif inspect.isclass(obj):
                members = [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                           if inspect.isfunction(fn)
                           and (attr == "__init__" or not attr.startswith("_"))]
            else:
                continue
            for qualname, fn in members:
                defaults = {p.name: p.default for p in inspect.signature(fn).parameters.values()
                            if p.default is not p.empty}
                if defaults:
                    found[f"{info.name}.{qualname}"] = defaults
    return found


def test_every_knob_is_listed():
    """An option or a defaulted parameter is a setting that every test and
    benchmark must cover, so adding one means adding it to the lists
    above.  A value the code can work out is not one: the region slack and
    the spline smoothing are not."""
    options = {name: ["/".join(param.opts) for param in command.params
                      if isinstance(param, click.Option)]
               for name, command in main.commands.items()}
    assert options == CLI_OPTIONS
    assert _defaulted_parameters() == DEFAULTED_PARAMETERS
    assert sum(map(len, DEFAULTED_PARAMETERS.values())) == 7


def test_no_option_keeps_a_plain_number_type():
    """Every int and float option goes through the decimal-text type."""
    plain = (click.types.IntParamType, click.types.FloatParamType)
    for command in main.commands.values():
        for param in command.params:
            assert not isinstance(param.type, plain), (command.name, param.name)


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
