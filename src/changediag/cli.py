"""Command-line entry points.

Subcommands wire the library into reproducible runs: ``solve`` a model to
a value table, ``regions`` to extract and check stopping sets, ``fit-boundary``
to compress a 2-type boundary to a spline, ``simulate`` to estimate Bayes
risk, ``diagnose`` to process a live symbol stream, and ``derive-sa`` to
reduce a suspended-animation system to a plain model file.

Every command that writes files also writes ``<output>.manifest.json``
recording the inputs, parameters and tool version, so a run can be
repeated and compared byte for byte (the manifest's ``timings``, the
per-phase seconds of ``solve`` and ``regions``, its ``wall_clock_s`` field
and the ``runs_per_s`` of ``simulate``, are the only things that vary).

Errors have one boundary: a ``ValueError`` (bad input, including a
malformed model, table, region or boundary file) or an ``OSError`` raised
anywhere in a command ends the run with exit 1 and one ``error:`` line on
stderr, never a traceback.

Exit codes: 0 success, 1 validation or I/O failure, 2 solve hit its sweep
cap (outputs still written), 3 the stream contradicted the model, 4 the
stream ended before an alarm.
"""

from __future__ import annotations

import json
import sys
import time

import click
import numpy as np

from . import __version__
from .boundary import (
    SplineBoundary,
    boundary_samples,
    fit_spline,
    is_concave,
    load_boundaries,
    save_boundary,
)
from .model import (
    _dump_json,
    _load_json,
    _reals,
    load_sa_spec,
    load_spec,
    derive_suspended_animation,
    save_spec,
)
from .posterior import ImpossibleObservation, initial_posterior, update
from .regions import _fmt, export_region, extract_region, check_region_properties, import_region
from .simulator import (
    DEFAULT_N_MAX,
    PosteriorThreshold,
    SplineStrategy,
    StopAfter,
    TableStrategy,
    estimate_risk,
)
from .solver import build_grid, load_table, save_table, value_iterate


def _write_manifest(
    anchor: str,
    subcommand: str,
    inputs: dict,
    parameters: dict,
    outputs: list[str],
    started: float,
    report: dict | None = None,
    timings: dict | None = None,
) -> None:
    doc = {
        "subcommand": subcommand,
        "inputs": inputs,
        "parameters": parameters,
        "outputs": outputs,
        "version": __version__,
        "wall_clock_s": time.monotonic() - started,
    }
    if report is not None:
        doc["report"] = report
    if timings is not None:
        doc["timings"] = timings
    _dump_json(doc, anchor + ".manifest.json")


class _Phases:
    """Seconds spent in each named phase of a command, for its manifest."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self._last = time.perf_counter()

    def done(self, name: str) -> None:
        """Close phase ``name``: it ran from the last mark until now."""
        now = time.perf_counter()
        self.seconds[name] = now - self._last
        self._last = now


def _load_solved_table(path: str, spec=None):
    """The table at ``path`` and the model it was solved for, refused when
    its sidecar is missing or, given ``spec``, when that model is another."""
    table, table_spec = load_table(path)
    if table_spec is None:
        raise ValueError(f"{path}: sidecar with the model is missing")
    if spec is not None and table_spec != spec:
        raise ValueError(f"{path}: the table was solved for a different model")
    return table, table_spec


class _Main(click.Group):
    """The one error boundary: bad input or I/O becomes exit 1, one line."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Sequential change diagnosis: solve, inspect, and run strategies."""


@main.command()
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("-Q", "--resolution", "Q", type=int, default=200, show_default=True)
@click.option("--tol", type=float, default=1e-4, show_default=True)
@click.option("--max-iter", type=int, default=100_000, show_default=True)
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
def solve(model: str, Q: int, tol: float, max_iter: int, out: str) -> None:
    """Value-iterate MODEL on a resolution-Q grid and write the table."""
    started = time.monotonic()
    phases = _Phases()
    spec = load_spec(model)
    phases.done("load")
    grid = build_grid(spec.num_types, Q)
    phases.done("grid")
    table = value_iterate(spec, grid, tol=tol, max_iter=max_iter)
    phases.done("iterate")
    save_table(table, spec, out)
    phases.done("save")
    _write_manifest(
        out,
        "solve",
        {"model": model},
        {"Q": Q, "tol": tol, "max_iter": max_iter},
        [out, out + ".json"],
        started,
        report={
            "iterations": table.iterations,
            "criterion": table.criterion,
            "sup_change": table.sup_change,
            "error_bound": table.error_bound,
            "converged": table.converged,
        },
        timings=phases.seconds,
    )
    click.echo(
        f"solved: {table.iterations} sweeps, criterion={table.criterion}, "
        f"sup_change={_fmt(table.sup_change)}"
    )
    if not table.converged:
        click.echo("warning: sweep cap reached before tolerance", err=True)
        sys.exit(2)


@main.command()
@click.argument("table_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--stop-tol", type=float, default=None, help="Stop/continue slack; defaults to the table's final sweep change.")
@click.option("--format", "fmt", type=click.Choice(["embedded", "raw"]), default=None, help="Defaults to embedded when M is 2 or 3.")
@click.option("--compare-table", type=click.Path(exists=True, dir_okay=False), default=None, help="Second table (shorter horizon) for the nestedness check.")
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
def regions(
    table_path: str,
    stop_tol: float | None,
    fmt: str | None,
    compare_table: str | None,
    out: str,
) -> None:
    """Extract stopping sets from a table, check them, export CSV."""
    started = time.monotonic()
    phases = _Phases()
    table, spec = _load_solved_table(table_path)
    region = extract_region(spec, table, stop_tol)
    other = None
    if compare_table is not None:
        other = extract_region(spec, _load_solved_table(compare_table, spec)[0])
    if fmt is None:
        fmt = "embedded" if table.grid.M in (2, 3) else "raw"
    phases.done("load")
    report = check_region_properties(region, other)
    phases.done("check")
    export_region(region, out, fmt)
    phases.done("export")
    report_path = out + ".report.json"
    _dump_json(report, report_path)
    _write_manifest(
        out,
        "regions",
        {"table": table_path, "compare_table": compare_table},
        {"stop_tol": region.stop_tol, "format": fmt},
        [out, report_path],
        started,
        report=report,
        timings=phases.seconds,
    )
    for j, entry in report["labels"].items():
        click.echo(
            f"stop({j}): nonempty={entry['nonempty']} "
            f"corner={entry['contains_corner']} "
            f"components={entry['num_components']} "
            f"convexity_violations={entry['convexity_violations']} "
            f"(strict {entry['strict_violations']})"
        )
    click.echo(f"continuation components: {report['continuation_components']}")
    if report["nested"] is not None:
        click.echo(f"nested: {report['nested']['ok']}")


@main.command("fit-boundary")
@click.argument("region_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("-j", "--corner", "j", type=int, required=True, help="1-based type whose boundary to fit.")
@click.option("-K", "--segments", "K", type=int, default=12, show_default=True)
@click.option("--lam", type=float, default=None, help="Smoothing parameter; omitted means 5-fold cross-validation.")
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
def fit_boundary_cmd(region_csv: str, j: int, K: int, lam: float | None, out: str) -> None:
    """Fit the polar spline of one stopping boundary from a region CSV."""
    started = time.monotonic()
    region = import_region(region_csv)
    beta, r = boundary_samples(region, j)
    breaks, coef, lam_used, rms, cv = fit_spline(beta, r, K, lam)
    sb = SplineBoundary(corner=j, knots=breaks, coefficients=coef, lam=lam_used, rms=rms)
    save_boundary(sb, out)
    _write_manifest(
        out,
        "fit-boundary",
        {"region": region_csv},
        {"j": j, "K": K, "lam": lam},
        [out],
        started,
        report={"rms": rms, "lambda": lam_used, "cv_sse": cv, "samples": int(beta.size)},
    )
    click.echo(f"samples={beta.size} lambda={_fmt(lam_used)} rms={_fmt(rms)}")
    if cv is not None:
        click.echo(f"cv_sse={_fmt(cv)}")
    if not is_concave(sb):
        click.echo("note: fitted curve is not concave at the knots", err=True)


def _strategy_from_options(spec, **options):
    """The strategy of the one option given, refused unless built for ``spec``.

    ``options`` maps each strategy option the command has to its value, so
    the refusal of none or several names exactly those options.
    """
    given = [(name, value) for name, value in options.items() if value is not None]
    if len(given) != 1:
        raise ValueError("give exactly one of " + ", ".join(f"--{o}" for o in options))
    [(name, value)] = given
    if name == "table":
        return TableStrategy(_load_solved_table(value, spec)[0])
    if name == "boundaries":
        fits = load_boundaries(value)
        if spec.num_types != 2:
            raise ValueError(f"boundary curves need a 2-type model, not M={spec.num_types}")
        missing = sorted({1, 2} - fits.keys())
        if missing:
            raise ValueError(f"{value}: no curve for type {missing[0]}")
        return SplineStrategy(fits)
    for prefix, parse, make in (
        ("stop-at-", int, StopAfter),
        ("threshold-", float, PosteriorThreshold),
    ):
        if value.startswith(prefix):
            try:
                arg = parse(value[len(prefix) :])
            except ValueError:
                break
            return make(arg)
    raise ValueError(f"unknown baseline {value!r} (use stop-at-<k> or threshold-<t>)")


@main.command()
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("--table", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--boundaries", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--baseline", type=str, default=None, help="stop-at-<k> or threshold-<t>.")
@click.option("--runs", type=int, default=10_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--n-max", type=int, default=DEFAULT_N_MAX, show_default=True)
@click.option("--threads", type=int, default=1, show_default=True, help="Worker threads; the output does not depend on it.")
@click.option("--trace", type=click.Path(dir_okay=False), default=None, help="Optional per-run CSV (theta, mu, tau, d, cost).")
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
def simulate(
    model: str,
    table: str | None,
    boundaries: str | None,
    baseline: str | None,
    runs: int,
    seed: int,
    n_max: int,
    threads: int,
    trace: str | None,
    out: str,
) -> None:
    """Estimate the Bayes risk of a strategy on MODEL by Monte Carlo."""
    started = time.monotonic()
    spec = load_spec(model)
    strategy = _strategy_from_options(
        spec, table=table, boundaries=boundaries, baseline=baseline
    )
    mc_started = time.perf_counter()
    est = estimate_risk(
        spec, strategy, runs=runs, seed=seed, n_max=n_max, threads=threads
    )
    mc_s = time.perf_counter() - mc_started
    _dump_json(est.to_json(), out)
    if trace is not None:
        with open(trace, "w") as fh:
            fh.write("theta,mu,tau,d,cost\n")
            for k in range(est.runs):
                fh.write(
                    f"{est.theta[k]},{est.mu[k]},{est.tau[k]},{est.d[k]},"
                    f"{_fmt(est.realized[k])}\n"
                )
    outputs = [out] + ([trace] if trace else [])
    tau_quantiles = np.percentile(est.tau, [50, 90, 99, 100], method="inverted_cdf")
    _write_manifest(
        out,
        "simulate",
        {"model": model, "table": table, "boundaries": boundaries, "baseline": baseline},
        {
            "runs": runs,
            "seed": seed,
            "n_max": n_max,
            "threads": threads,
        },
        outputs,
        started,
        report={
            "runs_per_s": est.runs / mc_s,
            "tau": dict(zip(("p50", "p90", "p99", "max"), tau_quantiles.tolist())),
            "cap_rate": est.cap_rate,
        },
    )
    click.echo(
        f"mean={_fmt(est.mean)} stderr={_fmt(est.std_error)} "
        f"cap_rate={_fmt(est.cap_rate)}"
    )


@main.command()
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("--table", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--boundaries", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--stream", type=str, default="-", show_default=True, help="Symbol file, one integer per line; - for stdin.")
@click.option("--echo-posterior", is_flag=True, default=False)
def diagnose(
    model: str,
    table: str | None,
    boundaries: str | None,
    stream: str,
    echo_posterior: bool,
) -> None:
    """Run the online procedure over a symbol stream until the alarm."""
    started = time.monotonic()
    spec = load_spec(model)
    strategy = _strategy_from_options(spec, table=table, boundaries=boundaries)
    source = sys.stdin if stream == "-" else open(stream)
    pi = initial_posterior(spec)
    n = 0
    try:
        while True:
            decision = strategy.decide(spec, pi, n)
            if decision is not None:
                click.echo(f"ALARM n={n} d={decision}")
                if stream != "-":
                    _write_manifest(
                        stream,
                        "diagnose",
                        {"model": model, "table": table, "boundaries": boundaries},
                        {"stream": stream},
                        [],
                        started,
                        report={"tau": n, "d": decision},
                    )
                return
            line = source.readline()
            if line == "":
                click.echo(
                    "stream ended before alarm; last posterior "
                    + json.dumps([float(_fmt(v)) for v in pi]),
                    err=True,
                )
                sys.exit(4)
            line = line.strip()
            if not line:
                continue
            try:
                x = int(line)
            except ValueError:
                click.echo(f"step {n + 1}: not a symbol: {line!r}", err=True)
                sys.exit(3)
            if not 0 <= x < spec.alphabet_size:
                click.echo(
                    f"step {n + 1}: symbol {x} outside alphabet "
                    f"0..{spec.alphabet_size - 1}",
                    err=True,
                )
                sys.exit(3)
            try:
                pi = update(spec, pi, x)
            except ImpossibleObservation as exc:
                click.echo(f"step {n + 1}: {exc}", err=True)
                sys.exit(3)
            n += 1
            if echo_posterior:
                click.echo(json.dumps({"n": n, "pi": [float(_fmt(v)) for v in pi]}))
    finally:
        if source is not sys.stdin:
            source.close()


@main.command("derive-sa")
@click.argument("system", type=click.Path(exists=True, dir_okay=False))
@click.option("--delay-cost", type=float, required=True)
@click.option("--false-alarm", type=float, default=None, help="Uniform cost of stopping before any failure.")
@click.option("--misdiagnosis", type=float, default=None, help="Uniform cost of announcing the wrong label.")
@click.option("--terminal-costs", type=click.Path(exists=True, dir_okay=False), default=None, help="JSON file with the full (M+1) x M cost matrix.")
@click.option("-o", "--out", required=True, type=click.Path(dir_okay=False))
def derive_sa(
    system: str,
    delay_cost: float,
    false_alarm: float | None,
    misdiagnosis: float | None,
    terminal_costs: str | None,
    out: str,
) -> None:
    """Reduce a suspended-animation system file to a model file."""
    started = time.monotonic()
    sa = load_sa_spec(system)
    M = sa.num_labels
    if terminal_costs is not None:
        if false_alarm is not None or misdiagnosis is not None:
            raise ValueError("--terminal-costs excludes --false-alarm/--misdiagnosis")
        doc = _load_json(terminal_costs)
        try:
            a = _reals(doc, "the matrix")
            if a.ndim != 2:
                raise ValueError(f"it has shape {a.shape}")
        except ValueError as exc:
            raise ValueError(
                f"{terminal_costs}: terminal costs must be a numeric matrix ({exc})"
            ) from exc
    else:
        if false_alarm is None or misdiagnosis is None:
            raise ValueError("give --false-alarm and --misdiagnosis, or --terminal-costs")
        a = np.full((M + 1, M), misdiagnosis)
        a[0, :] = false_alarm
        np.fill_diagonal(a[1:], 0.0)
    spec = derive_suspended_animation(sa, c=delay_cost, a=a)
    save_spec(spec, out)
    _write_manifest(
        out,
        "derive-sa",
        {"system": system, "terminal_costs": terminal_costs},
        {
            "delay_cost": delay_cost,
            "false_alarm": false_alarm,
            "misdiagnosis": misdiagnosis,
        },
        [out],
        started,
        report={"p": spec.p, "nu": spec.nu.tolist(), "num_types": spec.num_types},
    )
    click.echo(
        f"derived: M={spec.num_types} p={_fmt(spec.p)} "
        f"nu=[{', '.join(_fmt(v) for v in spec.nu)}]"
    )


if __name__ == "__main__":
    main()
