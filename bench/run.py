"""changediag benchmark entry point.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload from the root of a checkout against the sources in
``src/`` and prints, as the last line of standard output, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give the run's provenance and a detail breakdown.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    if not (ROOT / "src" / "changediag" / "__init__.py").is_file() or not (
        ROOT / "tests" / "instances.py"
    ).is_file():
        print(f"error: no changediag sources under {ROOT}", file=sys.stderr)
        return 2

    # One BLAS/OpenMP thread, set before numpy loads and inherited by the
    # CLI processes: every workload is single-caller and Monte Carlo runs
    # at one thread, so library threads would only add contention.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

    from harness import run
    from workloads import FULL

    if args.workload not in FULL:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(FULL)}")
    result, detail = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL[args.workload])
    print("provenance " + json.dumps(provenance(args.seed)))
    print("detail " + json.dumps({"workload": args.workload, **detail}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
