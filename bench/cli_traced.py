"""Runs one changediag CLI command in this process with the benchmark's
tracer installed, then writes its spans to a file.

    python3 bench/cli_traced.py <spans.json> <run-id> <cli arguments...>

The traced pipeline run starts one such process per command, so the spans
see the same cold process the plain command runs in.  The command's own
import time and exit code are recorded on its top-level ``cli.<run-id>``
span.  Exits with the command's exit code.
"""

import sys
import time

t = time.perf_counter()
import changediag.cli  # noqa: E402

import_s = time.perf_counter() - t

from spans import Tracer  # noqa: E402


def main(out: str, run: str, args: list[str]) -> int:
    tracer = Tracer()
    tracer.run = run
    tracer.install()
    try:
        with tracer.span(f"cli.{run}", import_s=import_s) as attrs:
            try:
                changediag.cli.main.main(args=args, standalone_mode=False)
                code = 0
            except SystemExit as exc:
                code = exc.code
            attrs["exit"] = code
    finally:
        tracer.remove()
    tracer.write(out, {})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
