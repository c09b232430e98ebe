"""Run one privcomm CLI call with span tracing, then save its spans.

Usage (the traced cli workload starts it in place of ``python -m privcomm.cli``):
    python3 bench/cli_child.py SPAN_FILE SPAWN_TIME ARG...

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started this
process; on Linux both clocks read the system-wide CLOCK_MONOTONIC, so the
interval up to the first line here is interpreter start.  ``src`` must be on
PYTHONPATH.  Stdout, stderr and the exit status are those of ``cli.main``.
"""

import sys
import time

started = time.perf_counter()

import privcomm.cli  # noqa: E402

imported = time.perf_counter()

import spans  # noqa: E402


def main() -> int:
    span_file, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tracer = spans.Tracer()
    tracer.add(tracer.name_id("import.interpreter"), spawned, started, -1)
    tracer.add(tracer.name_id("import.privcomm"), started, imported, -1)
    spans.install(tracer)
    tracer.on = True
    try:
        return privcomm.cli.main(argv)
    finally:
        tracer.on = False
        spans.write(tracer, span_file)


if __name__ == "__main__":
    sys.exit(main())
