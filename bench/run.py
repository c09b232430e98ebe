#!/usr/bin/env python3
"""privcomm benchmark: seeded closed-loop workloads with checked outputs.

Usage:
    python3 bench/run.py --workload {frontier,verify,cli} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --seed N --seconds S     # all three workloads in turn

Run from the repository root or anywhere else; the package is loaded from
``src/`` next to this directory (it need not be installed).  Human-readable
lines go first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
A traced run first repeats some rounds untraced, then the same rounds with
span wrappers on every public privcomm function, and writes the spans to
``.bench_out/``.  Exit status: 0 when every output checked, 1 when any
check failed, 2 when the package or the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from array import array
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("frontier", "verify", "cli")

#: fresh starts whose median is setup_s
SETUP_STARTS = 7
#: fresh starts per import probe of a traced run
IMPORT_STARTS = 7
#: failures printed in full; all are counted
SHOWN_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_env():
    import workloads

    return workloads.child_env()


def fresh_start_seconds(cmd, starts):
    """Wall times of ``starts`` fresh processes running ``cmd``."""
    walls = []
    for _ in range(starts):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr[-500:]!r}")
    return walls


class Harness:
    """Runs rounds of one workload; keeps op timings and failures."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        #: (round, kind) -> seconds of each op, and of each number an op left
        #: in its ``meta`` (scan_s, rss_kb) under that key as the kind
        self.times = defaultdict(lambda: array("d"))
        #: (round, kind) -> summed work units; (kind, label) -> seconds
        self.work = defaultdict(int)
        self.by_label = defaultdict(lambda: array("d"))
        self.failures: list[str] = []
        self.ops_started = 0
        self.op_round: list[int] = []
        self.op_label: list[str] = []

    def run_ops(self, ops, round_no, keep=True):
        tracer = self.tracer
        for op in ops:
            tracing = tracer is not None and tracer.on
            if tracing:
                tracer.current_op = len(self.op_round)
                self.op_round.append(round_no)
                self.op_label.append(op.meta.get("subcommand", op.label))
            with tracer.span("harness.op") if tracing else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # a failed operation is counted, not fatal
                    result = exc
                seconds = time.perf_counter() - t0
                with tracer.paused() if tracing else contextlib.nullcontext():
                    error = self._check(op, result)
            self.ops_started += 1
            if error:
                self.failures.append(f"[{self.workload.name} round {round_no}] {error}")
            if keep:
                self.times[round_no, op.kind].append(seconds)
                self.work[round_no, op.kind] += op.work
                self.by_label[op.kind, op.label].append(seconds)
                for key, value in op.meta.items():
                    if isinstance(value, (int, float)):
                        self.times[round_no, key].append(value)

    @staticmethod
    def _check(op, result):
        try:
            return op.check(result)
        except Exception:
            return f"check raised on result {result!r}:\n{traceback.format_exc()}"

    def per_round(self, kind):
        """The ``kind`` timings of each timed round, in round order."""
        return [self.times[key] for key in sorted(self.times) if key[1] == kind and key[0] >= 0]

    def loop(self, seconds, max_rounds=None):
        """Closed loop over whole rounds until ``seconds`` have passed."""
        walls = []
        deadline = time.perf_counter() + seconds
        k = 0
        while k == 0 or (time.perf_counter() < deadline
                         and (max_rounds is None or k < max_rounds)):
            t0 = time.perf_counter()
            self.run_ops(self.workload.round(k), k)
            walls.append(time.perf_counter() - t0)
            k += 1
        return walls


def make_workload(name, seed, workdir):
    import workloads

    cls = workloads.WORKLOADS[name]
    return cls(seed, workdir) if name == "cli" else cls(seed)


def setup_probe(args, workdir):
    """What a run does before its timed loop: import, generate, warm up."""
    workload = make_workload(args.workload, args.seed, workdir)
    harness = Harness(workload)
    harness.run_ops(workload.warm_up_ops(), -1, keep=False)
    if harness.failures:
        print("\n".join(harness.failures), file=sys.stderr)
        return 1
    return 0


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    })


def report(harness, metrics, lines):
    failed = len(harness.failures)
    attempted = harness.ops_started
    for line in lines:
        print(f"{harness.workload.name}: {line}")
    print(f"{harness.workload.name}: failed_frac = {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted} operations)")
    for failure in harness.failures[:SHOWN_FAILURES]:
        print(failure, file=sys.stderr)
    print(result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1


def run_untraced(args, workdir):
    probe = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    # half the fresh starts before the timed loop and half after it, so that
    # setup_s does not hang on the host's speed at one moment
    starts = fresh_start_seconds(probe, SETUP_STARTS // 2 + 1)
    workload = make_workload(args.workload, args.seed, workdir)
    harness = Harness(workload)
    harness.run_ops(workload.warm_up_ops(), -1, keep=False)
    walls = harness.loop(args.seconds)
    setup_s = statistics.median(starts + fresh_start_seconds(probe, SETUP_STARTS // 2))
    metrics, lines = workload.metrics(harness)
    metrics["setup_s"] = (setup_s, "s")
    if "peak_rss_mb" not in metrics:
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                                  "MB")
    lines.append(f"setup_s = {setup_s:.4f} s (median of {SETUP_STARTS} fresh starts), "
                 f"{len(walls)} rounds in {sum(walls):.1f} s")
    return report(harness, metrics, lines)


def import_probes():
    """Interpreter start and the increments of importing numpy, then privcomm."""
    cmds = {
        "interpreter": [sys.executable, "-c", "pass"],
        "numpy": [sys.executable, "-c", "import numpy"],
        "privcomm": [sys.executable, "-c", "import privcomm"],
    }
    walls = {key: [] for key in cmds}
    for _ in range(IMPORT_STARTS):
        for key, cmd in cmds.items():
            walls[key] += fresh_start_seconds(cmd, 1)
    med = {key: statistics.median(v) * 1e3 for key, v in walls.items()}
    return {
        "import.interpreter_ms": med["interpreter"],
        "import.numpy_ms": med["numpy"] - med["interpreter"],
        "import.privcomm_ms": med["privcomm"] - med["numpy"],
    }


def run_traced(args, workdir):
    import layers
    import spans

    imports = import_probes()
    workload = make_workload(args.workload, args.seed, workdir)
    tracer = spans.Tracer()
    harness = Harness(workload, tracer)
    harness.run_ops(workload.warm_up_ops(), -1, keep=False)
    untraced = harness.loop(args.seconds / 2.0, workload.trace_max_rounds)
    spans.install(tracer)
    workload.tracer = tracer
    tracer.on = True
    t0 = time.perf_counter()
    for k in range(len(untraced)):
        harness.run_ops(workload.round(k), k)
    wall = time.perf_counter() - t0
    tracer.on = False
    metrics = layers.per_layer(tracer, harness, wall, sum(untraced), imports)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}.npz"
    spans.write(tracer, path)
    lines = [f"traced {len(untraced)} rounds: {len(tracer)} spans in {wall:.2f} s "
             f"(untraced {sum(untraced):.2f} s), written to {path.relative_to(ROOT)}"]
    lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()]
    return report(harness, metrics, lines)


def run_all(args):
    """Each workload in its own process; prints their lines and a combined result."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            results[name] = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return 2
        status = max(status, proc.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "privcomm" / "__init__.py").is_file():
        print(f"error: no privcomm package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    workdir = Path(tempfile.mkdtemp(prefix=".bench_tmp-", dir=ROOT))
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        return run_traced(args, workdir) if args.trace else run_untraced(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
