"""The three benchmark workloads: inputs, operations and output checks.

Every workload is a closed loop with one client: the harness issues the next
operation only after the previous one returned.  Round ``k`` of a workload
is generated from ``numpy.random.default_rng([seed, k])`` alone, so a seed
fixes every input.  Models are drawn as in ``scripts/verify_equilibria.py``:
sigma_x2 in [0.1, 10], r in [0.05, 4], rho = u*sqrt(r) with u in [0.05, 0.99].

Operations call the package through module attributes looked up at call
time, so the span wrappers of a traced run see them.  Checks compare with
references that do not share the formula under test (``covariance_evaluate``
assembles the 3x3 covariance by bilinearity, the goldens are files) and run
outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import privcomm.cli as pcli
import privcomm.curves as curves
import privcomm.equilibrium as eq
import privcomm.model as pmodel
import privcomm.montecarlo as mc
import privcomm.oracle as oracle
from privcomm.equilibrium import ChannelSpec, InfeasiblePrivacyTarget, Setting
from privcomm.montecarlo import SimConfig

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

#: Output checks: closed-form d_c and an active d_p agree with the covariance
#: reference to this many sigma_x2.
TOL = 1e-9
#: Monte Carlo estimates must sit within this many standard errors.
Z_MAX = 5.0
#: Multiplier-scan points lie on the closed-form frontier to this many
#: sigma_x2 (the bound of tests/test_acceptance.py criterion 8).
SCAN_GAP = 1e-4

# the unwrapped reference, bound before any span wrapper is installed
covariance_evaluate = oracle.covariance_evaluate


@dataclass
class Op:
    """One closed-loop request: ``run`` is timed, ``check`` is not."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    work: int = 1
    label: str = ""
    meta: dict = field(default_factory=dict)


def draw_model(rng):
    sigma_x2 = float(rng.uniform(0.1, 10.0))
    r = float(rng.uniform(0.05, 4.0))
    rho = float(rng.uniform(0.05, 0.99)) * math.sqrt(r)
    return sigma_x2, rho, r


def draw_channel(rng):
    return float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.1, 2.0))


def interior(rng, lo, hi, a=0.1, b=0.9):
    return lo + float(rng.uniform(a, b)) * (hi - lo)


def transmit_var(s2, rho, r, alpha):
    """Var(X + alpha*theta) by bilinearity of covariance."""
    return s2 + 2.0 * alpha * s2 * rho + alpha * alpha * s2 * r


def check_dc_dp(model, alpha, target, d_c, active, noise=0.0, beta=1.0, channel_noise=0.0):
    """Closed-form output against the covariance reference; None when it holds."""
    d_c_ref, d_p_ref = covariance_evaluate(model, alpha, noise, beta, channel_noise)
    tol = TOL * model.sigma_x2
    if not abs(d_c_ref - d_c) <= tol:
        return f"d_c={d_c!r} but covariance gives {d_c_ref!r}"
    if active and not abs(d_p_ref - target) <= tol:
        return f"active d_p={d_p_ref!r} misses target {target!r}"
    if not active and not d_p_ref >= target - tol:
        return f"inactive d_p={d_p_ref!r} below target {target!r}"
    return None


def branch_of(active, target, dp_max):
    if not active:
        return "free"
    return "endpoint" if target >= dp_max * (1.0 - 1e-12) else "interior"


def quantile(values, q):
    """statistics.quantiles percentile (exclusive method), q in (0, 1)."""
    if len(values) < 2:
        return float(values[0]) if len(values) else 0.0
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


def slow_decile(values, higher_is_better=False):
    """The slowest tenth of per-round values: the 90th percentile of a time,
    the 10th of a rate."""
    values = list(values)
    if len(values) < 2:
        return values[0]
    deciles = statistics.quantiles(values, n=10)
    return deciles[0] if higher_is_better else deciles[-1]


def timing_metrics(rates, latencies, secondary):
    """The gated timing metrics from per-round rates (1/s), op seconds and a
    secondary time (s): each is a per-round statistic taken at the slowest
    tenth of the run's rounds.

    The host switches between a fast and a roughly 1.4x slower state for
    seconds at a time.  The slow state shows up in every run but the share
    of fast time changes from run to run, so a median, mean or fastest
    decile over the rounds moves with that share while the slowest decile
    repeats (over ten 30 s blocks of frontier: solve p50 spread 0.08 against
    0.15 for the mean and 0.10 for the fastest decile).
    """
    return {
        "throughput_per_s": (slow_decile(rates, True), "1/s"),
        "latency_ms_p50": (slow_decile(quantile(v, 0.5) for v in latencies) * 1e3, "ms"),
        "latency_ms_p90": (slow_decile(quantile(v, 0.9) for v in latencies) * 1e3, "ms"),
        "secondary_ms": (slow_decile(secondary) * 1e3, "ms"),
    }


class Workload:
    name = ""
    #: rounds a traced run repeats at most (bounds the in-memory span count)
    trace_max_rounds = 1

    def __init__(self, seed: int):
        self.seed = seed
        self.branches: Counter = Counter()
        #: the span tracer of a traced pass, else None
        self.tracer = None

    def rng(self, k: int, stream: int = 0):
        return np.random.default_rng([self.seed, k, stream])

    def warm_up_ops(self) -> list[Op]:
        raise NotImplementedError

    def round(self, k: int) -> list[Op]:
        raise NotImplementedError

    def branch_shares(self) -> str:
        total = sum(self.branches.values()) or 1
        return f"solver branches over {total} checked solutions: " + ", ".join(
            f"{b} {100.0 * self.branches[b] / total:.2f}%"
            for b in ("free", "endpoint", "interior", "infeasible"))

    def metrics(self, h) -> tuple[dict, list[str]]:
        """End-to-end metrics {name: (value, unit)} and summary lines from a Harness."""
        raise NotImplementedError


# --------------------------------------------------------------------- frontier

class Frontier(Workload):
    """Library sweeps and solves: no oracle, no sampling, no subprocess.

    Per round and per setting (simple, channel): 63 sweeps of 65 points and
    one of 4097, so both grid sizes contribute the same number of points;
    16 rate sweeps over 64 geometric noises; 24 ``noise_for_rate``
    inversions; 1500 single solves, each on its own (model, target) pair,
    cycling through the three settings.  Of every 50 single solves 2 target
    the free floor, 2 the max-privacy endpoint and 1 an infeasible level
    above dp_max, which must raise ``InfeasiblePrivacyTarget``.
    """

    name = "frontier"
    trace_max_rounds = 3
    SMALL_GRID, SMALL_SWEEPS, LARGE_GRID = 65, 63, 4097
    RATE_SWEEPS, RATE_POINTS = 16, 64
    INVERSIONS = 24
    SOLVES = 1500

    def warm_up_ops(self):
        return self._ops(self.rng(0, 1), small_sweeps=1, large=False, rate_sweeps=1,
                         inversions=1, solves=150)

    def round(self, k):
        return self._ops(self.rng(k), self.SMALL_SWEEPS, True, self.RATE_SWEEPS,
                         self.INVERSIONS, self.SOLVES)

    def _ops(self, rng, small_sweeps, large, rate_sweeps, inversions, solves):
        ops = []
        for setting in (Setting.SIMPLE, Setting.CHANNEL):
            grids = [self.SMALL_GRID] * small_sweeps + ([self.LARGE_GRID] if large else [])
            for grid in grids:
                ops.append(self._sweep(setting, draw_model(rng), draw_channel(rng), grid))
        for _ in range(rate_sweeps):
            ops.append(self._rate_sweep(rng))
        for _ in range(inversions):
            ops.append(self._inversion(rng))
        for i in range(solves):
            ops.append(self._solve(rng, i))
        return ops

    def _sweep(self, setting, raw, raw_channel, grid):
        s2, rho, r = raw

        def run():
            model = pmodel.validate_model(s2, rho, r)
            channel = ChannelSpec(*raw_channel) if setting is Setting.CHANNEL else None
            return model, curves.sweep_privacy_distortion(model, setting, channel, grid)

        def check(result):
            model, curve = result
            if len(curve.points) != grid:
                return f"{len(curve.points)} points, expected {grid}"
            p_t, sigma_z2 = raw_channel
            for target, d_c, alpha, _kappa in curve.points:
                if setting is Setting.CHANNEL:
                    beta = math.sqrt(p_t / transmit_var(s2, rho, r, alpha))
                    err = check_dc_dp(model, alpha, target, d_c, alpha != 0.0,
                                      beta=beta, channel_noise=sigma_z2)
                else:
                    err = check_dc_dp(model, alpha, target, d_c, alpha != 0.0)
                if err:
                    return f"{setting.value} sweep at d_p={target!r}: {err}"
                self.branches[branch_of(alpha != 0.0, target, s2 * r)] += 1
            return None

        return Op("sweep", run, check, work=grid, label=f"{setting.value}-{grid}")

    def _rate_sweep(self, rng):
        s2, rho, r = draw_model(rng)
        target = interior(rng, s2 * (r - rho**2), s2 * r)
        noises = [float(v) for v in np.geomspace(1e-2, 1e2, self.RATE_POINTS) * s2]

        def run():
            model = pmodel.validate_model(s2, rho, r)
            return model, curves.sweep_rate_distortion(model, target, noises)

        def check(result):
            model, curve = result
            if [p[0] for p in curve.points] != noises:
                return "rate sweep lost or reordered noise values"
            for sigma_n2, rate, d_c, d_p, alpha in curve.points:
                err = check_dc_dp(model, alpha, target, d_c, alpha != 0.0, noise=sigma_n2)
                ref = 0.5 * math.log1p(transmit_var(s2, rho, r, alpha) / sigma_n2)
                if err is None and not abs(rate - ref) <= TOL * max(1.0, ref):
                    err = f"rate={rate!r} but Gaussian mutual information is {ref!r}"
                if err:
                    return f"rate sweep at sigma_n2={sigma_n2!r}: {err}"
                self.branches[branch_of(alpha != 0.0, target, s2 * r)] += 1
            return None

        return Op("sweep", run, check, work=len(noises), label="rate")

    def _inversion(self, rng):
        s2, rho, r = draw_model(rng)
        target = interior(rng, s2 * (r - rho**2), s2 * r)
        rate_target = float(rng.uniform(0.05, 2.0))

        def run():
            model = pmodel.validate_model(s2, rho, r)
            return model, curves.noise_for_rate(model, target, rate_target)

        def check(result):
            model, sigma_n2 = result
            alpha = eq.solve_setting2(model, target, sigma_n2).policy.alpha
            rate = 0.5 * math.log1p(transmit_var(s2, rho, r, alpha) / sigma_n2)
            # bisection stops at a relative bracket of 1e-10*max(1, sigma_n2)/sigma_n2
            tol = 1e-9 + 1e-10 * max(1.0, sigma_n2) / sigma_n2
            if not abs(rate - rate_target) <= tol:
                return f"noise_for_rate reached rate {rate!r}, target {rate_target!r}"
            return None

        return Op("inversion", run, check)

    def _solve(self, rng, i):
        s2, rho, r = draw_model(rng)
        setting = (Setting.SIMPLE, Setting.COMPRESSION, Setting.CHANNEL)[i % 3]
        sigma_n2 = float(rng.uniform(0.1, 2.0)) * s2
        p_t, sigma_z2 = draw_channel(rng)
        if setting is Setting.SIMPLE:
            floor = s2 * (r - rho**2)
        elif setting is Setting.COMPRESSION:
            floor = s2 * (r - rho**2 / (1.0 + sigma_n2 / s2))
        else:
            floor = s2 * (r - rho**2 * p_t / (p_t + sigma_z2))
        dp_max = s2 * r
        slot = i % 50
        if slot < 2:
            target, expect = floor * float(rng.uniform(0.5, 1.0)), "free"
        elif slot < 4:
            target, expect = dp_max, "endpoint"
        elif slot < 5:
            target, expect = dp_max * float(rng.uniform(1.01, 1.5)), "infeasible"
        else:
            target, expect = interior(rng, floor, dp_max, 0.02, 0.98), "interior"

        def run():
            model = pmodel.validate_model(s2, rho, r)
            if setting is Setting.SIMPLE:
                return model, eq.solve_setting1(model, target)
            if setting is Setting.COMPRESSION:
                return model, eq.solve_setting2(model, target, sigma_n2)
            return model, eq.solve_setting3(model, target, ChannelSpec(p_t, sigma_z2))

        def check(result):
            if expect == "infeasible":
                if isinstance(result, InfeasiblePrivacyTarget):
                    self.branches["infeasible"] += 1
                    return None
                return f"target above dp_max not rejected: {result!r}"
            if isinstance(result, BaseException):
                return f"{type(result).__name__}: {result}"
            model, sol = result
            pol = sol.policy
            if setting is Setting.CHANNEL:
                err = check_dc_dp(model, pol.alpha, target, sol.d_c, sol.constraint_active,
                                  beta=pol.beta, channel_noise=sigma_z2)
            else:
                err = check_dc_dp(model, pol.alpha, target, sol.d_c, sol.constraint_active,
                                  noise=pol.noise_var)
            if err:
                return f"{setting.value} solve at d_p={target!r}: {err}"
            got = branch_of(sol.constraint_active, target, dp_max)
            if got != expect:
                return f"{setting.value} solve at d_p={target!r}: {got} branch, expected {expect}"
            self.branches[got] += 1
            return None

        return Op("solve", run, check, label=setting.value)

    def metrics(self, h):
        sweeps, solves, inversions = (h.per_round(k) for k in ("sweep", "solve", "inversion"))
        rounds = sorted(r for r, kind in h.times if kind == "sweep" and r >= 0)
        rates = [h.work[r, "sweep"] / sum(t) for r, t in zip(rounds, sweeps)]
        metrics = timing_metrics(rates, solves, [statistics.median(v) for v in inversions])
        every_solve, every_inversion = np.concatenate(solves), np.concatenate(inversions)
        lines = [
            f"sweep_points_per_s = {statistics.median(rates):.1f} 1/s, median of "
            f"{len(rates)} rounds ({sum(h.work[r, 'sweep'] for r in rounds)} points)",
            f"solves_per_s = {len(every_solve) / every_solve.sum():.1f} 1/s; latency p50 "
            f"{quantile(every_solve, 0.5) * 1e6:.2f} us, p90 "
            f"{quantile(every_solve, 0.9) * 1e6:.2f} us (n={len(every_solve)})",
            f"rate_inversions_per_s = {len(every_inversion) / every_inversion.sum():.1f} 1/s; "
            f"p50 {quantile(every_inversion, 0.5) * 1e3:.3f} ms (n={len(every_inversion)})",
            self.branch_shares(),
        ]
        return metrics, lines


# ----------------------------------------------------------------------- verify

class Verify(Workload):
    """Batch verification, as ``scripts/verify_equilibria.py`` plus the scan of
    ``scripts/trace_frontier.py``.  A round is 12 items cycling through the
    settings (simple, compression, channel); each item runs a closed-form solve,
    ``verify_equilibrium`` at the default ``OracleConfig`` (grid 401) and
    ``simulate_policy`` at 200 000 samples; simple items add a 9-multiplier
    ``lagrangian_scan``.
    """

    name = "verify"
    trace_max_rounds = 8
    ITEMS_PER_SETTING = 4
    SAMPLES = 200_000
    LAMBDAS = 9

    def warm_up_ops(self):
        rng = self.rng(0, 1)
        return [self._item(rng, s) for s in Setting]

    def round(self, k):
        rng = self.rng(k)
        return [self._item(rng, s) for _ in range(self.ITEMS_PER_SETTING) for s in Setting]

    def _item(self, rng, setting):
        s2, rho, r = draw_model(rng)
        target = interior(rng, s2 * (r - rho**2), s2 * r)
        sigma_n2 = float(rng.uniform(0.1, 2.0)) * s2
        p_t, sigma_z2 = draw_channel(rng)
        if setting is Setting.CHANNEL:
            target = max(target, s2 * (r - rho**2 * p_t / (p_t + sigma_z2)) + 1e-6 * s2)
        mc_seed = int(rng.integers(2**31))
        meta = {}

        def run():
            model = pmodel.validate_model(s2, rho, r)
            channel = ChannelSpec(p_t, sigma_z2) if setting is Setting.CHANNEL else None
            if setting is Setting.SIMPLE:
                sol = eq.solve_setting1(model, target)
            elif setting is Setting.COMPRESSION:
                sol = eq.solve_setting2(model, target, sigma_n2)
            else:
                sol = eq.solve_setting3(model, target, channel)
            report = oracle.verify_equilibrium(
                model, setting, channel, target,
                sigma_n2=sigma_n2 if setting is Setting.COMPRESSION else None,
            )
            sim = mc.simulate_policy(model, sol.policy, channel, sol.kappa,
                                     SimConfig(self.SAMPLES, mc_seed, setting))
            scan = None
            if setting is Setting.SIMPLE:
                t0 = time.perf_counter()
                scan = oracle.lagrangian_scan(
                    model, np.linspace(0.0, 1.0 / model.rho**2, self.LAMBDAS))
                meta["scan_s"] = time.perf_counter() - t0
            return model, sol, report, sim, scan

        def check(result):
            if isinstance(result, BaseException):
                return f"{setting.value} item: {type(result).__name__}: {result}"
            model, sol, report, sim, scan = result
            pol = sol.policy
            err = check_dc_dp(model, pol.alpha, target, sol.d_c, sol.constraint_active,
                              noise=pol.noise_var, beta=pol.beta,
                              channel_noise=sigma_z2 if setting is Setting.CHANNEL else 0.0)
            if err:
                return f"{setting.value} closed form: {err}"
            self.branches[branch_of(sol.constraint_active, target, s2 * r)] += 1
            if not report.passed:
                return f"{setting.value} oracle rejects the closed form (gap {report.dc_gap!r})"
            z_dc = abs(sim.d_c_hat - sol.d_c) / sim.stderr_dc
            z_dp = abs(sim.d_p_hat - sol.d_p) / sim.stderr_dp
            if not (z_dc < Z_MAX and z_dp < Z_MAX):
                return f"{setting.value} Monte Carlo z=({z_dc:.2f}, {z_dp:.2f})"
            for pt in scan or ():
                d_c_ref, d_p_ref = covariance_evaluate(model, pt.alpha, pt.noise_var)
                if not (abs(d_c_ref - pt.d_c) <= TOL * s2 and abs(d_p_ref - pt.d_p) <= TOL * s2):
                    return f"scan point lam={pt.lam!r} disagrees with the covariance"
                gap = abs(pt.d_c - eq.solve_setting1(model, pt.d_p).d_c)
                if not gap <= SCAN_GAP * s2:
                    return f"scan point lam={pt.lam!r} is {gap / s2:.2e}*sigma_x2 off the frontier"
            return None

        return Op("item", run, check, label=setting.value, meta=meta)

    def metrics(self, h):
        items = h.per_round("item")
        metrics = timing_metrics([len(v) / sum(v) for v in items], items,
                                 [statistics.median(v) for v in h.per_round("scan_s")])
        every_item, scans = np.concatenate(items), np.concatenate(h.per_round("scan_s"))
        lines = [
            f"verify_items_per_s = {len(every_item) / every_item.sum():.2f} 1/s; "
            f"verify_item_ms_p50 = {quantile(every_item, 0.5) * 1e3:.2f} ms, "
            f"verify_item_ms_p90 = {quantile(every_item, 0.9) * 1e3:.2f} ms "
            f"(n={len(every_item)} items)",
            f"lagrangian_scan p50 = {quantile(scans, 0.5) * 1e3:.2f} ms (n={len(scans)})",
            self.branch_shares(),
        ]
        return metrics, lines


# -------------------------------------------------------------------------- cli

GOLDEN_ARGV = [
    ("solve_simple.json",
     ["solve", "--setting", "simple", "--sigma-x2", "1", "--rho", "0.6", "--r", "1",
      "--dp", "0.84"]),
    ("tradeoff_simple_grid2.csv",
     ["tradeoff", "--setting", "simple", "--sigma-x2", "1", "--rho", "0.6", "--r", "1",
      "--grid", "2"]),
    ("verify_channel.json",
     ["verify", "--setting", "channel", "--sigma-x2", "1", "--rho", "0.6", "--r", "1",
      "--dp", "0.92", "--pt", "1", "--sigma-z2", "1"]),
]


def _flags(**kv):
    out = []
    for key, value in kv.items():
        out += [f"--{key.replace('_', '-')}", repr(value) if isinstance(value, float) else value]
    return out


@contextlib.contextmanager
def _output_dir(path):
    """Set (or, with None, clear) PRIVCOMM_OUTPUT_DIR for an in-process call."""
    old = os.environ.pop(pcli.OUTPUT_DIR_ENV, None)
    if path is not None:
        os.environ[pcli.OUTPUT_DIR_ENV] = str(path)
    try:
        yield
    finally:
        os.environ.pop(pcli.OUTPUT_DIR_ENV, None)
        if old is not None:
            os.environ[pcli.OUTPUT_DIR_ENV] = old


def cli_in_process(argv, output_dir=None):
    out, err = io.StringIO(), io.StringIO()
    with _output_dir(output_dir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = pcli.main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode()


def child_env(output_dir=None):
    env = dict(os.environ)
    env.pop(pcli.OUTPUT_DIR_ENV, None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if output_dir is not None:
        env[pcli.OUTPUT_DIR_ENV] = str(output_dir)
    return env


def spawn(cmd, env, stderr_path, timeout=120.0):
    """Run one child to completion; returns (code, stdout, stderr, maxrss_kb).

    Reaps the child with ``os.wait4`` so its own peak RSS is known; stderr
    goes to a file so reading stdout to EOF cannot deadlock.
    """
    with open(stderr_path, "wb") as err_fh:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=err_fh, stdin=subprocess.DEVNULL)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
    return proc.returncode, out, Path(stderr_path).read_bytes(), usage.ru_maxrss


class Cli(Workload):
    """Sequential ``python -m privcomm.cli`` processes (the package is not
    installed; the child gets ``src`` on PYTHONPATH).  A round is 12
    processes: every subcommand at its defaults (--grid 65, --oracle-grid
    401, --samples 1000000, --lambda-count 9), with --bits, --config FILE and
    --output under PRIVCOMM_OUTPUT_DIR on some; one infeasible target that
    must exit 1 with an ``error:`` line and no traceback; and one of the
    three golden argv of tests/test_cli.py.  Two simulate processes per round
    keep the 90th percentile inside the slowest class instead of on its edge.
    """

    name = "cli"
    trace_max_rounds = 2

    def __init__(self, seed, workdir: Path):
        super().__init__(seed)
        self.workdir = workdir
        for sub in ("out", "ref"):
            (workdir / sub).mkdir(parents=True, exist_ok=True)

    def warm_up_ops(self):
        return self.round(0, stream=1)[:2]

    def round(self, k, stream=0):
        rng = self.rng(k, stream)
        s2, rho, r = draw_model(rng)
        model = _flags(sigma_x2=s2, rho=rho, r=r)
        dp = interior(rng, s2 * (r - rho**2), s2 * r)
        sigma_n2 = float(rng.uniform(0.1, 2.0)) * s2
        p_t, sigma_z2 = draw_channel(rng)
        dp_channel = max(dp, s2 * (r - rho**2 * p_t / (p_t + sigma_z2)) + 1e-6 * s2)
        channel = _flags(pt=p_t, sigma_z2=sigma_z2)
        cfg = self.workdir / f"round{k}-{stream}.cfg"
        cfg.write_text(
            f"sigma-x2 = {s2!r}\nrho = {rho!r}  # correlation\nr = {r!r}\n"
            f"dp = {dp_channel!r}\npt = {p_t!r}\nsigma-z2 = {sigma_z2!r}\n"
        )
        noise_grid = ",".join(repr(float(v)) for v in np.geomspace(0.05, 20.0, 8) * s2)
        settings = [s.value for s in Setting]

        def setting_args(name):
            if name == "compression":
                return ["--setting", name, *model, "--dp", repr(dp), *_flags(sigma_n2=sigma_n2)]
            if name == "channel":
                return ["--setting", name, *model, "--dp", repr(dp_channel), *channel]
            return ["--setting", name, *model, "--dp", repr(dp)]

        golden, golden_argv = GOLDEN_ARGV[k % 3]
        bad = settings[k % 3]
        bad_dp = s2 * r * float(rng.uniform(1.01, 1.5))
        bad_args = setting_args(bad)
        bad_args[bad_args.index("--dp") + 1] = repr(bad_dp)
        specs = [
            ("solve", ["solve", *setting_args("simple")], None),
            ("solve", ["solve", *setting_args("compression"), "--bits"], None),
            ("solve", ["solve", "--setting", "channel", "--config", str(cfg)], None),
            ("tradeoff", ["tradeoff", "--setting", "simple", *model], None),
            ("tradeoff", ["tradeoff", "--setting", "channel", *model, *channel,
                          "--output", "tradeoff.csv"], "tradeoff.csv"),
            ("rate", ["rate", *model, "--dp", repr(dp), "--noise-grid", noise_grid, "--bits"],
             None),
            ("verify", ["verify", *setting_args(settings[k % 3])], None),
            ("simulate", ["simulate", *setting_args(settings[k % 3]),
                          "--seed", str(int(rng.integers(2**31)))], None),
            ("simulate", ["simulate", *setting_args(settings[(k + 1) % 3]), "--bits",
                          "--seed", str(int(rng.integers(2**31))), "--output", "sim.json"],
             "sim.json"),
            ("scan", ["scan", *model], None),
            ("error", ["solve", *bad_args], None),
            ("golden", golden_argv, None),
        ]
        return [self._process(kind, argv, output, golden if kind == "golden" else None)
                for kind, argv, output in specs]

    def _process(self, kind, argv, output, golden):
        out_dir = self.workdir / "out" if output else None
        meta = {"subcommand": argv[0]}

        def run():
            if output:
                (out_dir / output).unlink(missing_ok=True)
            span_file = self.workdir / "spans.npz"
            if self.tracer is None:
                cmd = [sys.executable, "-m", "privcomm.cli", *argv]
            else:
                cmd = [sys.executable, str(BENCH / "cli_child.py"), str(span_file),
                       repr(time.perf_counter()), *argv]
            code, out, err, rss_kb = spawn(cmd, child_env(out_dir), self.workdir / "stderr")
            if self.tracer is not None:
                spans.merge(self.tracer, span_file)
            meta["rss_kb"] = rss_kb
            written = (out_dir / output).read_bytes() if output else None
            return code, out, err, written

        def check(result):
            if isinstance(result, BaseException):
                return f"{argv[0]}: {type(result).__name__}: {result}"
            code, out, err, written = result
            if b"Traceback" in err:
                return f"{argv[0]} printed a traceback: {err[-300:]!r}"
            ref_dir = self.workdir / "ref" if output else None
            ref_code, ref_out, ref_err = cli_in_process(argv, ref_dir)
            if (code, out, err) != (ref_code, ref_out, ref_err):
                return f"{argv[0]} process output differs from in-process cli.main"
            if output and written != (ref_dir / output).read_bytes():
                return f"{argv[0]} --output file differs from in-process cli.main"
            if kind == "error":
                if code != 1 or out or not err.startswith(b"error:"):
                    return f"infeasible target: exit {code}, stderr {err[:200]!r}"
                return None
            if code != 0:
                return f"{argv[0]} exited {code}: {err[:300]!r}"
            if golden and out != (GOLDEN / golden).read_bytes():
                return f"golden {golden} differs"
            return None

        return Op("process", run, check, label=kind, meta=meta)

    def metrics(self, h):
        walls = h.per_round("process")
        metrics = timing_metrics([len(v) / sum(v) for v in walls], walls,
                                 [quantile(v, 0.1) for v in walls])
        rss = max(np.concatenate(h.per_round("rss_kb"))) / 1024.0
        metrics["peak_rss_mb"] = (rss, "MB")
        every = np.concatenate(walls)
        kinds = sorted((label, v) for (kind, label), v in h.by_label.items() if kind == "process")
        lines = [
            f"cli_ms_p50 = {quantile(every, 0.5) * 1e3:.1f} ms, cli_ms_p90 = "
            f"{quantile(every, 0.9) * 1e3:.1f} ms, p10 {quantile(every, 0.1) * 1e3:.1f} ms "
            f"(n={len(every)} processes)",
            "p50 ms by kind: " + ", ".join(
                f"{label} {quantile(v, 0.5) * 1e3:.1f} (n={len(v)})" for label, v in kinds),
            f"peak child RSS = {rss:.1f} MB",
        ]
        return metrics, lines


WORKLOADS = {cls.name: cls for cls in (Frontier, Verify, Cli)}
