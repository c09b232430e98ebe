import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import privcomm.model
from privcomm import (
    ChannelSpec,
    EncoderPolicy,
    Setting,
    gaussian_conditional_entropy,
    solve_setting1,
    solve_setting3,
    validate_model,
)
from privcomm.montecarlo import SimConfig, _draw_joint, simulate_policy

M = validate_model(1.0, 0.6, 1.0)
N = 200_000


def test_draw_joint_covariance():
    x, theta = _draw_joint(M, np.random.default_rng(11), np.empty((3, 1_000_000)))
    n = x.size
    se = 5.0 / math.sqrt(n)  # crude 5-standard-error band on unit-scale moments
    assert np.mean(x * x) == pytest.approx(1.0, abs=3 * se)
    assert np.mean(x * theta) == pytest.approx(0.6, abs=3 * se)
    assert np.mean(theta * theta) == pytest.approx(1.0, abs=3 * se)


def test_draw_joint_degenerate_correlation():
    m = validate_model(1.0, 0.7, 0.49)
    x, theta = _draw_joint(m, np.random.default_rng(3), np.empty((3, 1000)))
    assert np.allclose(theta, 0.7 * x)


def test_draw_joint_independent():
    m = validate_model(1.0, 0.0, 1.0)
    x, theta = _draw_joint(m, np.random.default_rng(5), np.empty((3, 500_000)))
    assert abs(np.corrcoef(x, theta)[0, 1]) < 0.01


def test_determinism():
    cfg = SimConfig(samples=10_000, seed=42, setting=Setting.SIMPLE)
    sol = solve_setting1(M, 0.84)
    a = simulate_policy(M, sol.policy, None, sol.kappa, cfg)
    b = simulate_policy(M, sol.policy, None, sol.kappa, cfg)
    assert a == b


def test_identity_chain():
    cfg = SimConfig(samples=10_000, seed=1, setting=Setting.SIMPLE)
    res = simulate_policy(M, EncoderPolicy(alpha=0.0), None, 1.0, cfg)
    assert res.d_c_hat == pytest.approx(0.0, abs=1e-28)


def test_simple_equilibrium_within_five_sigma():
    cfg = SimConfig(samples=N, seed=2024, setting=Setting.SIMPLE)
    sol = solve_setting1(M, 0.84)
    res = simulate_policy(M, sol.policy, None, sol.kappa, cfg)
    assert abs(res.d_c_hat - sol.d_c) < 5 * res.stderr_dc
    assert abs(res.d_p_hat - sol.d_p) < 5 * res.stderr_dp


def test_channel_power_within_five_sigma():
    ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
    cfg = SimConfig(samples=N, seed=7, setting=Setting.CHANNEL)
    sol = solve_setting3(M, 0.92, ch)
    res = simulate_policy(M, sol.policy, ch, sol.kappa, cfg)
    power_se = math.sqrt(2.0 / N) * ch.p_t  # chi-square variance of mean power
    assert res.power_hat == pytest.approx(ch.p_t, abs=5 * power_se)
    assert abs(res.d_c_hat - sol.d_c) < 5 * res.stderr_dc
    assert abs(res.d_p_hat - sol.d_p) < 5 * res.stderr_dp


def test_entropy_bridge():
    cfg = SimConfig(samples=5_000, seed=9, setting=Setting.SIMPLE)
    sol = solve_setting1(M, 0.9)
    res = simulate_policy(M, sol.policy, None, sol.kappa, cfg)
    assert res.entropy_hat == gaussian_conditional_entropy(res.d_p_hat)


def test_analytic_vs_regression_dp():
    cfg = SimConfig(samples=N, seed=13, setting=Setting.SIMPLE)
    sol = solve_setting1(M, 0.84)
    res = simulate_policy(M, sol.policy, None, sol.kappa, cfg)
    assert abs(res.d_p_hat - res.d_p_hat_regression) < 5 * res.stderr_dp


def test_stderr_scaling():
    sol = solve_setting1(M, 0.84)
    ratios = []
    for seed in (1, 2, 3):
        small = simulate_policy(
            M, sol.policy, None, sol.kappa, SimConfig(40_000, seed, Setting.SIMPLE)
        )
        large = simulate_policy(
            M, sol.policy, None, sol.kappa, SimConfig(160_000, seed + 100, Setting.SIMPLE)
        )
        ratios.append(small.stderr_dc / large.stderr_dc)
    for ratio in ratios:
        assert 2.0 / 1.5 < ratio < 2.0 * 1.5


def test_kappa_minimizes_sample_distortion():
    # one seed for every gain, so each sees the same draws: the decoder gain
    # kappa is the receiver's best response on the sample too
    cfg = SimConfig(samples=N, seed=21, setting=Setting.SIMPLE)
    sol = solve_setting1(M, 0.84)
    gains = np.linspace(sol.kappa * 0.8, sol.kappa * 1.2, 11)
    d = np.array([simulate_policy(M, sol.policy, None, float(g), cfg).d_c_hat
                  for g in gains])
    # empirical distortion is quadratic in the gain; vertex near kappa
    vertex = int(np.argmin(d))
    assert abs(gains[vertex] - sol.kappa) <= (gains[1] - gains[0]) * 1.5
    assert np.all(np.diff(d[: vertex + 1]) <= 0) and np.all(np.diff(d[vertex:]) >= 0)


def test_corrected_kappa_beats_printed():
    # printed decoder gain ignores the transmit gain and channel noise
    ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
    cfg = SimConfig(samples=N, seed=33, setting=Setting.CHANNEL)
    sol = solve_setting3(M, 0.92, ch)
    alpha = sol.policy.alpha
    printed = (1 + alpha * M.rho) / (1 + 2 * alpha * M.rho + alpha**2 * M.r)
    printed_dc, kappa_dc = (simulate_policy(M, sol.policy, ch, g, cfg).d_c_hat
                            for g in (printed, sol.kappa))
    assert kappa_dc < printed_dc


def test_probe_gains_coincide_noiseless():
    ch = ChannelSpec(p_t=1.0, sigma_z2=0.0)
    sol = solve_setting3(M, 0.84, ch)
    alpha = sol.policy.alpha
    printed = (1 + alpha * M.rho) / (1 + 2 * alpha * M.rho + alpha**2 * M.r)
    assert sol.kappa * sol.policy.beta == pytest.approx(printed, rel=1e-12)


def test_config_validation():
    with pytest.raises(ValueError, match="samples must be >= 2, got 1"):
        SimConfig(samples=1, seed=0, setting=Setting.SIMPLE)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        SimConfig(samples=2, seed=-1, setting=Setting.SIMPLE)


@pytest.mark.parametrize("setting", [Setting.SIMPLE, Setting.COMPRESSION])
def test_channel_outside_channel_setting_refused(setting):
    # the chain would skip the channel while the privacy coefficient counts it
    sol = solve_setting1(M, 0.84)
    cfg = SimConfig(samples=1000, seed=3, setting=setting)
    with pytest.raises(ValueError, match=f"{setting.value} setting takes no ChannelSpec"):
        simulate_policy(M, sol.policy, ChannelSpec(1.0, 1.0), sol.kappa, cfg)


def test_kernel_peak_memory():
    # every draw (encoder and channel noise) runs; the chain holds four arrays
    n = 200_000
    ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
    policy = EncoderPolicy(alpha=-0.3, noise_var=0.2, beta=0.8)
    cfg = SimConfig(samples=n, seed=4, setting=Setting.CHANNEL)
    simulate_policy(M, policy, ch, 0.7, cfg)
    tracemalloc.start()
    try:
        simulate_policy(M, policy, ch, 0.7, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 8 * n


def in_new_thread(f):
    """``f()`` run in a thread of its own, so with a fresh workspace."""
    out = []
    t = threading.Thread(target=lambda: out.append(f()))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    return out[0]


CHANNEL_CASE = (ChannelSpec(p_t=1.0, sigma_z2=1.0),
                EncoderPolicy(alpha=-0.3, noise_var=0.2, beta=0.8))


def simulate_case(n, seed):
    ch, policy = CHANNEL_CASE
    return simulate_policy(M, policy, ch, 0.7, SimConfig(n, seed, Setting.CHANNEL))


class TestWorkspace:
    """The signal chain reuses one workspace per thread between calls of one
    size; no call may see what another left in it."""

    def test_interleaved_sizes_and_seeds(self):
        calls = [(1000, 1), (50_000, 2), (1000, 1), (2, 3), (50_000, 2), (50_000, 4), (1000, 1)]
        fresh = {call: in_new_thread(lambda: simulate_case(*call)) for call in calls}
        assert [simulate_case(*call) for call in calls] == [fresh[call] for call in calls]

    def test_concurrent_threads_match_serial(self):
        # more threads than cores run the same sizes at once, on seeds of their own
        workers = 3
        calls = [[(n, 10 * i + k) for i, n in enumerate([50_000, 1000, 50_000, 50_000])]
                 for k in range(workers)]
        serial = [[simulate_case(*call) for call in mine] for mine in calls]
        barrier = threading.Barrier(workers, timeout=60)
        results = [None] * workers

        def worker(k):
            barrier.wait()
            results[k] = [simulate_case(*call) for call in calls[k]]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial

    def test_same_size_call_allocates_no_arrays(self):
        n = 100_000

        def second_call_peak():
            simulate_case(n, 5)
            tracemalloc.start()
            try:
                simulate_case(n, 6)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert in_new_thread(second_call_peak) < 8 * n

    def test_growing_drops_the_old_workspace_first(self):
        n = 100_000

        def growth_peak():
            tracemalloc.start()
            try:
                simulate_case(n, 5)
                tracemalloc.reset_peak()
                simulate_case(2 * n, 5)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert in_new_thread(growth_peak) <= 4.5 * 8 * 2 * n


def test_samples_beyond_physical_memory_rejected(monkeypatch):
    monkeypatch.setattr(privcomm.model, "physical_memory", lambda: 32 * 1000)
    SimConfig(samples=1000, seed=0, setting=Setting.SIMPLE)
    with pytest.raises(ValueError, match="physical memory"):
        SimConfig(samples=1001, seed=0, setting=Setting.SIMPLE)


def test_output_independent_of_blas_threads():
    # at 10^6 samples a BLAS dot product would change with the thread count
    argv = [sys.executable, "-m", "privcomm.cli", "simulate", "--setting", "compression",
            "--sigma-x2", "1", "--rho", "0.6", "--r", "1", "--dp", "0.92",
            "--sigma-n2", "0.7", "--seed", "2"]
    src = str(pathlib.Path(privcomm.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(argv, env=env, capture_output=True, check=True, timeout=120)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
