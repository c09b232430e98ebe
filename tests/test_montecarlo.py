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
from privcomm.montecarlo import (
    BLOCK,
    BYTES_PER_SAMPLE,
    SimConfig,
    SimResult,
    _add_noise,
    _analytic_theta_coefficient,
    _draw_joint,
    _mean_square,
    _sum_of_squares,
    simulate_policy,
)

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
    # every draw (encoder and channel noise) runs; a fresh thread allocates its
    # workspace inside the trace, so the peak counts the chain's three rows;
    # a first call here loads what numpy imports on first use
    n = 200_000
    ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
    policy = EncoderPolicy(alpha=-0.3, noise_var=0.2, beta=0.8)
    cfg = SimConfig(samples=n, seed=4, setting=Setting.CHANNEL)
    simulate_policy(M, policy, ch, 0.7, cfg)

    def first_call_peak():
        tracemalloc.start()
        try:
            simulate_policy(M, policy, ch, 0.7, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert in_new_thread(first_call_peak) <= 3.5 * 8 * n


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

        assert in_new_thread(growth_peak) <= 3.5 * 8 * 2 * n


def test_samples_beyond_physical_memory_rejected(monkeypatch):
    monkeypatch.setattr(privcomm.model, "physical_memory", lambda: BYTES_PER_SAMPLE * 1000)
    SimConfig(samples=1000, seed=0, setting=Setting.SIMPLE)
    with pytest.raises(ValueError, match="physical memory"):
        SimConfig(samples=1001, seed=0, setting=Setting.SIMPLE)


def four_row_chain(model, policy, channel, decoder_gain, config):
    """The signal chain as whole-row numpy calls on four float64 rows, the
    fourth a scratch row: what the blocked three-row chain must reproduce."""
    n = config.samples
    rng = np.random.default_rng(config.seed)
    ws = np.empty((4, n))
    x, theta = ws[:2]
    rng.standard_normal(out=ws[:2])
    theta *= math.sqrt(model.r - model.rho**2)
    theta += np.multiply(x, model.rho, out=ws[2])
    theta *= math.sqrt(model.sigma_x2)
    x *= math.sqrt(model.sigma_x2)
    y = np.multiply(theta, policy.alpha, out=ws[2])
    y += x
    e = ws[3]
    if policy.noise_var > 0.0:
        rng.standard_normal(out=e)
        e *= math.sqrt(policy.noise_var)
        y += e
    power_hat = None
    if channel is not None:
        y *= policy.beta
        power_hat = float(np.mean(np.square(y, out=e)))
        rng.standard_normal(out=e)
        e *= math.sqrt(channel.sigma_z2)
        y += e

    def squared_error(target, gain):
        return np.square(target - y * gain)

    def mean_stderr(a):
        return float(np.mean(a)), float(np.std(a, ddof=1)) / math.sqrt(n)

    d_c, stderr_dc = mean_stderr(squared_error(x, decoder_gain))
    d_p, stderr_dp = mean_stderr(
        squared_error(theta, _analytic_theta_coefficient(model, policy, channel)))
    c_hat = float(np.add.reduce(theta * y) / np.add.reduce(y * y))
    d_p_reg = float(np.mean(squared_error(theta, c_hat)))
    return SimResult(d_c, d_p, d_p_reg, power_hat, gaussian_conditional_entropy(d_p),
                     stderr_dc, stderr_dp)


#: Sizes around numpy's pairwise-sum leaf (8, 128) and around the block.
PARITY_SIZES = [2, 7, 8, 127, 128, 129, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 200_000]


class TestThreeRowParity:
    """The blocked three-row chain gives every output of the whole-row chain,
    bit for bit."""

    @pytest.mark.parametrize("n", PARITY_SIZES)
    @pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
    @pytest.mark.parametrize("alpha, noise_var", [(-0.3, 0.2), (-0.3, 0.0), (0.0, 0.0)],
                             ids=["noise", "noiseless", "alpha-0"])
    def test_simulate_equals_four_row_chain(self, n, setting, alpha, noise_var):
        channel, beta = None, 1.0
        if setting is Setting.CHANNEL:
            channel, beta = ChannelSpec(p_t=1.0, sigma_z2=1.0), 0.8
        args = (M, EncoderPolicy(alpha, beta, noise_var), channel, 0.7,
                SimConfig(n, n + 17, setting))
        assert simulate_policy(*args) == four_row_chain(*args)

    @pytest.mark.parametrize("n", [*PARITY_SIZES, 1_000_003])
    def test_blocked_sum_of_squares_is_numpys(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal(n) * 10.0 ** rng.uniform(-150.0, 150.0, n)
        assert _sum_of_squares(a, np.empty(BLOCK)) == np.add.reduce(np.square(a))

    @pytest.mark.parametrize("n", [n for n in [*PARITY_SIZES, 1_000_003] if n > 128])
    def test_blocked_sum_splits_where_numpy_does(self, n):
        # q = fl(a^2) < ulp(1)/2 < 2q: 1 + q + q is 1 where q meets 1 first,
        # 1 + 2^-52 where the two q's meet first; they straddle numpy's split
        half = n // 2 - (n // 2) % 8
        a = np.zeros(n)
        a[0] = 1.0
        a[half - 1] = a[half] = 1.2 * 2.0**-27
        assert np.add.reduce(np.square(a)) == 1.0
        assert _sum_of_squares(a, np.empty(BLOCK)) == 1.0

    @pytest.mark.parametrize("n", PARITY_SIZES)
    def test_block_draws_are_one_whole_row_draw(self, n):
        row = np.empty(n)
        whole = np.random.default_rng(n)
        whole.standard_normal(out=row)
        blocked = np.random.default_rng(n)
        y = np.zeros(n)
        _add_noise(y, 1.0, blocked, np.empty(BLOCK))
        assert np.array_equal(y, row)
        assert blocked.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("late, message", [(1e154, "in reduce"), (1e155, "in square")],
                             ids=["sum", "square"])
    def test_power_overflow_names_what_the_whole_row_would(self, late, message):
        # the first leaf's sum overflows; a later square overflows as well or not
        y = np.full(3 * BLOCK, 1e154)
        y[-1] = late
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match=message):
                np.mean(np.square(y))
            with pytest.raises(FloatingPointError, match=message):
                _mean_square(y, np.empty(BLOCK))


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


@pytest.mark.parametrize("setting, channel, beta, message", [
    (Setting.CHANNEL, None, 1.0, "channel setting requires a ChannelSpec"),
    (Setting.SIMPLE, None, 2.0, "settings 1/2 use a unit transmit gain"),
    (Setting.COMPRESSION, None, 0.5, "settings 1/2 use a unit transmit gain"),
], ids=["channel-without-spec", "simple-gain", "compression-gain"])
def test_signal_chain_refusals(setting, channel, beta, message):
    policy = EncoderPolicy(-0.3, beta)
    with pytest.raises(ValueError) as info:
        simulate_policy(M, policy, channel, 0.5, SimConfig(1000, 0, setting))
    assert str(info.value) == message
