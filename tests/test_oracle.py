import math
import pathlib
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privcomm import (
    ChannelSpec,
    EncoderPolicy,
    EquilibriumSolution,
    InfeasiblePrivacyTarget,
    Setting,
    SolveError,
    solve_setting1,
    solve_setting2,
    solve_setting3,
    validate_model,
)
from privcomm import oracle
from privcomm.equilibrium import ENDPOINT_RTOL, second_order_dc_dp
from privcomm.oracle import (
    _canonical,
    _evaluator,
    covariance_evaluate,
    grid_search,
    lagrangian_scan,
    verify_equilibrium,
)

from conftest import calls_from, exact_channel_dc_dp, source_models

M = validate_model(1.0, 0.6, 1.0)

#: The multipliers of ``privcomm scan`` on M.
DEFAULT_SCAN = [1.0 / 0.6**2 * i / 8 for i in range(9)]


class TestCovarianceEvaluate:
    @given(
        source_models(min_rho=0.0),
        st.floats(-2.0, 1.0),
        st.floats(0.0, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_printed_formulas(self, model, alpha, noise_var):
        d_c_ref, d_p_ref = second_order_dc_dp(model, alpha, noise_var / model.sigma_x2)
        d_c, d_p = covariance_evaluate(model, alpha, noise_var)
        assert d_c == pytest.approx(d_c_ref, rel=1e-12, abs=1e-12 * model.sigma_x2)
        assert d_p == pytest.approx(d_p_ref, rel=1e-12, abs=1e-12 * model.sigma_x2)

    def test_channel_scaling_invariance(self):
        # decoder MMSE is invariant to rescaling Y, so a noiseless unit-gain
        # channel must match the plain second-order evaluation
        d_c_plain, d_p_plain = covariance_evaluate(M, -0.3, 0.2)
        d_c_ch, d_p_ch = covariance_evaluate(
            M, -0.3, 0.2, beta=3.7, channel_noise=0.0
        )
        assert d_c_ch == pytest.approx(d_c_plain, rel=1e-12)
        assert d_p_ch == pytest.approx(d_p_plain, rel=1e-12)

    def test_channel_solution_consistent(self):
        ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
        sol = solve_setting3(M, 0.92, ch)
        d_c, d_p = covariance_evaluate(
            M, sol.policy.alpha, 0.0, beta=sol.policy.beta, channel_noise=ch.sigma_z2
        )
        assert d_c == pytest.approx(sol.d_c, rel=1e-12)
        assert d_p == pytest.approx(sol.d_p, rel=1e-12)

    def test_policy_sending_nothing_refused(self):
        # rho^2 = r: alpha = -rho/r without noise cancels X, so Y = 0
        with pytest.raises(ValueError, match=r"sends nothing \(Var\(Y\) = 0\)"):
            covariance_evaluate(validate_model(1.0, 1.0, 1.0), -1.0, 0.0)

    def test_overflowing_second_moment_refused(self):
        with pytest.raises(ValueError, match="overflows a float"):
            covariance_evaluate(M, -0.3, 0.2, beta=1e200)


class TestGridSearch:
    def test_matches_closed_form_simple(self):
        sol = solve_setting1(M, 0.84)
        opt = grid_search(M, Setting.SIMPLE, None, 0.84)
        assert opt.alpha == pytest.approx(sol.policy.alpha, abs=1e-5)
        assert opt.d_c == pytest.approx(sol.d_c, abs=1e-5)
        assert opt.noise_var <= 1e-6

    def test_matches_closed_form_channel(self):
        ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
        sol = solve_setting3(M, 0.92, ch)
        opt = grid_search(M, Setting.CHANNEL, ch, 0.92)
        assert opt.d_c == pytest.approx(sol.d_c, abs=1e-5)
        assert opt.noise_var <= 1e-6

    def test_matches_closed_form_compression(self):
        sol = solve_setting2(M, 0.9, 0.5)
        opt = grid_search(M, Setting.COMPRESSION, None, 0.9, sigma_n2=0.5)
        assert opt.alpha == pytest.approx(sol.policy.alpha, abs=1e-6)
        assert opt.d_c == pytest.approx(sol.d_c, abs=1e-6)

    def test_compression_inactive_region(self):
        # noise alone already meets the target; search must return alpha = 0
        m = validate_model(1.0, 0.5, 1.0)
        opt = grid_search(m, Setting.COMPRESSION, None, 0.8, sigma_n2=1.0)
        assert opt.alpha == 0.0

    def test_infeasible_target_raises(self):
        from privcomm import InfeasiblePrivacyTarget

        with pytest.raises(InfeasiblePrivacyTarget):
            grid_search(
                M, Setting.COMPRESSION, None, 1.05, sigma_n2=0.01
            )

    @pytest.mark.parametrize("target", [0.5, 0.9, 1.0, 1.0 + ENDPOINT_RTOL])
    def test_compression_builds_no_grid(self, target, monkeypatch):
        # the noise is held, so the search is one bisection over alpha, without numpy
        monkeypatch.setitem(sys.modules, "numpy", None)
        opt = grid_search(M, Setting.COMPRESSION, None, target, sigma_n2=0.5)
        assert opt.d_c == pytest.approx(solve_setting2(M, target, 0.5).d_c, abs=1e-6)

    def test_compression_requires_noise(self):
        with pytest.raises(ValueError):
            grid_search(M, Setting.COMPRESSION, None, 0.9)

    def test_noise_strictly_suboptimal(self):
        # forcing encoder noise and re-solving the constraint must cost distortion
        target = 0.84
        base = grid_search(M, Setting.SIMPLE, None, target)
        forced_noise = 0.01 * M.sigma_x2
        noisy = grid_search(M, Setting.COMPRESSION, None, target, sigma_n2=forced_noise)
        assert noisy.noise_var == forced_noise
        assert noisy.d_c > base.d_c + 1e-6


@pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
@pytest.mark.parametrize("model", [M, validate_model(2.5, 0.3, 0.4),
                                   validate_model(300.0, 1e-3, 2e-6)],
                         ids=["unit", "scaled", "small-r"])
def test_one_bisection_per_search(setting, model, monkeypatch):
    # every setting searches alpha alone, at its own encoder noise: two end probes,
    # the halvings of [-c, 0] down to REFINE_TOL and the point returned
    calls = []

    def counted(canon, alpha, noise):
        calls.append(noise)
        return second_order_dc_dp(canon, alpha, noise)

    monkeypatch.setattr(oracle, "second_order_dc_dp", counted)
    c = _canonical(model)[0].rho
    most = 2 + max(0, math.ceil(math.log2(c / oracle.REFINE_TOL))) + 1
    s2, r = model.sigma_x2, model.r
    channel = ChannelSpec(1.5 * s2, 0.5 * s2) if setting is Setting.CHANNEL else None
    sigma_n2 = 0.3 * s2 if setting is Setting.COMPRESSION else None
    lo, hi = s2 * (r - model.rho**2), s2 * r
    for target in (lo, lo + 0.5 * (hi - lo), lo + 0.9 * (hi - lo), hi,
                   hi * (1.0 + ENDPOINT_RTOL)):
        calls.clear()
        opt = grid_search(model, setting, channel, target, sigma_n2)
        assert 0 < len(calls) <= most, target
        assert opt.noise_var == (sigma_n2 or 0.0)
        if setting is not Setting.CHANNEL:  # the channel adds its own referred noise
            assert set(calls) == {sigma_n2 / s2 if sigma_n2 else 0.0}


@pytest.mark.parametrize("setting", [Setting.SIMPLE, Setting.CHANNEL], ids=lambda s: s.value)
def test_benchmark_range_verifies_without_noise(setting):
    # 300 models drawn as the benchmark's verify items draw them: each passes, and
    # its oracle optimum uses no encoder noise, since the converse bound covers noise
    rng = np.random.default_rng(33)
    failed = []
    for _ in range(300):
        s2, r = rng.uniform(0.1, 10.0), rng.uniform(0.05, 4.0)
        model = validate_model(s2, rng.uniform(0.05, 0.99) * math.sqrt(r), r)
        target = s2 * (r - model.rho**2) + rng.uniform(0.1, 0.9) * s2 * model.rho**2
        channel = None
        if setting is Setting.CHANNEL:
            channel = ChannelSpec(rng.uniform(0.5, 4.0), rng.uniform(0.1, 2.0))
            w = channel.p_t / (channel.p_t + channel.sigma_z2)
            target = max(target, s2 * (r - model.rho**2 * w) + 1e-6 * s2)
        report = verify_equilibrium(model, setting, channel, target)
        if not (report.passed and report.oracle_optimum.noise_var == 0.0):
            failed.append((model, target, report.oracle_optimum.noise_var, report.dc_gap))
    assert failed == []


class TestVerifyEquilibrium:
    def test_simple_passes(self):
        report = verify_equilibrium(M, Setting.SIMPLE, None, 0.84)
        assert report.passed
        assert abs(report.dc_gap) <= 1e-5

    def test_compression_passes(self):
        report = verify_equilibrium(M, Setting.COMPRESSION, None, 0.9, sigma_n2=0.5)
        assert report.passed

    def test_channel_passes(self):
        ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
        report = verify_equilibrium(M, Setting.CHANNEL, ch, 0.92)
        assert report.passed

    def test_channel_requires_a_channel_spec(self):
        with pytest.raises(ValueError, match="channel setting requires a ChannelSpec"):
            verify_equilibrium(M, Setting.CHANNEL, None, 0.92)

    def test_compression_requires_sigma_n2(self):
        with pytest.raises(ValueError) as info:
            verify_equilibrium(M, Setting.COMPRESSION, None, 0.9)
        assert str(info.value) == "compression verification requires sigma_n2"

    @given(source_models(min_rho=0.1))
    @settings(max_examples=15, deadline=None)
    def test_random_models_pass(self, model):
        lo = model.sigma_x2 * (model.r - model.rho**2)
        hi = model.sigma_x2 * model.r
        target = lo + 0.6 * (hi - lo)
        report = verify_equilibrium(model, Setting.SIMPLE, None, target)
        assert report.passed

    def test_planted_wrong_root_detected(self):
        # evaluate the far quadratic root: same privacy, strictly worse distortion
        sol = solve_setting1(M, 0.84)
        far_alpha = 2.0 * (-M.rho / M.r) - sol.policy.alpha
        d_c_far, d_p_far = covariance_evaluate(M, far_alpha, 0.0)
        assert d_p_far == pytest.approx(0.84, rel=1e-9)
        opt = grid_search(M, Setting.SIMPLE, None, 0.84)
        assert d_c_far - opt.d_c > 0.01  # a wrong-root solver would be flagged

    @pytest.mark.parametrize("oracle_agrees", [False, True])
    def test_planted_wrong_root_fails(self, oracle_agrees, monkeypatch):
        # alpha_minus in place of alpha_plus fails verify, and the converse bound
        # fails it alone, with a search planted to agree with the closed form
        sol = solve_setting1(M, 0.84)
        far_alpha = 2.0 * (-M.rho / M.r) - sol.policy.alpha
        d_c, d_p = covariance_evaluate(M, far_alpha, 0.0)
        wrong = EquilibriumSolution(EncoderPolicy(far_alpha), sol.kappa, d_c, d_p, True)
        monkeypatch.setattr(oracle, "solve_setting1", lambda model, target: wrong)
        if oracle_agrees:
            optimum = oracle.OracleOptimum(far_alpha, 0.0, d_c, d_p)
            monkeypatch.setattr(oracle, "grid_search", lambda *args: optimum)
        report = verify_equilibrium(M, Setting.SIMPLE, None, 0.84)
        assert report.dc_gap == 0.0 if oracle_agrees else report.dc_gap < -0.01
        assert not report.passed

    def test_planted_noisy_encoder_fails_the_bound(self, monkeypatch):
        # a simple answer that adds encoder noise meets its target above the least
        # D_C; a search held at that noise accepts it, and only the converse bound,
        # which covers noisy encoders, fails it
        sigma_n2 = 0.5
        noisy = solve_setting2(M, 0.84, sigma_n2)
        monkeypatch.setattr(oracle, "solve_setting1", lambda model, target: noisy)
        search = oracle.grid_search
        monkeypatch.setattr(oracle, "grid_search", lambda model, setting, channel, target, _:
                            search(model, Setting.COMPRESSION, None, target, sigma_n2))
        report = verify_equilibrium(M, Setting.SIMPLE, None, 0.84)
        assert abs(report.dc_gap) <= oracle.VERIFY_TOL
        assert noisy.d_c - oracle.converse_dc(M, noisy.d_p, 1.0) > 0.01
        assert not report.passed

    def test_planted_wrong_channel_target_fails(self, monkeypatch):
        # the effective target d' = d - (r - d)*sigma_z2/P_T taken over P_T + sigma_z2:
        # a frontier point, but at more privacy than the target asks
        ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
        d = 0.92
        d_eff = d - (M.r - d) * ch.sigma_z2 / (ch.p_t + ch.sigma_z2)
        alpha = -M.rho / M.r + math.sqrt((M.r - d_eff) * (M.r - M.rho**2) / (M.r**2 * d_eff))
        d_c, d_p = exact_channel_dc_dp(M, alpha, ch)
        assert d_p > d + 0.01
        beta = math.sqrt(ch.p_t / (1.0 + 2.0 * alpha * M.rho + alpha**2 * M.r))
        wrong = EquilibriumSolution(EncoderPolicy(alpha, beta), 0.0, d_c, d_p, True)
        monkeypatch.setattr(oracle, "solve_setting3", lambda model, target, channel: wrong)
        report = verify_equilibrium(M, Setting.CHANNEL, ch, d)
        assert report.dc_gap < -0.01 and not report.passed


def test_wide_range_models_pass():
    # 300 models over twelve decades of r and six of sigma_x2, cycling the settings
    rng = np.random.default_rng(300)
    failed = []
    for i in range(300):
        s2, r = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-6.0, 6.0)
        model = validate_model(s2, rng.uniform(0.05, 0.99) * math.sqrt(r), r)
        setting = list(Setting)[i % 3]
        lo, hi = s2 * (r - model.rho**2), s2 * r
        channel = ChannelSpec(rng.uniform(0.5, 4.0) * s2, rng.uniform(0.1, 2.0) * s2)
        sigma_n2 = rng.uniform(0.1, 2.0) * s2
        if setting is Setting.CHANNEL:
            lo = s2 * r - s2 * model.rho**2 * channel.p_t / (channel.p_t + channel.sigma_z2)
        target = lo + rng.uniform(0.1, 0.9) * (hi - lo)
        report = verify_equilibrium(
            model, setting, channel if setting is Setting.CHANNEL else None, target,
            sigma_n2=sigma_n2 if setting is Setting.COMPRESSION else None,
        )
        if not report.passed:
            failed.append((model, setting.value, report.dc_gap / s2))
    assert failed == []


@pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
def test_max_privacy_targets_pass(setting):
    # the solvers answer every target up to dp_max * (1 + ENDPOINT_RTOL), and the
    # oracle must confirm them: 40 models over the ranges above
    rng = np.random.default_rng(28)
    failed = []
    for _ in range(40):
        s2, r = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-6.0, 6.0)
        model = validate_model(s2, rng.uniform(0.05, 0.99) * math.sqrt(r), r)
        channel = ChannelSpec(rng.uniform(0.5, 4.0) * s2, rng.uniform(0.1, 2.0) * s2)
        sigma_n2 = rng.uniform(0.1, 2.0) * s2
        for target in (s2 * r, s2 * r * (1.0 + ENDPOINT_RTOL)):
            report = verify_equilibrium(
                model, setting, channel if setting is Setting.CHANNEL else None, target,
                sigma_n2=sigma_n2 if setting is Setting.COMPRESSION else None,
            )
            if not report.passed:
                failed.append((model, target, report.dc_gap / s2))
    assert failed == []


def test_near_degenerate_models_verify():
    # 400 seeded models, rho/sqrt(r) cycling U(0.05, 0.99), U(0, 0.05), U(0.99, 1) and
    # 1 - 10^U(-12, -4), sigma_x2 and r in 10^U(-3, 3); six targets in the simple and
    # channel settings each. Where the closed form lies on the converse bound, the
    # oracle must find it too: near c = 1, D_C is so steep in alpha that a bracket
    # 1e-7 wide left the search up to 6.7e-4*sigma_x2 above it
    rng = np.random.default_rng(3302)
    failed, checked = [], 0
    for i in range(400):
        s2, r = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
        c = (rng.uniform(0.05, 0.99), rng.uniform(0.0, 0.05), rng.uniform(0.99, 1.0),
             1.0 - 10.0 ** rng.uniform(-12.0, -4.0))[i % 4]
        model = validate_model(s2, c * math.sqrt(r), r)
        channel = ChannelSpec(rng.uniform(0.5, 4.0) * s2, rng.uniform(0.1, 2.0) * s2)
        fractions = rng.uniform(0.0, 1.0, 6)
        for setting, w in ((Setting.SIMPLE, 1.0),
                           (Setting.CHANNEL, channel.p_t / (channel.p_t + channel.sigma_z2))):
            lo = s2 * (r - model.rho**2 * w)
            for target in lo + fractions * (s2 * r - lo):
                try:
                    report = verify_equilibrium(
                        model, setting, channel if setting is Setting.CHANNEL else None, target)
                except SolveError:  # the solver refuses: nothing to verify
                    continue
                closed = report.closed_form
                bound = s2 * oracle.converse_dc(model, max(target, closed.d_p), w)
                if abs(closed.d_c - bound) > oracle.VERIFY_TOL * s2:
                    continue  # the closed form itself is off: a solver defect, not the oracle's
                checked += 1
                if not report.passed:
                    failed.append((model, setting.value, target, report.dc_gap / s2))
    assert failed == []
    assert checked > 4000


@pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
def test_search_returns_the_last_feasible_alpha(setting, monkeypatch):
    # every optimum meets its target, and one bracket step toward alpha = 0 would not:
    # REFINE_TOL, or the adjacent float where (1 - c)*(1 + c) <= 1e-4. Seeded models
    # with rho/sqrt(r) in U(0.05, 0.99) or 1 - 10^U(-12, -4)
    boundary, found = oracle._boundary_alpha, []

    def recorded(dc_dp, c, d_p_target):
        found.append(boundary(dc_dp, c, d_p_target))
        return found[-1]

    monkeypatch.setattr(oracle, "_boundary_alpha", recorded)
    rng = np.random.default_rng(21)
    stepped = 0
    for i in range(100):
        s2, r = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-3.0, 3.0)
        c = rng.uniform(0.05, 0.99) if i % 2 else 1.0 - 10.0 ** rng.uniform(-12.0, -4.0)
        model = validate_model(s2, c * math.sqrt(r), r)
        channel = ChannelSpec(rng.uniform(0.5, 4.0) * s2, rng.uniform(0.1, 2.0) * s2)
        sigma_n2 = rng.uniform(0.1, 2.0) * s2
        canon = _canonical(model)[0]
        c = canon.rho
        noise = sigma_n2 / s2 if setting is Setting.COMPRESSION else 0.0
        dc_dp = _evaluator(canon, setting, channel, noise)
        lo = s2 * (r - model.rho**2)
        for target in lo + rng.uniform(0.01, 0.99, 3) * (s2 * r - lo):
            opt = grid_search(model, setting, channel, target, sigma_n2)
            alpha, target_c = found[-1], target / s2 / r
            assert dc_dp(alpha)[1] >= target_c
            # rescaling the target and the answer rounds four times
            assert opt.d_p >= target * (1.0 - 4.0 * sys.float_info.epsilon)
            if alpha < 0.0:  # alpha = 0 is free: the noise meets the target
                step = (math.nextafter(alpha, 0.0) if (1.0 - c) * (1.0 + c) <= 1e-4
                        else alpha + oracle.REFINE_TOL)
                assert dc_dp(step)[1] < target_c, (model, target)
                stepped += 1
    assert stepped > 150


class TestLagrangianScan:
    def test_zero_multiplier_gives_zero_distortion(self):
        (pt,) = lagrangian_scan(M, [0.0])
        assert pt.alpha == pytest.approx(0.0, abs=1e-6)
        assert pt.d_c == pytest.approx(0.0, abs=1e-6)

    def test_points_lie_on_frontier(self):
        for pt in lagrangian_scan(M, np.linspace(0.0, 1.0 / 0.36, 7)):
            frontier = solve_setting1(M, pt.d_p)
            assert pt.d_c == pytest.approx(
                frontier.d_c, abs=1e-4 * M.sigma_x2
            )
            assert pt.noise_var <= 1e-4

    def test_stationarity_at_interior_optimum(self):
        # at the scan optimum the objective gradient in alpha vanishes
        (pt,) = lagrangian_scan(M, [1.0])
        h = 1e-6
        lo = covariance_evaluate(M, pt.alpha - h, 0.0)
        hi = covariance_evaluate(M, pt.alpha + h, 0.0)
        grad = ((hi[0] - lo[0]) - 1.0 * (hi[1] - lo[1])) / (2 * h)
        assert grad == pytest.approx(0.0, abs=1e-4)

    def test_out_of_range_multiplier_rejected(self):
        (pt,) = lagrangian_scan(M, [1.0 / 0.36 + 0.1])  # beyond 1/rho^2 is in range
        assert pt.d_p > 0.977
        for lam in (-0.5, math.inf):
            with pytest.raises(ValueError, match="outside"):
                lagrangian_scan(M, [lam])

    def test_unresolvable_multiplier_rejected(self):
        # D_P is flat in the noise at max privacy: floating point cannot pin it
        with pytest.raises(ValueError, match=r"lam=2777777777777\.7\d* is too large"):
            lagrangian_scan(M, [1e12 / 0.36])

    def test_rho_zero_scans_trivial_point(self):
        # theta is independent of X: every multiplier gives the free floor
        for model in (validate_model(1.0, 0.0, 1.0), validate_model(3.0, 0.0, 0.5)):
            for pt in lagrangian_scan(model, [0.0, 1.0, 100.0]):
                assert pt.alpha == pytest.approx(0.0, abs=1e-6)
                assert pt.d_c == pytest.approx(0.0, abs=1e-6 * model.sigma_x2)
                assert pt.d_p == pytest.approx(model.sigma_x2 * model.r, rel=1e-12)

    def test_nan_multiplier_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            lagrangian_scan(M, [0.5, float("nan")])


def four_round_scan(model, lam, grid):
    """One scan point by four alternating golden-section rounds, never stopping
    early, from the noise of the grid minimizer of D_C - lam*D_P."""
    canon, lo_a, back = _canonical(model)
    alpha_axis = np.linspace(lo_a, 0.5, grid)
    noise_axis = np.linspace(0.0, oracle.NOISE_MAX, grid)
    a, n = alpha_axis[:, None], noise_axis[None, :]
    # second_order_dc_dp's arithmetic, elementwise on the grid
    den = 1.0 + 2.0 * a * canon.rho + a * a * canon.r + n
    gap = canon.r - canon.rho**2
    d_c_g, d_p_g = (a * a * gap + n) / den, (gap + canon.r * n) / den
    lam_c = lam * model.r
    _, j = np.unravel_index(int(np.argmin(d_c_g - d_p_g * lam_c)), d_c_g.shape)
    noise = float(noise_axis[j])

    def cost(a, s):
        d_c, d_p = second_order_dc_dp(canon, a, s)
        return d_c - lam_c * d_p

    for _ in range(4):
        alpha = oracle._golden_min(lambda a: cost(a, noise), lo_a, 0.5)
        noise = oracle._golden_min(lambda s: cost(alpha, s), 0.0, oracle.NOISE_MAX)
    alpha, noise_var, d_c, d_p = back(alpha, noise, *second_order_dc_dp(canon, alpha, noise))
    if noise > 1e-4:
        raise ValueError(f"encoder noise {noise_var}")
    return lam, alpha, noise_var, d_c, d_p


@st.composite
def scan_cases(draw):
    """A model with r in [1e-6, 1e6], rho/sqrt(r) in [0, 0.99] or in the flat-cost
    band [0.99, 1), and lam in {0} or [1e-3, 1e12]/r."""
    r = 10.0 ** draw(st.floats(-6.0, 6.0))
    c = draw(st.floats(0.0, 0.99) | st.floats(0.99, 1.0, exclude_max=True))
    model = validate_model(10.0 ** draw(st.floats(-3.0, 3.0)), c * math.sqrt(r), r)
    lam = draw(st.just(0.0) | st.floats(-3.0, 12.0).map(lambda e: 10.0**e / r))
    return model, lam


class TestScanFixedPoint:
    """The scan starts from the leftover noise and stops once a round repeats
    itself; its answers must equal four rounds from the grid minimizer's noise."""

    @pytest.mark.parametrize("grid", [41, 401])
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(case=scan_cases())
    def test_equals_four_rounds(self, grid, case):
        model, lam = case
        try:
            expected = four_round_scan(model, lam, grid)
        except ValueError:
            with pytest.raises(ValueError, match="too large to resolve"):
                lagrangian_scan(model, [lam])
            return
        (pt,) = lagrangian_scan(model, [lam])
        assert (pt.lam, pt.alpha, pt.noise_var, pt.d_c, pt.d_p) == expected

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(case=scan_cases())
    def test_objectives_are_the_evaluators_cost(self, case):
        # every cost a pass evaluates equals D_C - lam'*D_P of second_order_dc_dp, bit
        # for bit, at the alpha and noise the scan has reached. A noise pass certified
        # from the slope's sign evaluates nothing, so each alpha pass's noise is read
        # from its closure: zero, a noise pass's answer or a certified constant
        model, lam = case
        canon, lam_c = _canonical(model)[0], lam * model.r
        golden_min, at = oracle._golden_min, {}
        reached = {0.0, oracle._NOISE_RISING, oracle._NOISE_FALLING}

        def checked(f, lo, hi):
            alpha_pass = f.__name__ == "alpha_cost"
            if alpha_pass:
                held = dict(zip(f.__code__.co_freevars, (c.cell_contents for c in f.__closure__)))
                assert held["noise"] in reached
                at["noise"] = held["noise"]

            def g(x):
                if alpha_pass:
                    d_c, d_p = second_order_dc_dp(canon, x, at["noise"])
                else:
                    d_c, d_p = second_order_dc_dp(canon, at["alpha"], x)
                cost = f(x)
                assert cost.hex() == (d_c - lam_c * d_p).hex()
                return cost

            x = golden_min(g, lo, hi)
            if alpha_pass:
                at["alpha"] = x
            else:
                reached.add(x)
            return x

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle, "_golden_min", checked)
            try:
                lagrangian_scan(model, [lam])
            except ValueError:  # a refusal follows the passes, which were checked
                pass

    def test_default_scan_halves_the_calls(self, monkeypatch):
        # the objective is inline, so count its evaluations through _golden_min
        evaluations = []
        golden_min = oracle._golden_min

        def counted(f, lo, hi):
            def g(x):
                evaluations.append(None)
                return f(x)
            return golden_min(g, lo, hi)

        monkeypatch.setattr(oracle, "_golden_min", counted)
        lagrangian_scan(M, DEFAULT_SCAN)
        # one alpha pass per multiplier: each starts at the leftover noise, and
        # every noise pass is certified from its slope
        assert len(evaluations) == 342
        evaluations.clear()
        for lam in DEFAULT_SCAN:
            four_round_scan(M, lam, 41)
        assert len(evaluations) == 2772  # four rounds at every multiplier


def reference_scan(model, lambda_grid):
    """``lagrangian_scan`` with every round's noise pass run, from zero noise: the
    scan as it was before the pass's answer was read off the sign of its slope,
    with its rule that the leftover noise is 0.0 where g = 1 - c^2 is no larger."""
    canon, lo_a, back = oracle._canonical(model)
    if canon.degenerate:
        raise oracle.DegenerateModelError(
            model, oracle._SENDS_NOTHING.format("the scan's alpha range"))
    rho, r, s2 = canon.rho, canon.r, canon.sigma_x2
    gap = r - rho**2

    out = []
    for lam in lambda_grid:
        lam = float(lam)
        if not 0.0 <= lam < math.inf:  # NaN fails too
            raise ValueError(f"lam={lam} outside [0, inf)")
        lam_c = lam * model.r
        if lam_c == math.inf:
            raise ValueError(oracle._TOO_LARGE.format(lam, "lam*r overflows"))

        noise = 0.0
        for _ in range(4):
            start = noise
            dp_num = s2 * (gap + r * noise)

            def alpha_cost(a):
                den = 1.0 + 2.0 * a * rho + a * a * r + noise
                if den <= 0.0:
                    raise RuntimeError("nonpositive output variance; invalid policy")
                return s2 * (a * a * gap + noise) / den - lam_c * (dp_num / den)

            alpha = oracle._golden_min(alpha_cost, lo_a, 0.5)
            mix = 1.0 + 2.0 * alpha * rho + alpha * alpha * r
            dc_num = alpha * alpha * gap

            def noise_cost(s):
                den = mix + s
                if den <= 0.0:
                    raise RuntimeError("nonpositive output variance; invalid policy")
                return s2 * (dc_num + s) / den - lam_c * (s2 * (gap + r * s) / den)

            noise = oracle._golden_min(noise_cost, 0.0, oracle.NOISE_MAX)
            if noise == oracle._NOISE_RISING and gap <= oracle._NOISE_RISING:
                noise = 0.0
            if noise == start:
                break
        alpha, noise_var, d_c, d_p = back(alpha, noise, *second_order_dc_dp(canon, alpha, noise))
        if noise > 1e-4:
            raise ValueError(oracle._TOO_LARGE.format(
                lam, f"the scan's minimizer has encoder noise {noise_var}"))
        out.append(oracle.ScanPoint(lam=lam, alpha=alpha, noise_var=noise_var, d_c=d_c, d_p=d_p))
    return out


def scan_outcome(scan, model, lam):
    """The repr of ``scan``'s point at lam, or the class and message of its refusal."""
    try:
        (pt,) = scan(model, [lam])
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return repr(pt)


def scan_at_alpha(monkeypatch, scan, model, lam, alpha):
    """``scan_outcome`` with every alpha pass answering ``alpha``, and the number
    of noise passes that ran."""
    golden_min, noise_passes = oracle._golden_min, []

    def forced(f, lo, hi):
        if f.__name__ == "alpha_cost":
            return alpha
        noise_passes.append(f)
        return golden_min(f, lo, hi)

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_golden_min", forced)
        return scan_outcome(scan, model, lam), len(noise_passes)


def slope_at(c, alpha, lam_c, r=1.0):
    """The noise cost's slope numerator K = (1 - lam')*mix - (dc_num - lam'*g) on the
    canonical model (1, c, 1), and mix, in the scan's arithmetic."""
    gap = r - c**2
    mix = 1.0 + 2.0 * alpha * c + alpha * alpha * r
    return (1.0 - lam_c) * mix - (alpha * alpha * gap - lam_c * gap), mix


class TestNoiseCertificate:
    """Where |K| > _SLOPE_TOL*(1 + lam'), the scan takes the noise pass's answer from
    the sign of K; everywhere else it runs the pass."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("multiple", [1.0, 2.0, 10.0, 1e4])
    def test_full_pass_returns_the_taken_answer_at_the_margin(self, monkeypatch, multiple, sign):
        # K = (1 + alpha*c)^2 - lam'*(alpha + c)^2, so lam' below puts K at
        # k*(1 + lam'); K/(1 + lam') lies in [-(alpha + c)^2, (1 + alpha*c)^2], within
        # [-2.25, 2.25] on the scan's alpha range, so no multiple beyond 2.25e4 exists
        rng = np.random.default_rng([int(multiple), int(sign > 0)])
        k = sign * multiple * oracle._SLOPE_TOL
        taken = oracle._NOISE_RISING if sign > 0 else oracle._NOISE_FALLING
        cases = 0
        while cases < 20:
            c = rng.uniform(0.0, 0.99)
            alpha = rng.uniform(-2.0 * c - 0.5, 0.5)
            lam_c = ((1.0 + alpha * c) ** 2 - k) / ((alpha + c) ** 2 + k)
            if not 0.0 <= lam_c < math.inf:
                continue
            cases += 1
            slope, _ = slope_at(c, alpha, lam_c)
            assert slope / (k * (1.0 + lam_c)) == pytest.approx(1.0, rel=1e-6)
            canon = validate_model(1.0, c, 1.0)

            def cost(s):
                d_c, d_p = second_order_dc_dp(canon, alpha, s)
                return d_c - lam_c * d_p

            assert oracle._golden_min(cost, 0.0, oracle.NOISE_MAX).hex() == taken.hex()
            got, passes = scan_at_alpha(monkeypatch, lagrangian_scan, canon, lam_c, alpha)
            assert got == scan_at_alpha(monkeypatch, reference_scan, canon, lam_c, alpha)[0]
            if multiple > 1.0:  # at 1x, rounding may leave K within the tolerance
                assert passes == 0

    @pytest.mark.parametrize("c, alpha, lam_c, rounds", [
        # K = +-0.5*_SLOPE_TOL*(1 + lam'), lam' solved as in the margin test; a
        # rising cost's pass returns the leftover noise that the scan starts from
        (0.6, -0.59, (0.646**2 - 0.5e-4) / (0.01**2 + 0.5e-4), 1),
        (0.6, -0.3, (0.82**2 + 0.5e-4) / (0.3**2 - 0.5e-4), 2),
        # (1 - lam')*mix overflows, so K = -inf, while K/(1 + lam') is about -4e-16:
        # the pass returns 3.0021730594617995, not _NOISE_FALLING
        (0.0, 2e-8, sys.float_info.max, 2),
    ], ids=["within-rising", "within-falling", "overflow"])
    def test_uncertified_slope_runs_the_pass(self, monkeypatch, c, alpha, lam_c, rounds):
        slope, mix = slope_at(c, alpha, lam_c)
        assert mix > 0.0
        assert abs(slope) <= oracle._SLOPE_TOL * (1.0 + lam_c) or slope == -math.inf
        model = validate_model(1.0, c, 1.0)
        got, passes = scan_at_alpha(monkeypatch, lagrangian_scan, model, lam_c, alpha)
        assert passes == rounds  # a noise pass in every round
        assert got == scan_at_alpha(monkeypatch, reference_scan, model, lam_c, alpha)[0]

    @pytest.mark.parametrize("rho, r, alpha, lam_c", [
        # mix = 1 - 4.5 + 2.25 = -1.25 while K = 1.5625: the pass runs and is refused
        (1.5, 1.0, -1.5, 0.0),
        # g = 2: (1 - lam')*mix and lam'*g both overflow, so K is NaN
        (0.0, 2.0, 0.5, 1.5e308),
    ], ids=["nonpositive-mix", "nan-slope"])
    def test_stand_in_runs_the_pass(self, monkeypatch, rho, r, alpha, lam_c):
        # a canonical model has c < 1, which has given no mix <= 0, and g = 1 - c^2 <= 1,
        # so lam'*g cannot overflow: a stand-in for (1, c, 1) reaches both
        slope, mix = slope_at(rho, alpha, lam_c, r)
        assert mix <= 0.0 < slope or math.isnan(slope)
        back = _canonical(M)[2]
        stand_in = types.SimpleNamespace(degenerate=False, rho=rho, r=r, sigma_x2=1.0)
        monkeypatch.setattr(oracle, "_canonical", lambda model: (stand_in, -3.5, back))
        got = scan_at_alpha(monkeypatch, lagrangian_scan, M, lam_c, alpha)
        assert got[1] >= 1
        assert got == scan_at_alpha(monkeypatch, reference_scan, M, lam_c, alpha)


def first_round_noise(monkeypatch, model, lam):
    """The noise that the scan's first alpha pass holds at lam."""
    golden_min, held = oracle._golden_min, []

    def recorded(f, lo, hi):
        if f.__name__ == "alpha_cost" and not held:
            held.append(f.__closure__[f.__code__.co_freevars.index("noise")].cell_contents)
        return golden_min(f, lo, hi)

    with monkeypatch.context() as mp:
        mp.setattr(oracle, "_golden_min", recorded)
        scan_outcome(lagrangian_scan, model, lam)
    return held[0]


class TestSingleStart:
    """Every multiplier starts at the leftover noise ``_NOISE_RISING``, or at zero
    noise where g = 1 - c^2 is no larger, and runs at most four rounds from there."""

    @pytest.mark.parametrize("lam", [1.0, 1e4, 1e6])
    def test_first_alpha_pass_holds_the_leftover_noise(self, monkeypatch, lam):
        # at 1e4 and 1e6 on M, the slope at the first pass's alpha is flat enough
        # that its noise pass runs
        assert first_round_noise(monkeypatch, M, lam) == oracle._NOISE_RISING

    @pytest.mark.parametrize("c", [1.0 - 1e-8, 1.0 - 1e-12])
    def test_below_the_leftover_noise_starts_at_zero(self, monkeypatch, c):
        canon = validate_model(1.0, c, 1.0)
        assert 1.0 - canon.rho**2 <= oracle._NOISE_RISING
        for lam in (0.0, 0.5, 1e4):
            assert first_round_noise(monkeypatch, canon, lam) == 0.0

    def test_scans_equal_the_reference(self):
        # seeded c: the benchmark's U(0.05, 0.99) and 1 - 10^U(-6, -2); lam' on the
        # default grid [0, 1/c^2] plus three in 10^U(-3, 6)
        rng = np.random.default_rng(20261022)
        differing = []
        for i in range(400):
            c = rng.uniform(0.05, 0.99) if i % 2 else 1.0 - 10.0 ** rng.uniform(-6.0, -2.0)
            canon = validate_model(1.0, c, 1.0)
            grid = [float(x) for x in np.linspace(0.0, 1.0 / canon.rho**2, 9)]
            for lam_c in [*grid, *(10.0 ** rng.uniform(-3.0, 6.0, 3))]:
                got = scan_outcome(lagrangian_scan, canon, lam_c)
                if got != scan_outcome(reference_scan, canon, lam_c):
                    differing.append((c, lam_c, got))
        assert differing == []

    @pytest.mark.parametrize("c, lam", [
        (0.0, sys.float_info.max), (0.0, 0.0), (0.0, 1e300),
        (0.6, sys.float_info.max), (1.0 - 1e-15, sys.float_info.max),
    ])
    def test_extreme_multiplier_matches_the_reference(self, c, lam):
        # lam' near the float limit overflows the slope, so its noise passes run
        model = validate_model(1.0, c, 1.0)
        assert scan_outcome(lagrangian_scan, model, lam) == scan_outcome(
            reference_scan, model, lam)


def test_scan_equals_the_reference_on_a_corpus(monkeypatch):
    # seeded models: the benchmark's ranges, rho/sqrt(r) in U(0.99, 1) and
    # 1 - 10^U(-12, -2); the default 9 multipliers on [0, 1/rho^2] and three
    # lam in 10^U(-3, 12)/r each. Every point and every refusal must be the same.
    rng = np.random.default_rng(20261021)
    golden_min, passes = oracle._golden_min, {"alpha_cost": 0, "noise_cost": 0}

    def counted(f, lo, hi):
        passes[f.__name__] += 1
        return golden_min(f, lo, hi)

    outcomes, differing = [], []
    for i in range(600):
        r = rng.uniform(0.05, 4.0)
        c = (rng.uniform(0.05, 0.99), rng.uniform(0.99, 1.0),
             1.0 - 10.0 ** rng.uniform(-12.0, -2.0))[i % 3]
        model = validate_model(rng.uniform(0.1, 10.0), c * math.sqrt(r), r)
        lams = [*np.linspace(0.0, 1.0 / model.rho**2, 9), *(10.0 ** rng.uniform(-3.0, 12.0, 3) / r)]
        for lam in lams:
            expected = scan_outcome(reference_scan, model, lam)
            with monkeypatch.context() as mp:
                mp.setattr(oracle, "_golden_min", counted)
                got = scan_outcome(lagrangian_scan, model, lam)
            outcomes.append(got)
            if got != expected:
                differing.append((model, lam, got, expected))
    assert differing == []
    refused = sum(isinstance(o, tuple) for o in outcomes)
    assert 0 < refused < len(outcomes) == 7200
    # both of the rule's ways are taken: noise passes certified, and noise passes run
    assert 0 < passes["noise_cost"] < passes["alpha_cost"]


def multiplier_map(model, lam):
    """The frontier's alpha at multiplier lam, in closed form: at zero noise
    d/d alpha (D_C - lam*D_P) = 0 is rho*alpha^2 + (1 + lam*r)*alpha + lam*rho = 0,
    whose root in [-rho/r, 0], written without cancellation, is this one."""
    rho, r = model.rho, model.r
    return -2.0 * lam * rho / ((1.0 + lam * r)
                               + math.sqrt((1.0 - lam * r) ** 2 + 4.0 * lam * (r - rho**2)))


def assert_on_the_multiplier_map(model, lam, alpha, d_c, d_p):
    """alpha (on the canonical scale), D_C and D_P within VERIFY_TOL of the map's point."""
    tol = oracle.VERIFY_TOL * model.sigma_x2
    alpha_ref = multiplier_map(model, lam)
    d_c_ref, d_p_ref = covariance_evaluate(model, alpha_ref, 0.0)
    assert abs(alpha - alpha_ref) * math.sqrt(model.r) <= oracle.VERIFY_TOL, lam
    assert abs(d_c - d_c_ref) <= tol and abs(d_p - d_p_ref) <= tol, lam


@pytest.mark.parametrize("golden, model", [
    ("scan_simple.csv", M),
    ("scan_lambdas.csv", validate_model(2.5, 0.3, 0.4)),
])
def test_scan_goldens_lie_on_the_multiplier_map(golden, model):
    lines = (pathlib.Path(__file__).parent / "golden" / golden).read_text().splitlines()
    assert lines[0] == "lambda,alpha,noise_var,d_p,d_c"
    for line in lines[1:]:
        lam, alpha, _, d_p, d_c = map(float, line.split(","))
        assert_on_the_multiplier_map(model, lam, alpha, d_c, d_p)


def test_scans_lie_on_the_multiplier_map():
    # 9 multipliers on [0, 1/rho^2], the default scan, over the verify workload's
    # models: sigma_x2 in U(0.1, 10), r in U(0.05, 4), rho/sqrt(r) in U(0.05, 0.99)
    rng = np.random.default_rng(9)
    for _ in range(50):
        r = rng.uniform(0.05, 4.0)
        model = validate_model(rng.uniform(0.1, 10.0), rng.uniform(0.05, 0.99) * math.sqrt(r), r)
        for pt in lagrangian_scan(model, np.linspace(0.0, 1.0 / model.rho**2, 9)):
            assert_on_the_multiplier_map(model, pt.lam, pt.alpha, pt.d_c, pt.d_p)


def test_scan_objective_makes_no_python_call():
    # at lam = 1e4 on M the slope in the noise lies within _SLOPE_TOL: its noise pass runs
    def scan():
        return lagrangian_scan(M, DEFAULT_SCAN + [1e4])

    objectives = [c for c in lagrangian_scan.__code__.co_consts if isinstance(c, types.CodeType)]
    assert sorted(c.co_name for c in objectives) == ["alpha_cost", "noise_cost"]
    python, builtin = calls_from(oracle._golden_min, scan)
    assert sorted(set(python)) == ["alpha_cost", "noise_cost"] and builtin == []
    for code in objectives:
        assert calls_from(code, scan) == ([], [])


def test_alpha_range_without_theta():
    # r = 0 forces rho = 0 (theta = 0): the map must not divide by r
    for model in (validate_model(1.0, 0.0, 0.0), validate_model(2.0, 0.0, 3.0)):
        canon, alpha_lo, back = _canonical(model)
        assert canon == validate_model(1.0, 0.0, 1.0)
        assert alpha_lo == -0.5
        assert back(-0.5, 1.0, 1.0, 1.0) == (-0.5 / math.sqrt(model.r or 1.0),
                                              model.sigma_x2, model.sigma_x2,
                                              model.sigma_x2 * model.r)


def test_without_theta_only_a_zero_target_is_feasible():
    # r = 0: D_P = 0 for every encoder
    model = validate_model(2.0, 0.0, 0.0)
    assert grid_search(model, Setting.SIMPLE, None, 0.0).d_p == 0.0
    with pytest.raises(InfeasiblePrivacyTarget):
        grid_search(model, Setting.SIMPLE, None, 0.5)


def test_effective_noise_channel_consistency():
    # channel-referred noise reproduces the closed-form solution's distortions
    ch = ChannelSpec(p_t=2.0, sigma_z2=0.7)
    sol = solve_setting3(M, 0.9, ch)
    d_c, d_p = _evaluator(M, Setting.CHANNEL, ch, 0.0)(sol.policy.alpha)
    assert d_c == pytest.approx(sol.d_c, rel=1e-10)
    assert d_p == pytest.approx(sol.d_p, rel=1e-10)
