import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from privcomm import (
    ChannelSpec,
    DegenerateModelError,
    Setting,
    TradeoffCurve,
    lagrangian_slope_check,
    noise_for_rate,
    privacy_floor,
    solve_setting2,
    sweep_privacy_distortion,
    sweep_rate_distortion,
    validate_model,
)
from privcomm.equilibrium import SolveError, evaluate_setting2

from conftest import source_models

M = validate_model(1.0, 0.6, 1.0)


class TestPrivacySweep:
    def test_endpoints_grid3(self):
        curve = sweep_privacy_distortion(M, Setting.SIMPLE, grid=3)
        xs = curve.column("d_p")
        ys = curve.column("d_c")
        assert list(xs) == pytest.approx([0.64, 0.82, 1.0])
        assert ys[0] == 0.0
        assert ys[2] == pytest.approx(0.36, rel=1e-12)

    def test_rho_zero_flat(self):
        m = validate_model(1.0, 0.0, 1.0)
        curve = sweep_privacy_distortion(m, Setting.SIMPLE, grid=8)
        assert len(curve.points) == 1
        assert curve.points[0][1] == 0.0  # d_c free everywhere

    def test_noiseless_channel_equals_simple(self):
        simple = sweep_privacy_distortion(M, Setting.SIMPLE, grid=17)
        ch = sweep_privacy_distortion(
            M, Setting.CHANNEL, ChannelSpec(p_t=2.0, sigma_z2=0.0), grid=17
        )
        for p, q in zip(simple.points, ch.points):
            assert p[0] == pytest.approx(q[0], rel=1e-12)
            assert p[1] == pytest.approx(q[1], rel=1e-12)

    def test_endpoints_match_privacy_bounds(self):
        curve = sweep_privacy_distortion(M, Setting.SIMPLE, grid=33)
        assert curve.points[0][0] == privacy_floor(M, Setting.SIMPLE)
        assert curve.points[-1][0] == M.sigma_x2 * M.r

    @given(source_models(min_rho=0.1))
    @settings(max_examples=30, deadline=None)
    def test_channel_curve_dominates_simple(self, model):
        # channel noise cannot reduce distortion at equal privacy
        channel = ChannelSpec(p_t=1.0, sigma_z2=0.5)
        floor = privacy_floor(model, Setting.CHANNEL, channel)
        hi = model.sigma_x2 * model.r
        from privcomm import solve_setting1, solve_setting3

        for target in np.linspace(floor, hi, 9):
            d_c_ch = solve_setting3(model, float(target), channel).d_c
            d_c_simple = solve_setting1(model, float(target)).d_c
            assert d_c_ch >= d_c_simple - 1e-9 * model.sigma_x2

    @given(source_models(min_rho=0.05))
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, model):
        curve = sweep_privacy_distortion(model, Setting.SIMPLE, grid=33)
        ys = curve.column("d_c")
        assert np.all(np.diff(ys) >= -1e-12 * model.sigma_x2)


class TestCurveValidation:
    def test_unordered_rejected(self):
        with pytest.raises(ValueError):
            TradeoffCurve(
                setting=Setting.SIMPLE,
                columns=("d_p", "d_c"),
                points=((0.8, 0.1), (0.7, 0.2)),
                model=M,
            )

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TradeoffCurve(
                setting=Setting.SIMPLE,
                columns=("d_p", "d_c"),
                points=((0.7, 0.1), (0.8, math.inf)),
                model=M,
            )


class TestRateSweep:
    def test_active_inactive_transition(self):
        m = validate_model(1.0, 0.5, 1.0)
        curve = sweep_rate_distortion(m, 0.875, [0.1, 1.0, 10.0])
        alphas = dict(zip(curve.column("sigma_n2"), curve.column("alpha")))
        assert alphas[0.1] < 0.0
        assert alphas[1.0] == pytest.approx(0.0, abs=1e-9)
        assert alphas[10.0] == 0.0

    def test_unconstrained_is_gaussian_rd(self):
        curve = sweep_rate_distortion(M, 0.64, [0.25, 1.0, 4.0])
        for sigma_n2, rate, _, _, alpha in curve.points:
            assert alpha == 0.0
            assert rate == pytest.approx(0.5 * math.log1p(1.0 / sigma_n2), rel=1e-12)

    def test_rate_monotone_in_noise(self):
        curve = sweep_rate_distortion(M, 0.9, np.geomspace(0.01, 100, 12))
        rates = curve.column("rate")
        dcs = curve.column("d_c")
        assert np.all(np.diff(rates) < 0.0)
        assert np.all(np.diff(dcs) > 0.0)

    def test_zero_rate_limit(self):
        curve = sweep_rate_distortion(M, 0.9, [1e7])
        _, rate, d_c, d_p, _ = curve.points[0]
        assert rate == pytest.approx(0.0, abs=1e-6)
        assert d_c == pytest.approx(1.0, rel=1e-4)

    def test_shrinking_target_cannot_increase_distortion(self):
        for sigma_n2 in (0.1, 1.0):
            dcs = [solve_setting2(M, t, sigma_n2).d_c for t in (0.95, 0.9, 0.8, 0.7)]
            assert all(b <= a + 1e-12 for a, b in zip(dcs, dcs[1:]))


class TestSlopeCheck:
    def test_synthetic_curve_within_bounds(self):
        # slopes 0.5..2.5 sit inside [0, 1/rho^2] = [0, 2.78]
        xs = np.linspace(0.64, 1.0, 32)
        ys = 0.5 * (xs - 0.64) + 2.78 * (xs - 0.64) ** 2
        curve = TradeoffCurve(
            Setting.SIMPLE, ("d_p", "d_c"), tuple(zip(xs.tolist(), ys.tolist())), M
        )
        report = lagrangian_slope_check(curve, M)
        assert report.status == "ok" and report.passed
        assert report.upper_bound == pytest.approx(1.0 / 0.36)

    def test_real_curve_slope_profile(self):
        # the closed-form curve starts flat and steepens without bound toward
        # max privacy, so the multiplier cap is exceeded near the top end
        curve = sweep_privacy_distortion(M, Setting.SIMPLE, grid=128)
        report = lagrangian_slope_check(curve, M)
        slopes = report.slopes
        assert min(slopes) >= 0.0
        assert slopes[0] == pytest.approx(0.0, abs=0.05)
        assert max(slopes) == slopes[-1]  # steepest toward max privacy
        assert slopes[-1] > report.upper_bound
        assert not report.passed

    def test_rho_zero_degenerate(self):
        m = validate_model(1.0, 0.0, 1.0)
        curve = sweep_privacy_distortion(m, Setting.SIMPLE, grid=8)
        report = lagrangian_slope_check(curve, m)
        assert report.status == "degenerate" and report.passed


def test_noise_for_rate_roundtrip():
    sigma_n2 = noise_for_rate(M, 0.9, 0.7)
    sol = solve_setting2(M, 0.9, sigma_n2)
    rate, _, _ = evaluate_setting2(M, sol.policy)
    assert rate == pytest.approx(0.7, abs=1e-7)


def exact_rate(model, sigma_n2, d_p_target):
    """Rate of the policy solve_setting2 returns, its A/n evaluated in exact rationals."""
    alpha = Fraction(solve_setting2(model, d_p_target, sigma_n2).policy.alpha)
    s2, rho, r = (Fraction(v) for v in (model.sigma_x2, model.rho, model.r))
    snr = s2 * (1 + 2 * alpha * rho + alpha * alpha * r) / Fraction(sigma_n2)
    return 0.5 * math.log1p(float(snr))


class TestNoiseForRate:
    def test_exact_rate_on_random_models(self):
        rng = np.random.default_rng(6)
        branches = set()
        for _ in range(240):
            s2, r = rng.uniform(0.1, 10.0), rng.uniform(0.05, 4.0)
            model = validate_model(s2, rng.uniform(0.05, 0.99) * math.sqrt(r), r)
            lo, hi = s2 * (r - model.rho**2), s2 * r
            target = float(lo + rng.uniform(0.1, 0.9) * (hi - lo))
            rate = float(rng.uniform(0.05, 2.0))
            sigma_n2 = noise_for_rate(model, target, rate)
            branches.add(solve_setting2(model, target, sigma_n2).constraint_active)
            assert exact_rate(model, sigma_n2, target) == pytest.approx(rate, rel=1e-12)
        assert branches == {False, True}

    @pytest.mark.parametrize("rate", [1e-14, 20.0])
    @pytest.mark.parametrize("d_p", [0.64, 0.9])
    def test_rates_beyond_1e12_noise_ratio(self, rate, d_p):
        # sigma_n2 / sigma_x2 is ~5e13 at 1e-14 nats and ~4e-18 at 20 nats
        sigma_n2 = noise_for_rate(M, d_p, rate)
        assert not 1e-12 <= sigma_n2 <= 1e12
        assert exact_rate(M, sigma_n2, d_p) == pytest.approx(rate, rel=1e-12)

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -0.5])
    def test_bad_rate_refused(self, rate):
        with pytest.raises(ValueError, match="positive and finite"):
            noise_for_rate(M, 0.9, rate)

    @pytest.mark.parametrize(
        "model, rate",
        [(M, 400.0), (validate_model(1e-6, 0.6, 1.0), 350.0), (M, 1e-320)],
        ids=["expm1-overflow", "noise-underflow", "noise-overflow"],
    )
    def test_noise_outside_floats_refused(self, model, rate):
        with pytest.raises(ValueError, match=f"rate_target={rate}") as info:
            noise_for_rate(model, 0.9 * model.sigma_x2, rate)
        assert not isinstance(info.value, SolveError)

    def test_nan_target_refused(self):
        with pytest.raises(SolveError, match="privacy target must be finite"):
            noise_for_rate(M, math.nan, 0.5)

    def test_degenerate_inactive_answers(self):
        m = validate_model(1.0, 0.6, 0.36)
        sigma_n2 = noise_for_rate(m, 0.2, 0.1)
        assert sigma_n2 == 1.0 / math.expm1(0.2) == pytest.approx(4.5167, rel=1e-4)

    def test_degenerate_active_refused(self):
        # rho^2 = r: once D_P binds, the rate is ln(r/d)/2 at every noise
        m = validate_model(1.0, 0.6, 0.36)
        with pytest.raises(DegenerateModelError, match="every noise"):
            noise_for_rate(m, 0.3, 0.1)
