import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privcomm import (
    ChannelSpec,
    DegenerateModelError,
    DegeneratePrivacyTarget,
    EncoderPolicy,
    InfeasiblePrivacyTarget,
    InfiniteRateError,
    SolveError,
    evaluate_setting1,
    evaluate_setting2,
    evaluate_setting3,
    privacy_bounds,
    solve_alpha_quadratic,
    solve_setting1,
    solve_setting2,
    solve_setting3,
    validate_model,
    xi_sign_check,
)
from privcomm.equilibrium import mixing_gain, second_order_dc_dp
from privcomm.oracle import covariance_evaluate

from conftest import models_with_targets, source_models

M = validate_model(1.0, 0.6, 1.0)

# frozen reference roots for rho=0.6, r=1, d=0.84:
# delta = sqrt(0.64 * (1/0.84 - 1)) evaluated independently
REF_DELTA = math.sqrt(0.64 * (1.0 / 0.84 - 1.0))
REF_ALPHA = -0.6 + REF_DELTA


class TestAlphaQuadratic:
    def test_reference_roots(self):
        plus, minus = solve_alpha_quadratic(M, 0.84, 0.0)
        assert plus == pytest.approx(-0.250851, abs=1e-6)
        assert minus == pytest.approx(-0.949149, abs=1e-6)
        assert plus == pytest.approx(REF_ALPHA, abs=1e-14)

    def test_both_roots_hit_target(self):
        for root in solve_alpha_quadratic(M, 0.84, 0.0):
            _, d_p = second_order_dc_dp(M, root, 0.0)
            assert d_p == pytest.approx(0.84, abs=1e-12)

    def test_max_privacy_double_root(self):
        plus, minus = solve_alpha_quadratic(M, 1.0, 0.0)
        assert plus == minus == pytest.approx(-0.6, abs=1e-12)

    def test_min_privacy_roots(self):
        plus, minus = solve_alpha_quadratic(M, 0.64, 0.0)
        assert plus == pytest.approx(0.0, abs=1e-12)
        assert minus == pytest.approx(-1.2, abs=1e-12)

    def test_infeasible_target(self):
        with pytest.raises(InfeasiblePrivacyTarget):
            solve_alpha_quadratic(M, 1.5, 0.0)

    def test_degenerate_target(self):
        with pytest.raises(DegeneratePrivacyTarget):
            solve_alpha_quadratic(M, 0.0, 0.0)

    @given(models_with_targets())
    @settings(max_examples=200)
    def test_back_substitution(self, model_target):
        model, target = model_target
        d = target / model.sigma_x2
        if d <= 1e-9:
            return
        for root in solve_alpha_quadratic(model, d, 0.0):
            _, d_p = second_order_dc_dp(model, root, 0.0)
            assert d_p / model.sigma_x2 == pytest.approx(d, abs=1e-9)


class TestEvaluators:
    def test_setting1_identity_chain(self):
        d_c, d_p = evaluate_setting1(M, EncoderPolicy(alpha=0.0))
        assert d_c == 0.0
        assert d_p == pytest.approx(0.64)

    def test_setting1_prediction_error(self):
        d_c, d_p = evaluate_setting1(M, EncoderPolicy(alpha=-0.6))
        assert d_c == pytest.approx(0.36, abs=1e-14)
        assert d_p == pytest.approx(1.0, abs=1e-14)

    def test_setting1_reference_point(self):
        d_c, d_p = evaluate_setting1(M, EncoderPolicy(alpha=REF_ALPHA))
        assert d_c == pytest.approx(0.052857, abs=5e-6)
        assert d_p == pytest.approx(0.84, abs=1e-9)

    def test_setting2_alpha_zero(self):
        m = validate_model(1.0, 0.5, 1.0)
        rate, d_c, d_p = evaluate_setting2(m, EncoderPolicy(alpha=0.0, noise_var=1.0))
        assert rate == pytest.approx(0.5 * math.log(2.0))
        assert d_c == pytest.approx(0.5)
        assert d_p == pytest.approx(1.0 - 0.25 / 2.0)

    def test_setting2_reference(self):
        m = validate_model(1.0, 0.5, 1.0)
        _, _, d_p = evaluate_setting2(m, EncoderPolicy(alpha=-0.2, noise_var=1.0))
        assert d_p == pytest.approx(1.0 - 0.09 / 1.84, abs=1e-12)

    def test_setting2_large_noise_limit(self):
        rate, d_c, d_p = evaluate_setting2(M, EncoderPolicy(alpha=-0.3, noise_var=1e9))
        assert rate == pytest.approx(0.0, abs=1e-6)
        assert d_c == pytest.approx(1.0, rel=1e-6)
        assert d_p == pytest.approx(1.0, rel=1e-6)

    def test_setting2_rejects_zero_noise(self):
        with pytest.raises(InfiniteRateError):
            evaluate_setting2(M, EncoderPolicy(alpha=0.0, noise_var=0.0))

    @given(source_models(), st.floats(-2.0, 1.0), st.floats(1e-3, 10.0))
    @settings(max_examples=300)
    def test_setting2_dc_forms_agree(self, model, alpha, noise):
        _, d_c, _ = evaluate_setting2(model, EncoderPolicy(alpha=alpha, noise_var=noise))
        n = noise / model.sigma_x2
        alt = model.sigma_x2 * (
            1.0 - (1.0 + alpha * model.rho) ** 2 / (mixing_gain(model, alpha) + n)
        )
        assert d_c == pytest.approx(alt, rel=1e-10, abs=1e-13 * model.sigma_x2)

    def test_setting3_power(self):
        ch = ChannelSpec(p_t=2.0, sigma_z2=0.5)
        beta = math.sqrt(2.0 / mixing_gain(M, -0.3))
        _, _, power = evaluate_setting3(M, EncoderPolicy(alpha=-0.3, beta=beta), ch)
        assert power == pytest.approx(2.0, rel=1e-12)


class TestSolveSetting1:
    def test_max_privacy_endpoint(self):
        sol = solve_setting1(M, 1.0)
        assert sol.policy.alpha == -0.6
        assert sol.kappa == pytest.approx(1.0)
        assert sol.d_c == pytest.approx(0.36, rel=1e-12)
        assert sol.constraint_active

    def test_min_privacy_endpoint(self):
        sol = solve_setting1(M, 0.64)
        assert sol.policy.alpha == 0.0
        assert sol.kappa == 1.0
        assert sol.d_c == 0.0
        assert not sol.constraint_active

    def test_reference_solution(self):
        sol = solve_setting1(M, 0.84)
        assert sol.policy.alpha == pytest.approx(-0.250851, abs=1e-6)
        assert sol.kappa == pytest.approx(1.114956, abs=5e-6)
        assert sol.d_c == pytest.approx(0.052857, abs=5e-6)
        assert sol.policy.noise_var == 0.0

    def test_below_floor_is_inactive(self):
        sol = solve_setting1(M, 0.1)
        assert sol.policy.alpha == 0.0 and not sol.constraint_active

    def test_infeasible(self):
        with pytest.raises(InfeasiblePrivacyTarget):
            solve_setting1(M, 1.01)

    def test_rho_zero_guarded(self):
        m = validate_model(1.0, 0.0, 1.0)
        sol = solve_setting1(m, 1.0)
        assert sol.policy.alpha == 0.0 and sol.d_c == 0.0

    @given(models_with_targets())
    @settings(max_examples=200)
    def test_invariants(self, model_target):
        model, target = model_target
        sol = solve_setting1(model, target)
        bounds = privacy_bounds(model)
        assert sol.policy.noise_var == 0.0
        assert -model.rho / model.r - 1e-12 <= sol.policy.alpha <= 1e-12
        assert sol.d_c >= 0.0
        assert bounds.dp_min - 1e-9 <= sol.d_p <= bounds.dp_max + 1e-9
        if sol.constraint_active:
            assert sol.d_p == pytest.approx(target, rel=1e-9, abs=1e-9)

    @given(models_with_targets())
    @settings(max_examples=100)
    def test_chosen_root_has_lower_distortion(self, model_target):
        model, target = model_target
        d = target / model.sigma_x2
        bounds = privacy_bounds(model)
        if not (bounds.dp_min * 1.001 + 1e-9 < target < bounds.dp_max * 0.999):
            return
        plus, minus = solve_alpha_quadratic(model, d, 0.0)
        sol = solve_setting1(model, target)
        d_c_plus = second_order_dc_dp(model, plus, 0.0)[0]
        d_c_minus = second_order_dc_dp(model, minus, 0.0)[0]
        assert sol.d_c <= min(d_c_plus, d_c_minus) + 1e-12
        assert sol.policy.alpha == pytest.approx(plus if d_c_plus <= d_c_minus else minus)


class TestSolveSetting2:
    def test_inactive_constraint(self):
        m = validate_model(1.0, 0.5, 1.0)
        sol = solve_setting2(m, 0.8, 1.0)
        assert sol.policy.alpha == 0.0 and not sol.constraint_active

    def test_active_constraint_reference(self):
        m = validate_model(1.0, 0.5, 1.0)
        sol = solve_setting2(m, 1.0 - 0.09 / 1.84, 1.0)
        assert sol.policy.alpha == pytest.approx(-0.2, abs=1e-9)
        assert sol.constraint_active

    def test_noiseless_limit_matches_setting1(self):
        sol2 = solve_setting2(M, 0.84, 1e-8)
        sol1 = solve_setting1(M, 0.84)
        assert sol2.policy.alpha == pytest.approx(sol1.policy.alpha, abs=1e-4)
        assert sol2.d_c == pytest.approx(sol1.d_c, abs=1e-4)

    def test_infeasible(self):
        with pytest.raises(InfeasiblePrivacyTarget):
            solve_setting2(M, 1.5, 1.0)

    def test_zero_noise_rejected(self):
        with pytest.raises(InfiniteRateError):
            solve_setting2(M, 0.84, 0.0)

    @given(models_with_targets(), st.floats(1e-4, 10.0))
    @settings(max_examples=200)
    def test_back_substitution(self, model_target, sigma_n2):
        model, target = model_target
        sol = solve_setting2(model, target, sigma_n2)
        if sol.constraint_active:
            assert sol.d_p == pytest.approx(target, rel=1e-9, abs=1e-9 * model.sigma_x2)
        else:
            assert sol.d_p >= target - 1e-9 * model.sigma_x2


class TestSolveSetting3:
    def test_effective_target_reduction(self):
        sol = solve_setting3(M, 0.92, ChannelSpec(p_t=1.0, sigma_z2=1.0))
        assert sol.policy.alpha == pytest.approx(-0.250851, abs=1e-6)
        assert sol.d_p == pytest.approx(0.92, rel=1e-12)

    def test_noiseless_channel_reduces_to_setting1(self):
        sol1 = solve_setting1(M, 0.84)
        for p_t in (0.5, 1.0, 7.0):
            sol3 = solve_setting3(M, 0.84, ChannelSpec(p_t=p_t, sigma_z2=0.0))
            assert sol3.policy.alpha == pytest.approx(sol1.policy.alpha, rel=1e-12)
            assert sol3.d_c == pytest.approx(sol1.d_c, rel=1e-12)
            assert sol3.d_p == pytest.approx(sol1.d_p, rel=1e-12)

    def test_infinite_power_reduces_to_setting1(self):
        sol1 = solve_setting1(M, 0.84)
        sol3 = solve_setting3(M, 0.84, ChannelSpec(p_t=1e12, sigma_z2=1.0))
        assert sol3.policy.alpha == pytest.approx(sol1.policy.alpha, abs=1e-9)
        assert sol3.d_c == pytest.approx(sol1.d_c, abs=1e-9)

    def test_below_channel_floor_inactive(self):
        ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
        floor = M.sigma_x2 * (M.r - M.rho**2 * 0.5)
        sol = solve_setting3(M, floor * 0.9, ch)
        assert sol.policy.alpha == 0.0 and not sol.constraint_active

    def test_power_always_active(self):
        ch = ChannelSpec(p_t=3.0, sigma_z2=0.7)
        sol = solve_setting3(M, 0.9, ch)
        _, _, power = evaluate_setting3(M, sol.policy, ch)
        assert power == pytest.approx(3.0, rel=1e-10)

    @given(models_with_targets(), st.floats(0.1, 10.0), st.floats(0.0, 5.0))
    @settings(max_examples=200)
    def test_back_substitution(self, model_target, p_t, sigma_z2):
        model, target = model_target
        ch = ChannelSpec(p_t=p_t, sigma_z2=sigma_z2)
        sol = solve_setting3(model, target, ch)
        if sol.constraint_active:
            assert sol.d_p == pytest.approx(target, rel=1e-9, abs=1e-9 * model.sigma_x2)
        assert -model.rho / model.r - 1e-12 <= sol.policy.alpha <= 1e-12


class TestXiSign:
    def test_lambda_zero(self):
        assert xi_sign_check(M, 0.0, -0.3) == pytest.approx(0.6724)

    def test_prediction_error_alpha(self):
        for lam in (0.0, 1.0, 1.0 / 0.36):
            assert xi_sign_check(M, lam, -0.6) == pytest.approx(0.4096, abs=1e-12)

    def test_grid_nonnegative(self):
        lams = np.linspace(0.0, 1.0 / 0.36, 100)
        alphas = np.linspace(-0.6, 0.0, 100)
        vals = [xi_sign_check(M, lam, a) for lam in lams for a in alphas]
        assert min(vals) >= -1e-12

    def test_rho_zero_trivial(self):
        m = validate_model(1.0, 0.0, 1.0)
        assert xi_sign_check(m, 0.0, 0.0) == 1.0

    def test_frontier_multiplier_identity(self):
        # lam*(alpha) = -alpha(1+alpha*rho)/(rho+r*alpha) is the frontier slope
        # d D_C / d D_P; along it xi = (1+alpha*rho)*A(alpha) >= (1-rho^2/r)^2
        rng = np.random.default_rng(9)
        identities = slopes = 0
        for _ in range(600):
            s2, r = rng.uniform(0.1, 10.0), rng.uniform(0.05, 4.0)
            m = validate_model(s2, rng.uniform(0.05, 0.99) * math.sqrt(r), r)
            rho = m.rho
            lo, hi = s2 * (r - rho**2), s2 * r
            target = float(lo + rng.uniform(0.05, 0.95) * (hi - lo))
            alpha = solve_setting1(m, target).policy.alpha
            lam = -alpha * (1.0 + alpha * rho) / (rho + r * alpha)
            if lam > 1.0 / rho**2:
                continue
            xi = xi_sign_check(m, lam, alpha)
            identity = (1.0 + alpha * rho) * mixing_gain(m, alpha)
            assert xi == pytest.approx(identity, rel=1e-12)
            assert xi >= (1.0 - rho**2 / r) ** 2
            identities += 1
            h = 1e-4 * (hi - lo)
            slope = (
                solve_setting1(m, target + h).d_c - solve_setting1(m, target - h).d_c
            ) / (2.0 * h)
            assert slope == pytest.approx(lam, rel=1e-5, abs=1e-7)
            slopes += 1
        assert identities > 300 and slopes == identities


class TestOutputVarianceGuard:
    """The guard raises exactly where ``numpy.any(den <= 0)`` is true."""

    # alpha = -rho/r on the model rho^2 = r gives den = 0 exactly
    DEG = validate_model(1.0, 1.0, 1.0)

    def test_python_float(self):
        with pytest.raises(RuntimeError, match="nonpositive"):
            second_order_dc_dp(self.DEG, -1.0, 0.0)
        with pytest.raises(RuntimeError, match="nonpositive"):
            second_order_dc_dp(M, -0.6, -0.7)

    def test_numpy_scalar(self):
        with pytest.raises(RuntimeError, match="nonpositive"):
            second_order_dc_dp(self.DEG, np.float64(-1.0), np.float64(0.0))

    def test_array_with_one_bad_cell(self):
        alpha = np.array([-0.5, -1.0, 0.0])
        with pytest.raises(RuntimeError, match="nonpositive"):
            second_order_dc_dp(self.DEG, alpha, np.zeros(3))
        d_c, d_p = second_order_dc_dp(self.DEG, alpha, np.full(3, 0.5))
        assert np.all(np.isfinite(d_c)) and np.all(np.isfinite(d_p))

    def test_nan_does_not_raise(self):
        d_c, d_p = second_order_dc_dp(M, math.nan, 0.0)
        assert math.isnan(d_c) and math.isnan(d_p)
        d_c, _ = second_order_dc_dp(M, np.float64(math.nan), 0.0)
        assert math.isnan(d_c)
        d_c, _ = second_order_dc_dp(M, np.array([math.nan, -0.3]), 0.0)
        assert math.isnan(d_c[0]) and math.isfinite(d_c[1])

    def test_float_result_stays_float(self):
        d_c, d_p = second_order_dc_dp(M, -0.3, 0.1)
        assert type(d_c) is float and type(d_p) is float


class TestNonFiniteInputs:
    @pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
    def test_targets_rejected(self, target):
        for solve in (
            lambda: solve_setting1(M, target),
            lambda: solve_setting2(M, target, 0.5),
            lambda: solve_setting3(M, target, ChannelSpec(p_t=1.0, sigma_z2=1.0)),
        ):
            with pytest.raises(SolveError, match="finite"):
                solve()

    @pytest.mark.parametrize("sigma_n2", [math.nan, math.inf])
    def test_compression_noise_rejected(self, sigma_n2):
        with pytest.raises(SolveError, match="finite"):
            solve_setting2(M, 0.9, sigma_n2)

    @pytest.mark.parametrize(
        "fields", [dict(p_t=math.inf, sigma_z2=1.0), dict(p_t=math.nan, sigma_z2=1.0),
                   dict(p_t=1.0, sigma_z2=math.inf), dict(p_t=1.0, sigma_z2=math.nan)]
    )
    def test_channel_spec(self, fields):
        with pytest.raises(ValueError):
            ChannelSpec(**fields)

    @pytest.mark.parametrize(
        "fields", [dict(alpha=math.nan), dict(alpha=-math.inf), dict(alpha=0.0, beta=math.inf),
                   dict(alpha=0.0, beta=math.nan), dict(alpha=0.0, noise_var=math.inf),
                   dict(alpha=0.0, noise_var=math.nan)]
    )
    def test_encoder_policy(self, fields):
        with pytest.raises(ValueError):
            EncoderPolicy(**fields)


class TestDegenerateModel:
    """rho^2 = r: theta = rho*X, so a noiseless encoder either leaks or sends nothing."""

    DEG = validate_model(1.0, 1.0, 1.0)

    def test_simple_interior_raises(self):
        with pytest.raises(DegenerateModelError, match="rho\\^2 = r"):
            solve_setting1(self.DEG, 0.5)

    def test_simple_free_floor_and_endpoint_stay_finite(self):
        assert solve_setting1(self.DEG, 0.0).d_c == 0.0
        sol = solve_setting1(self.DEG, 1.0)
        assert (sol.policy.alpha, sol.d_c, sol.d_p) == (-1.0, 1.0, 1.0)

    def test_compression_takes_the_root_in_range(self):
        # both roots give the same distortion; only alpha_plus lies in [-rho/r, 0]
        for sigma_n2 in (0.5, 1.0, 2.0):  # floors 1/3, 1/2, 2/3 lie below 0.7
            sol = solve_setting2(self.DEG, 0.7, sigma_n2)
            assert -1.0 <= sol.policy.alpha <= 0.0
            assert sol.d_p == pytest.approx(0.7, rel=1e-12)
            # theta = X, so the privacy MMSE is the distortion
            assert sol.d_c == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize("target", [0.7, 1.0])
    def test_channel_active_raises(self, target):
        with pytest.raises(DegenerateModelError, match="rho\\^2 = r"):
            solve_setting3(self.DEG, target, ChannelSpec(p_t=1.0, sigma_z2=1.0))

    def test_near_degenerate_root_tie_raises_solve_error(self):
        # r - rho^2 = 3.6e-14: the transmit variance cancels to rounding near -rho/r
        m = validate_model(1.0, 0.6, 0.36 * (1.0 + 1e-13))
        # at 0.999*r rounding leaves d_p at 0.359202 for a target of 0.359640
        with pytest.raises(DegenerateModelError, match="rho\\^2 = r"):
            solve_setting1(m, 0.999 * m.r)
        # at 0.9*r alpha_plus is accurate to 3e-11: the answer stands
        sol = solve_setting1(m, 0.9 * m.r)
        d_c, d_p = covariance_evaluate(m, sol.policy.alpha, 0.0)
        assert sol.d_c == pytest.approx(d_c, rel=0.0, abs=1e-9 * m.sigma_x2)
        assert sol.d_p == pytest.approx(d_p, rel=0.0, abs=1e-9 * m.sigma_x2)

    def test_channel_free_floor_stays_finite(self):
        sol = solve_setting3(self.DEG, 0.2, ChannelSpec(p_t=1.0, sigma_z2=1.0))
        assert sol.constraint_active is False and sol.policy.alpha == 0.0
