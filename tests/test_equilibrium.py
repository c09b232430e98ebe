import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privcomm import (
    ChannelSpec,
    DegenerateModelError,
    EncoderPolicy,
    InfeasiblePrivacyTarget,
    ModelError,
    Setting,
    SolveError,
    compression_rate,
    privacy_bounds,
    solve_setting1,
    solve_setting2,
    solve_setting3,
    validate_model,
)
from privcomm import equilibrium
from privcomm.curves import noise_for_rate, sweep_privacy_distortion, sweep_rate_distortion
from privcomm.equilibrium import (
    ENDPOINT_RTOL,
    channel_privacy_floor,
    compression_privacy_floor,
    mixing_gain,
    second_order_dc_dp,
)
from privcomm.oracle import covariance_evaluate

from conftest import calls_from, exact_channel_dc_dp, models_with_targets, source_models

M = validate_model(1.0, 0.6, 1.0)

# frozen reference roots for rho=0.6, r=1, d=0.84:
# delta = sqrt(0.64 * (1/0.84 - 1)) evaluated independently
REF_DELTA = math.sqrt(0.64 * (1.0 / 0.84 - 1.0))
REF_ALPHA = -0.6 + REF_DELTA


def quadratic_roots(model, d, n_eff):
    """Both roots of r*d*a^2 + 2*rho*d*a + (rho^2 - r + d - (r - d)*n_eff) = 0.

    By the textbook formula from the coefficients, not the solvers' -rho/r +- delta.
    """
    rho, r = model.rho, model.r
    a, b, c = r * d, 2.0 * rho * d, rho**2 - r + d - (r - d) * n_eff
    sq = math.sqrt(max(b * b - 4.0 * a * c, 0.0))
    return (-b + sq) / (2.0 * a), (-b - sq) / (2.0 * a)


class TestAlphaPlus:
    """Every solver's active alpha is the root alpha_plus of the constraint quadratic."""

    CH = ChannelSpec(p_t=1.0, sigma_z2=1.0)

    def test_reference_roots(self):
        plus, minus = quadratic_roots(M, 0.84, 0.0)
        assert plus == pytest.approx(-0.250851, abs=1e-6)
        assert minus == pytest.approx(-0.949149, abs=1e-6)
        alpha = solve_setting1(M, 0.84).policy.alpha
        assert alpha == pytest.approx(REF_ALPHA, abs=1e-14)
        assert alpha == pytest.approx(plus, abs=1e-14)

    def test_both_roots_hit_target(self):
        for root in quadratic_roots(M, 0.84, 0.0):
            _, d_p = covariance_evaluate(M, root, 0.0)
            assert d_p == pytest.approx(0.84, abs=1e-12)

    def test_each_setting_meets_its_target(self):
        # the channel at (1, 1) shifts 0.92 to the effective target 0.92 - (1 - 0.92) = 0.84
        sol1, sol2 = solve_setting1(M, 0.84), solve_setting2(M, 0.9, 0.5)
        sol3 = solve_setting3(M, 0.92, self.CH)
        alpha1, alpha2, alpha3 = (sol.policy.alpha for sol in (sol1, sol2, sol3))
        for sol, root, (d_c, d_p), target in (
            (sol1, quadratic_roots(M, 0.84, 0.0)[0], covariance_evaluate(M, alpha1, 0.0), 0.84),
            (sol2, quadratic_roots(M, 0.9, 0.5)[0], covariance_evaluate(M, alpha2, 0.5), 0.9),
            (sol3, quadratic_roots(M, 0.84, 0.0)[0],
             covariance_evaluate(M, alpha3, 0.0, sol3.policy.beta, 1.0), 0.92),
        ):
            assert sol.constraint_active and -0.6 < sol.policy.alpha < 0.0
            assert sol.policy.alpha == pytest.approx(root, abs=1e-12)
            assert d_p == pytest.approx(target, abs=1e-12)
            assert sol.d_c == pytest.approx(d_c, abs=1e-12)

    def test_max_privacy_double_root(self):
        plus, minus = quadratic_roots(M, 1.0, 0.0)
        assert plus == pytest.approx(-0.6, abs=1e-12)
        assert minus == pytest.approx(-0.6, abs=1e-12)
        for sol in (solve_setting1(M, 1.0), solve_setting2(M, 1.0, 0.5),
                    solve_setting3(M, 1.0, self.CH)):
            assert sol.policy.alpha == -0.6 and sol.constraint_active

    def test_min_privacy_roots(self):
        plus, minus = quadratic_roots(M, 0.64, 0.0)
        assert plus == pytest.approx(0.0, abs=1e-12)
        assert minus == pytest.approx(-1.2, abs=1e-12)
        sol = solve_setting1(M, 0.64 + 1e-9)
        assert sol.constraint_active and -1e-8 < sol.policy.alpha < 0.0

    def test_infeasible_target(self):
        for solve in (lambda: solve_setting1(M, 1.5), lambda: solve_setting2(M, 1.5, 0.5),
                      lambda: solve_setting3(M, 1.5, self.CH)):
            with pytest.raises(InfeasiblePrivacyTarget, match="exceeds dp_max"):
                solve()

    def test_normalized_target_underflow_refused(self):
        # at rho^2 = r the noise alone leaves D_P = sigma_x2 * r*n/(1 + n) = 1e280: free
        sol = solve_setting2(validate_model(1e300, 1.0, 1.0), 1e-300, 1e280)
        assert (sol.constraint_active, sol.policy.alpha, sol.d_p) == (False, 0.0, 1e280)
        # a model typed just above rho^2 = r is projected onto it: free the same way
        m = validate_model(1e300, 1.0000000000004, 1.0)
        sol = solve_setting2(m, 1e-300, 1e280)
        assert (sol.constraint_active, sol.policy.alpha, sol.d_p) == (
            False, 0.0, compression_privacy_floor(m, 1e280))
        assert sol.d_p == 1e300 * (m.r * 1e-20) / (1.0 + 1e-20)
        # at rho^2 = r = 1e-30 and n = 1e-300, r*n underflows so the floor is 0,
        # and d = 1e-300 / 1e300 underflows to 0
        with pytest.raises(DegenerateModelError) as info:
            solve_setting2(validate_model(1e300, 1e-15, 1e-30), 1e-300, 1.0)
        assert str(info.value) == (
            "degenerate model rho^2 = r (1e-30 vs 1e-30): the privacy target 1e-300 at "
            "sigma_x2=1e+300 rounds to a normalized target 0.0")

    def test_no_real_root_is_degenerate(self):
        # rho^2 = r*(1 + 8e-13) is projected onto rho^2 = r, whose quadratic has real
        # roots at every noise; at n = 1e-20 alpha_plus lies 3e-10 above -rho/r, where
        # rounding of the transmit variance leaves D_P far off the target
        m = validate_model(1.0, 1.0000000000004, 1.0)
        assert m.r == m.rho**2
        with pytest.raises(DegenerateModelError) as info:
            solve_setting2(m, 0.1, 1e-20)
        assert str(info.value).startswith(
            f"degenerate model rho^2 = r ({m.r!r} vs {m.r!r}): rounding misses the "
            f"privacy target 0.1: d_p = ")
        # at n = 1e-3 the answer stands
        assert solve_setting2(m, 0.1, 1e-3).d_p == pytest.approx(0.1, rel=1e-12)

    @given(models_with_targets())
    @settings(max_examples=200)
    def test_back_substitution(self, model_target):
        model, target = model_target
        d = target / model.sigma_x2
        if d <= 1e-9:
            return
        for root in quadratic_roots(model, d, 0.0):
            _, d_p = covariance_evaluate(model, root, 0.0)
            assert d_p / model.sigma_x2 == pytest.approx(d, abs=1e-9)
        sol = solve_setting1(model, target)
        if sol.constraint_active:
            _, d_p = covariance_evaluate(model, sol.policy.alpha, 0.0)
            assert d_p / model.sigma_x2 == pytest.approx(d, abs=1e-9)


class TestEvaluators:
    # the simple setting's evaluator is second_order_dc_dp without noise
    def test_setting1_identity_chain(self):
        d_c, d_p = second_order_dc_dp(M, 0.0, 0.0)
        assert d_c == 0.0
        assert d_p == pytest.approx(0.64)

    def test_setting1_prediction_error(self):
        d_c, d_p = second_order_dc_dp(M, -0.6, 0.0)
        assert d_c == pytest.approx(0.36, abs=1e-14)
        assert d_p == pytest.approx(1.0, abs=1e-14)

    def test_setting1_reference_point(self):
        d_c, d_p = second_order_dc_dp(M, REF_ALPHA, 0.0)
        assert d_c == pytest.approx(0.052857, abs=5e-6)
        assert d_p == pytest.approx(0.84, abs=1e-9)

    def test_setting2_alpha_zero(self):
        m = validate_model(1.0, 0.5, 1.0)
        assert compression_rate(m, 0.0, 1.0) == pytest.approx(0.5 * math.log(2.0))
        d_c, d_p = second_order_dc_dp(m, 0.0, 1.0)
        assert d_c == pytest.approx(0.5)
        assert d_p == pytest.approx(1.0 - 0.25 / 2.0)

    def test_setting2_reference(self):
        m = validate_model(1.0, 0.5, 1.0)
        _, d_p = second_order_dc_dp(m, -0.2, 1.0)
        assert d_p == pytest.approx(1.0 - 0.09 / 1.84, abs=1e-12)

    def test_setting2_large_noise_limit(self):
        assert compression_rate(M, -0.3, 1e9) == pytest.approx(0.0, abs=1e-6)
        d_c, d_p = second_order_dc_dp(M, -0.3, 1e9)
        assert d_c == pytest.approx(1.0, rel=1e-6)
        assert d_p == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("noise", [0.0, -1.0])
    def test_setting2_rejects_nonpositive_noise(self, noise):
        with pytest.raises(SolveError, match="test-channel noise must be positive"):
            compression_rate(M, 0.0, noise)

    def test_setting2_rejects_rate_overflow(self):
        with pytest.raises(SolveError, match="rate overflows at test-channel noise 1e-320"):
            compression_rate(M, 0.0, 1e-320)

    @given(source_models(), st.floats(-2.0, 1.0), st.floats(1e-3, 10.0))
    @settings(max_examples=300)
    def test_setting2_dc_forms_agree(self, model, alpha, noise):
        n = noise / model.sigma_x2
        d_c, _ = second_order_dc_dp(model, alpha, n)
        alt = model.sigma_x2 * (
            1.0 - (1.0 + alpha * model.rho) ** 2 / (mixing_gain(model, alpha) + n)
        )
        assert d_c == pytest.approx(alt, rel=1e-10, abs=1e-13 * model.sigma_x2)

    def test_setting3_power(self):
        # the transmit power beta^2 * sigma_x2 * A meets P_T
        m = validate_model(2.5, 0.6, 1.0)
        sol = solve_setting3(m, 2.3, ChannelSpec(p_t=2.0, sigma_z2=0.5))
        alpha, beta = sol.policy.alpha, sol.policy.beta
        assert beta**2 * m.sigma_x2 * mixing_gain(m, alpha) == pytest.approx(2.0, rel=1e-12)


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
        plus, minus = quadratic_roots(model, d, 0.0)
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
        with pytest.raises(SolveError):
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
    def test_noiseless_channel_at_tiny_sigma_x2_carries_x(self):
        # sigma_z2 = 0: Y = beta*X carries X exactly, so D_C = 0; the squared
        # covariances of Y (~8e-382 here) would underflow and leave D_C = sigma_x2
        m = validate_model(1.027469197060022e-298, 3.844527004504537e+60,
                           1.4780387888364629e+121)
        channel = ChannelSpec(8.208594107966809e-84, 0.0)
        sol = solve_setting3(m, 0.0, channel)
        assert sol.d_c == exact_channel_dc_dp(m, 0.0, channel)[0] == 0.0

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
        power = sol.policy.beta**2 * M.sigma_x2 * mixing_gain(M, sol.policy.alpha)
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
    """xi = (1+alpha*rho)^2 - lam*(rho+r*alpha)^2, the noise-suppression sign
    quantity: its sign at the frontier's own multiplier makes encoder noise
    useless on the frontier."""

    def test_lambda_zero(self):
        # xi(0, alpha) = (1+alpha*rho)^2 = (kappa*A)^2 at the solver's alpha
        sol = solve_setting1(M, 0.84)
        alpha = sol.policy.alpha
        kappa_a = sol.kappa * mixing_gain(M, alpha)
        assert (1.0 + alpha * M.rho) ** 2 == pytest.approx(kappa_a**2, rel=1e-12)

    def test_prediction_error_alpha(self):
        # at max privacy alpha = -rho/r, so xi = (1 - rho^2/r)^2 for every lam
        alpha = solve_setting1(M, 1.0).policy.alpha
        for lam in (0.0, 1.0, 1.0 / 0.36):
            xi = (1.0 + alpha * M.rho) ** 2 - lam * (M.rho + M.r * alpha) ** 2
            assert xi == pytest.approx(0.4096, abs=1e-12)

    def test_grid_nonnegative(self):
        lam, alpha = np.meshgrid(np.linspace(0.0, 1.0 / 0.36, 100),
                                 np.linspace(-0.6, 0.0, 100), indexing="ij")
        xi = (1.0 + alpha * M.rho) ** 2 - lam * (M.rho + M.r * alpha) ** 2
        assert np.min(xi) >= -1e-12

    def test_rho_zero_trivial(self):
        # rho = 0: the solver sends X alone (alpha = 0), so xi = 1 for every lam
        m = validate_model(1.0, 0.0, 1.0)
        alpha = solve_setting1(m, 1.0).policy.alpha
        for lam in (0.0, 1.0, 1e6):
            assert (1.0 + alpha * m.rho) ** 2 - lam * (m.rho + m.r * alpha) ** 2 == 1.0

    def test_frontier_multiplier_identity(self):
        # lam*(alpha) = -alpha(1+alpha*rho)/(rho+r*alpha) is the frontier slope
        # d D_C / d D_P; along it xi = (1+alpha*rho)*A(alpha) >= (1-rho^2/r)^2
        rng = np.random.default_rng(9)
        above_cap = 0
        for _ in range(600):
            s2, r = rng.uniform(0.1, 10.0), rng.uniform(0.05, 4.0)
            m = validate_model(s2, rng.uniform(0.05, 0.99) * math.sqrt(r), r)
            rho = m.rho
            lo, hi = s2 * (r - rho**2), s2 * r
            target = float(lo + rng.uniform(0.05, 0.95) * (hi - lo))
            alpha = solve_setting1(m, target).policy.alpha
            lam = -alpha * (1.0 + alpha * rho) / (rho + r * alpha)
            xi = (1.0 + alpha * rho) ** 2 - lam * (rho + r * alpha) ** 2
            identity = (1.0 + alpha * rho) * mixing_gain(m, alpha)
            assert xi == pytest.approx(identity, rel=1e-12)
            assert xi >= (1.0 - rho**2 / r) ** 2
            h = 1e-4 * (hi - lo)
            slope = (
                solve_setting1(m, target + h).d_c - solve_setting1(m, target - h).d_c
            ) / (2.0 * h)
            assert slope == pytest.approx(lam, rel=1e-5, abs=1e-7)
            above_cap += lam > 1.0 / rho**2
        assert above_cap > 0  # 32 of the 600 multipliers lie beyond 1/rho^2


class TestOutputVarianceGuard:
    """The guard raises exactly where den <= 0 is true."""

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

    def test_nan_does_not_raise(self):
        d_c, d_p = second_order_dc_dp(M, math.nan, 0.0)
        assert math.isnan(d_c) and math.isnan(d_p)
        d_c, _ = second_order_dc_dp(M, np.float64(math.nan), 0.0)
        assert math.isnan(d_c)

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

    @pytest.mark.parametrize("target", [0.0, -1e-12])
    def test_simple_free_floor_above_the_bound_is_zero(self, target):
        # rho^2 = r + 8e-13 passes validation; its free floor is dp_min = 0, not r - rho^2
        m = validate_model(1.0, 1.0000000000004, 1.0)
        sol = solve_setting1(m, target)
        assert (sol.policy.alpha, sol.d_c, sol.d_p, sol.constraint_active) == (
            0.0, 0.0, 0.0, False)

    @pytest.mark.parametrize("target", [0.0, -1e-12])
    def test_compression_free_floor_above_the_bound_is_zero(self, target):
        # the model is projected onto rho^2 = r, so at sigma_n2 = 1e-20 the floor is
        # the noise's alone, r*n/(1 + n) > 0, not the -8e-13 of the unprojected model
        m = validate_model(1.0, 1.0000000000004, 1.0)
        floor = compression_privacy_floor(m, 1e-20)
        assert floor == m.r * 1e-20 / (1.0 + 1e-20) > 0.0
        sol = solve_setting2(m, target, 1e-20)
        assert (sol.policy.alpha, sol.d_c, sol.d_p, sol.constraint_active) == (
            0.0, 1e-20, floor, False)

    @pytest.mark.parametrize("target", [0.0, -1e-12])
    def test_channel_free_floor_above_the_bound_is_zero(self, target):
        # at sigma_z2 = 1e-20 the unclamped floor r - rho^2*P_T/(P_T + sigma_z2) is -8e-13
        m = validate_model(1.0, 1.0000000000004, 1.0)
        channel = ChannelSpec(p_t=1.0, sigma_z2=1e-20)
        assert channel_privacy_floor(m, channel) == 0.0
        sol = solve_setting3(m, target, channel)
        assert (sol.policy.alpha, sol.d_c, sol.d_p, sol.constraint_active) == (
            0.0, 0.0, 0.0, False)

    def test_free_d_p_never_negative_zero(self):
        # sigma_x2 * (r - rho^2 + r*n) underflows to -0.0 just above rho^2 = r
        m = validate_model(7.550065163253295e-150, 1.0000000000004e-150, 1e-300)
        floor, sol = compression_privacy_floor(m, 1e-170), solve_setting2(m, 0.0, 1e-170)
        assert not sol.constraint_active
        assert math.copysign(1.0, sol.d_p) == math.copysign(1.0, floor) == 1.0
        assert sol.d_p == floor == 0.0

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


@pytest.mark.parametrize("setting", list(Setting))
def test_free_d_p_is_the_floor_bit_for_bit(setting):
    # a free target is tested against the setting's floor function, and its D_P is that floor
    rng = np.random.default_rng(22)
    for _ in range(3000):
        s2, r = float(10.0 ** rng.uniform(-3.0, 3.0)), float(rng.uniform(0.05, 4.0))
        model = validate_model(s2, float(rng.uniform(0.0, 1.0)) * math.sqrt(r), r)
        sigma_n2 = float(10.0 ** rng.uniform(-3.0, 3.0)) * s2
        channel = ChannelSpec(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.1, 2.0)))
        if setting is Setting.SIMPLE:
            floor = privacy_bounds(model).dp_min
            sol = solve_setting1(model, floor * float(rng.uniform(0.5, 1.0)))
        elif setting is Setting.COMPRESSION:
            floor = compression_privacy_floor(model, sigma_n2)
            sol = solve_setting2(model, floor * float(rng.uniform(0.5, 1.0)), sigma_n2)
        else:
            floor = channel_privacy_floor(model, channel)
            sol = solve_setting3(model, floor * float(rng.uniform(0.5, 1.0)), channel)
        assert not sol.constraint_active
        assert sol.d_p.hex() == floor.hex()


class TestCompressionFloorOverflow:
    """A sigma_n2/sigma_x2 or r*sigma_n2/sigma_x2 past the float range is refused once.

    On this model n = 1e8/1e-300 = 1e308 is a float but r*n = 4e308 is not, and
    at sigma_n2 = 1e9 n itself overflows: the floor is inf, then NaN, and so
    would be the answer's D_P.
    """

    TINY = validate_model(1e-300, 1.0, 4.0)
    MESSAGE = "the compression floor overflows a float at sigma_n2="

    @pytest.mark.parametrize("sigma_n2", [1e8, 1e9])
    def test_floor_refused(self, sigma_n2):
        with pytest.raises(SolveError, match=self.MESSAGE):
            compression_privacy_floor(self.TINY, sigma_n2)

    @pytest.mark.parametrize("target", [0.0, 2e-300, 4e-300], ids=["free", "interior", "end"])
    @pytest.mark.parametrize("sigma_n2", [1e8, 1e9])
    def test_solve_refused(self, sigma_n2, target):
        with pytest.raises(SolveError, match=self.MESSAGE) as info:
            solve_setting2(self.TINY, target, sigma_n2)
        assert type(info.value) is SolveError

    def test_noise_below_the_edge_answers(self):
        # r*n = 4e307: the floor is sigma_x2*(r - rho^2 + r*n)/(1 + n), about 4e-300
        sol = solve_setting2(self.TINY, 2e-300, 1e7)
        assert not sol.constraint_active
        assert sol.d_p == compression_privacy_floor(self.TINY, 1e7)
        assert math.isfinite(sol.d_p) and math.isfinite(sol.d_c)

    def test_rate_sweep_refused(self):
        with pytest.raises(SolveError, match=self.MESSAGE + "1000000000.0"):
            sweep_rate_distortion(self.TINY, 2e-300, [1e-300, 1.0, 1e9])

    def test_rate_inversion_refused(self):
        # rate 1e-308 needs sigma_n2 = sigma_x2/expm1(2e-308) = 5e7, so r*n = 2e308
        with pytest.raises(SolveError, match=self.MESSAGE):
            noise_for_rate(self.TINY, 2e-300, 1e-308)


def endpoint_snap_cases(r):
    """Models at r, each with a compression noise and a channel."""
    rng = np.random.default_rng(23)
    for _ in range(100):
        s2 = float(rng.uniform(0.1, 10.0))
        model = validate_model(s2, float(rng.uniform(0.05, 0.99)) * math.sqrt(r), r)
        sigma_n2 = float(rng.uniform(0.1, 2.0)) * s2
        channel = ChannelSpec(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.1, 2.0)))
        yield model, sigma_n2, channel


@pytest.mark.parametrize("r", [1.0, 1e3, 1e6, 1e9, 1e12])
def test_endpoint_snap_answers_dp_max(r):
    # a target up to ENDPOINT_RTOL above dp_max, dp_max*(1 + ENDPOINT_RTOL) itself
    # included, is snapped onto the max-privacy endpoint, whose D_P is checked against
    # dp_max: against the target, a miss of ~1e-12*target would sit on the residual
    # bound, and the last ulp would decide the refusal
    for model, sigma_n2, channel in endpoint_snap_cases(r):
        dp_max = model.sigma_x2 * r
        for target in (dp_max * (1.0 + ENDPOINT_RTOL), dp_max * (1.0 + ENDPOINT_RTOL / 2),
                       dp_max, dp_max * (1.0 - ENDPOINT_RTOL / 2)):
            simple = solve_setting1(model, target)
            compression = solve_setting2(model, target, sigma_n2)
            chan = solve_setting3(model, target, channel)
            for sol in (simple, compression, chan):
                assert sol.constraint_active and sol.policy.alpha == -model.rho / r
            assert simple.d_p == chan.d_p == dp_max
            assert compression.d_p == pytest.approx(dp_max, rel=ENDPOINT_RTOL, abs=0.0)


@pytest.mark.parametrize("r", [1.0, 1e3, 1e6, 1e9, 1e12])
def test_past_the_endpoint_snap_is_infeasible(r):
    # the next float above dp_max*(1 + ENDPOINT_RTOL) is refused in every setting
    for model, sigma_n2, channel in endpoint_snap_cases(r):
        dp_max = model.sigma_x2 * r
        target = math.nextafter(dp_max * (1.0 + ENDPOINT_RTOL), math.inf)
        for solve in (lambda: solve_setting1(model, target),
                      lambda: solve_setting2(model, target, sigma_n2),
                      lambda: solve_setting3(model, target, channel)):
            with pytest.raises(InfeasiblePrivacyTarget) as info:
                solve()
            assert str(info.value) == f"d_p_target={target} exceeds dp_max={dp_max}"


def pinned_models():
    """Benchmark-range models and extreme-scale ones, for the inline arithmetic pins."""
    rng = np.random.default_rng(231)
    models = []
    for _ in range(30):
        s2, r = float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.05, 4.0))
        models.append(validate_model(s2, float(rng.uniform(0.05, 0.99)) * math.sqrt(r), r))
    for s2 in (1e-300, 1e-150, 1e150, 1e300):
        for r in (1e-200, 1e-20, 1.0, 1e20, 1e200):
            if math.isfinite(s2 * r):
                models.append(validate_model(s2, 0.6 * math.sqrt(r), r))
    return models


def pinned_targets(model, floor):
    """Free, interior and endpoint targets between the setting's floor and dp_max."""
    dp_max = privacy_bounds(model).dp_max
    return [floor * 0.5, floor] + [floor + f * (dp_max - floor)
                                   for f in (0.05, 0.4, 0.9, 0.999)] + [dp_max]


@pytest.mark.parametrize("setting", list(Setting))
def test_inline_arithmetic_is_mixing_gain_bit_for_bit(setting):
    # the solve core writes mixing_gain and second_order_dc_dp inline: kappa of every
    # simple and compression row is u/(mixing_gain + n_eff), with u = 1 + alpha*rho, or
    # (r - rho^2)/r, its exact value at alpha = -rho/r, on the compression endpoint; beta of
    # every channel row is sqrt(P_T/(sigma_x2*mixing_gain)), bit for bit; D_C of the
    # simple and compression rows, and D_P of their free and interior rows, are
    # second_order_dc_dp's, and every endpoint row answers dp_max exactly
    channel = ChannelSpec(2.0, 0.5)
    noises = (1e-6, 0.7, 1e6) if setting is Setting.COMPRESSION else (0.0,)
    seen = set()
    for model, n in ((model, n) for model in pinned_models() for n in noises):
        rho, s2 = model.rho, model.sigma_x2
        sigma_n2 = n * s2
        n_eff = sigma_n2 / s2  # as the core rounds it
        dp_max = privacy_bounds(model).dp_max
        if setting is Setting.SIMPLE:
            floor = privacy_bounds(model).dp_min
            solve = lambda t: solve_setting1(model, t)  # noqa: E731
        elif setting is Setting.COMPRESSION:
            floor = compression_privacy_floor(model, sigma_n2)
            solve = lambda t: solve_setting2(model, t, sigma_n2)  # noqa: E731
        else:
            floor = channel_privacy_floor(model, channel)
            solve = lambda t: solve_setting3(model, t, channel)  # noqa: E731
        for target in pinned_targets(model, floor):
            try:
                sol = solve(target)
            except SolveError:  # an extreme scale that the core refuses
                continue
            alpha = sol.policy.alpha
            branch = ("free" if not sol.constraint_active
                      else "endpoint" if alpha == -rho / model.r else "interior")
            seen.add((n, branch))
            if branch == "endpoint":
                assert sol.d_p == dp_max
            if setting is Setting.CHANNEL:
                beta = math.sqrt(channel.p_t / (s2 * mixing_gain(model, alpha)))
                assert sol.policy.beta.hex() == beta.hex()
                kappa = beta * s2 * (1.0 + alpha * rho) / (channel.p_t + channel.sigma_z2)
                assert sol.kappa.hex() == kappa.hex()
            elif setting is Setting.SIMPLE and branch == "endpoint":
                assert sol.kappa == 1.0
            else:
                u = ((model.r - rho**2) / model.r if branch == "endpoint"
                     else 1.0 + alpha * rho)
                kappa = u / (mixing_gain(model, alpha) + n_eff)
                assert sol.kappa.hex() == kappa.hex()
                d_c, d_p = second_order_dc_dp(model, alpha, n_eff)
                assert sol.d_c.hex() == d_c.hex()
                if branch != "endpoint":
                    assert sol.d_p.hex() == d_p.hex()
    assert seen == {(n, b) for n in noises for b in ("free", "interior", "endpoint")}


def test_compression_rate_is_mixing_gain_bit_for_bit():
    # compression_rate is 0.5*log1p(A*sigma_x2/sigma_n2) with A = mixing_gain, bit for bit;
    # a rate past the float range raises
    for model in pinned_models():
        s2, alpha_end = model.sigma_x2, -model.rho / model.r
        for alpha in (0.0, 0.3 * alpha_end, alpha_end, 1.7 * alpha_end):
            for sigma_n2 in (1e-6 * s2, 0.7 * s2, 1e6 * s2):
                if not sigma_n2 > 0.0:
                    continue
                rate = 0.5 * math.log1p(mixing_gain(model, alpha) * s2 / sigma_n2)
                if math.isfinite(rate):
                    assert compression_rate(model, alpha, sigma_n2).hex() == rate.hex()
                else:
                    with pytest.raises(SolveError, match="rate overflows"):
                        compression_rate(model, alpha, sigma_n2)


@pytest.mark.parametrize("ratio", [1.0, 1.0 + 4e-13], ids=["at", "above"])
def test_compression_endpoint_is_dp_max_at_rho2_equal_r(ratio):
    # at alpha = -rho/r, Cov(Y, theta) = sigma_x2*(rho - rho) = 0 with test-channel
    # noise too, so the endpoint answers dp_max even where r - rho^2 rounds to a few
    # ulps of r and the rounded alpha alone would miss it.  D_C keeps its formula, and
    # kappa's numerator 1 + alpha*rho is taken as (r - rho^2)/r, its exact value at
    # -rho/r: kappa is never negative, and exactly 0 on a degenerate model.  A model
    # typed at rho/sqrt(r) = 1 + 4e-13 is projected onto rho^2 = r, and one typed at
    # rho/sqrt(r) = 1 often rounds onto it; on none of these models does the transmit
    # variance round to <= 0, which would send nothing
    rng = np.random.default_rng(25)
    degenerate = 0
    for _ in range(300):
        r, s2 = 10.0 ** rng.uniform(-6, 9), 10.0 ** rng.uniform(-100, 100)
        model = validate_model(s2, ratio * math.sqrt(r), r)
        alpha, dp_max = -model.rho / model.r, privacy_bounds(model).dp_max
        sigma_n2 = s2 * 10.0 ** rng.uniform(-13, 3)
        n_eff = sigma_n2 / s2
        var = mixing_gain(model, alpha) + n_eff
        assert var > 0.0
        sol = solve_setting2(model, dp_max, sigma_n2)
        assert sol.constraint_active and sol.d_p == dp_max and sol.policy.alpha == alpha
        gap = model.r - model.rho**2
        assert sol.kappa.hex() == (gap / model.r / var).hex()
        assert sol.d_c.hex() == second_order_dc_dp(model, alpha, n_eff)[0].hex()
        assert sol.d_c >= 0.0 and sol.kappa >= 0.0
        assert (sol.kappa == 0.0) == model.degenerate
        degenerate += model.degenerate
    assert degenerate == 300 if ratio > 1.0 else 0 < degenerate < 300


@pytest.mark.parametrize("setting", [Setting.SIMPLE, Setting.CHANNEL])
def test_sweep_core_makes_no_python_call_per_target(setting):
    channel = ChannelSpec(2.0, 0.5)
    python_calls = []
    for grid in (65, 4097):
        python, builtin = calls_from(
            equilibrium._solve, lambda: sweep_privacy_distortion(M, setting, channel, grid))
        assert set(builtin) == {"isfinite", "sqrt", "append"}
        python_calls.append(python)
    floor = [] if setting is Setting.SIMPLE else ["channel_privacy_floor"]
    assert python_calls == [floor, floor]


def test_rate_sweep_core_calls_the_floor_once_per_noise():
    noises = [0.05 * 1.1**k for k in range(64)]
    python, builtin = calls_from(equilibrium._solve,
                                 lambda: sweep_rate_distortion(M, 0.95, noises))
    assert python == ["compression_privacy_floor"] * 64
    assert set(builtin) <= {"isfinite", "sqrt", "append"}


@pytest.mark.parametrize("d_p", [0.5, 0.9, 1.0], ids=["free", "interior", "endpoint"])
def test_single_solve_core_calls_only_the_floor(d_p):
    channel = ChannelSpec(2.0, 0.5)
    for solve, floor in ((lambda: solve_setting1(M, d_p), []),
                         (lambda: solve_setting2(M, d_p, 0.7), ["compression_privacy_floor"]),
                         (lambda: solve_setting3(M, d_p, channel), ["channel_privacy_floor"])):
        python, builtin = calls_from(equilibrium._solve, solve)
        assert python == floor
        assert set(builtin) <= {"isfinite", "sqrt", "append"}


def test_boundary_fuzz_answers_no_negative_field():
    # models typed at and just inside rho^2 = r, and near it below, at every scale:
    # every answer of the three solvers has kappa >= 0, D_C and D_P >= +0.0 and a finite
    # alpha, and every refusal is a SolveError; a model beyond the band is a ModelError
    rng = np.random.default_rng(26)
    answered = 0
    for i in range(10000):
        ratio = (1.0, 1.0 + 4e-13, 1.0 + 9e-13, 1.0 - 1e-13, rng.uniform(0.99, 1.0))[i % 5]
        r, s2 = 10.0 ** rng.uniform(-6, 9), 10.0 ** rng.uniform(-100, 100)
        noise = s2 * 10.0 ** rng.uniform(-13, 3)
        if ratio == 1.0 + 9e-13:
            with pytest.raises(ModelError):
                validate_model(s2, ratio * math.sqrt(r), r)
            continue
        model = validate_model(s2, ratio * math.sqrt(r), r)
        dp_max = privacy_bounds(model).dp_max
        channel = ChannelSpec(s2, noise)
        for solve, floor in (
            (lambda t: solve_setting1(model, t), privacy_bounds(model).dp_min),
            (lambda t: solve_setting2(model, t, noise), compression_privacy_floor(model, noise)),
            (lambda t: solve_setting3(model, t, channel), channel_privacy_floor(model, channel)),
        ):
            interior = floor + rng.uniform(0.05, 0.95) * (dp_max - floor)
            for target in (interior, dp_max * (1.0 - 1e-6), dp_max):
                try:
                    sol = solve(target)
                except SolveError:
                    continue
                answered += 1
                assert math.isfinite(sol.policy.alpha)
                assert sol.kappa >= 0.0
                for value in (sol.d_c, sol.d_p):
                    assert math.copysign(1.0, value) == 1.0, sol
    assert answered > 0


@pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
def test_decoder_gain_is_the_mmse_coefficient(setting):
    # Y = beta*(X + alpha*theta + N) + Z, with the reported policy: Cov(X, Y) and
    # Var(Y) by bilinearity, in exact rationals.  kappa must be Cov(X, Y)/Var(Y),
    # and E(X - kappa*Y)^2 = sigma_x2 - 2*kappa*Cov(X, Y) + kappa^2*Var(Y) the
    # reported D_C, at free, interior and endpoint targets
    rng = np.random.default_rng(18)
    for _ in range(200):
        s2, r = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-2.0, 1.0)
        model = validate_model(s2, rng.uniform(0.0, 0.99) * math.sqrt(r), r)
        channel = ChannelSpec(10.0 ** rng.uniform(-2.0, 2.0) * s2,
                              10.0 ** rng.uniform(-2.0, 2.0) * s2)
        sigma_n2 = 10.0 ** rng.uniform(-2.0, 2.0) * s2
        solve, floor, z = {
            Setting.SIMPLE: (lambda t: solve_setting1(model, t),
                             privacy_bounds(model).dp_min, 0.0),
            Setting.COMPRESSION: (lambda t: solve_setting2(model, t, sigma_n2),
                                  compression_privacy_floor(model, sigma_n2), 0.0),
            Setting.CHANNEL: (lambda t: solve_setting3(model, t, channel),
                              channel_privacy_floor(model, channel), channel.sigma_z2),
        }[setting]
        for frac in (0.0, 0.3, 0.9, 1.0):
            sol = solve(floor + frac * (s2 * r - floor))
            pol = sol.policy
            x2, rho, rr, a, b, n = map(Fraction, (s2, model.rho, r, pol.alpha, pol.beta,
                                                  pol.noise_var))
            cov_xy = b * (x2 + a * x2 * rho)
            var_y = b * b * (x2 + 2 * a * x2 * rho + a * a * x2 * rr + n) + Fraction(z)
            assert sol.kappa == pytest.approx(float(cov_xy / var_y), rel=1e-12)
            kappa = Fraction(sol.kappa)
            d_c = x2 - 2 * kappa * cov_xy + kappa * kappa * var_y
            assert sol.d_c == pytest.approx(float(d_c), rel=1e-12, abs=1e-12 * s2)
