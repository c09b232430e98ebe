import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from privcomm import (
    ChannelSpec,
    DegenerateModelError,
    ModelError,
    Setting,
    solve_setting1,
    solve_setting2,
    solve_setting3,
    validate_model,
)
from privcomm.curves import (
    TradeoffCurve,
    noise_for_rate,
    privacy_floor,
    sweep_privacy_distortion,
    sweep_rate_distortion,
)
from privcomm import equilibrium
from privcomm.equilibrium import (
    SolveError,
    channel_privacy_floor,
    compression_privacy_floor,
    compression_rate,
    second_order_dc_dp,
)

from conftest import calls_from, column, exact_channel_dc_dp, source_models

M = validate_model(1.0, 0.6, 1.0)


class TestPrivacySweep:
    def test_endpoints_grid3(self):
        curve = sweep_privacy_distortion(M, Setting.SIMPLE, grid=3)
        xs = column(curve, "d_p")
        ys = column(curve, "d_c")
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

        for target in np.linspace(floor, hi, 9):
            d_c_ch = solve_setting3(model, float(target), channel).d_c
            d_c_simple = solve_setting1(model, float(target)).d_c
            assert d_c_ch >= d_c_simple - 1e-9 * model.sigma_x2

    @given(source_models(min_rho=0.05))
    @settings(max_examples=30, deadline=None)
    def test_monotone(self, model):
        curve = sweep_privacy_distortion(model, Setting.SIMPLE, grid=33)
        ys = column(curve, "d_c")
        assert np.all(np.diff(ys) >= -1e-12 * model.sigma_x2)


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


#: (rho, r) of the sweep-grid models: an interior model, rho = 0, rho^2 = r, and
#: rho/sqrt(r) = 1 + 4e-13, as far above rho^2 = r as SourceModel admits
GRID_MODELS = {
    "interior": (0.6, 1.0),
    "rho0": (0.0, 1.0),
    "degenerate": (0.6, 0.6**2),
    "above": (1.0 + 4e-13, 1.0),
}

#: The families whose every sweep answers; the others may be refused.
ANSWERING = ("interior", "rho0")


def grid_cases():
    """(setting, sigma_x2, family) cases; the interior family keeps the bare id."""
    # The channel setting refuses a subnormal sigma_x2 at every power budget
    # (beta overflows, or rounding breaks the sweep), so its scales start at 1e-300.
    scales = [(Setting.SIMPLE, s) for s in (1e-310, 1e-300, 1e-5, 1.0, 1e5, 1e300)]
    scales += [(Setting.CHANNEL, s) for s in (1e-300, 1e-5, 1.0, 1e5, 1e300)]
    return [pytest.param(setting, s2, family, id=f"{setting}-{s2}"
                         + ("" if family == "interior" else f"-{family}"))
            for family in GRID_MODELS for setting, s2 in scales]


class TestSweepGrid:
    @pytest.mark.parametrize("setting, sigma_x2, family", grid_cases())
    @pytest.mark.parametrize("grid", [2, 3, 65, 4097])
    def test_targets_are_linspace_and_rows_are_solves(self, setting, sigma_x2, family, grid):
        model = validate_model(sigma_x2, *GRID_MODELS[family])
        channel = ChannelSpec(p_t=1.0, sigma_z2=0.5) if setting is Setting.CHANNEL else None
        expected = first_refusal(model, setting, channel, grid)
        if expected is not None:
            assert family not in ANSWERING
            with pytest.raises(ValueError) as info:
                sweep_privacy_distortion(model, setting, channel, grid)
            assert (type(info.value), str(info.value)) == (type(expected), str(expected))
            return
        curve = sweep_privacy_distortion(model, setting, channel, grid)
        targets = grid_targets(model, setting, channel, grid)
        assert np.array_equal(bits(column(curve, "d_p")), bits(targets))
        for row in curve.points:
            if setting is Setting.SIMPLE:
                sol = solve_setting1(model, row[0])
            else:
                sol = solve_setting3(model, row[0], channel)
            assert np.array_equal(bits(row), bits((row[0], sol.d_c, sol.policy.alpha, sol.kappa)))

    @pytest.mark.parametrize(
        "model, grid",
        [(validate_model(1.0, 1e-8, 1.0), 65), (validate_model(1e-320, 0.6, 1.0), 2000)],
        ids=["narrow", "step-underflows"],
    )
    def test_grid_finer_than_the_floats_refused(self, model, grid):
        floor = privacy_floor(model, Setting.SIMPLE)
        # linspace repeats targets too: no sweep on this grid can be ordered
        assert len(set(np.linspace(floor, model.sigma_x2 * model.r, grid))) < grid
        with pytest.raises(ValueError, match=f"grid={grid} repeats the privacy target"):
            sweep_privacy_distortion(model, Setting.SIMPLE, grid=grid)


def grid_targets(model, setting, channel, grid):
    """numpy.linspace from the setting's floor to dp_max, or dp_max alone when they meet."""
    floor, hi = privacy_floor(model, setting, channel), model.sigma_x2 * model.r
    return np.linspace(floor, hi, grid) if hi > floor else np.array([hi])


def first_refusal(model, setting, channel, grid):
    """The exception of the first target of the sweep's grid that the solver refuses, or None."""
    for target in grid_targets(model, setting, channel, grid):
        try:
            if setting is Setting.SIMPLE:
                solve_setting1(model, float(target))
            else:
                solve_setting3(model, float(target), channel)
        except ValueError as exc:  # SolveError and its kinds included
            return exc
    return None


class TestSweepRefusals:
    # Each sweep raises the exception, class and message, that the solver
    # raises at the first target of the grid it refuses.
    @pytest.mark.parametrize(
        "setting, model, channel, message",
        [
            (Setting.SIMPLE, validate_model(1.0, 1.0, 1.0), None,
             "degenerate model rho^2 = r"),
            (Setting.CHANNEL, validate_model(1.0, 1.0, 1.0), ChannelSpec(1.0, 1.0),
             "degenerate model rho^2 = r"),
            (Setting.CHANNEL,
             validate_model(9.627742484964946e+23, 5.185222171897798e-142,
                            2.688652897199429e-283),
             ChannelSpec(0.0008494897219415433, 2.006125257190469),
             "r^2 * d underflows a float"),
            (Setting.CHANNEL, validate_model(1e-310, 0.6, 1.0), ChannelSpec(1.0, 1.0),
             "the transmit gain overflows a float"),
            (Setting.CHANNEL, validate_model(10.0, 0.6, 1.0), ChannelSpec(5e-324, 1.0),
             "beta must be positive and finite, got 0.0"),
        ],
        ids=["degenerate-simple", "degenerate-channel", "quadratic-underflow",
             "gain-overflow", "beta-underflow"],
    )
    @pytest.mark.parametrize("grid", [3, 5, 65])
    def test_sweep_raises_the_solvers_refusal(self, setting, model, channel, message, grid):
        expected = first_refusal(model, setting, channel, grid)
        assert str(expected).startswith(message)
        with pytest.raises(ValueError) as info:
            sweep_privacy_distortion(model, setting, channel, grid)
        assert type(info.value) is type(expected)
        assert str(info.value) == str(expected)


@pytest.mark.parametrize("grid", [3, 5, 65])
def test_channel_sweep_at_sigma_x2_1e300_answers(grid):
    # (beta * sigma_x2 * (1 + alpha*rho))^2 exceeds the largest float; D_C in
    # units of sigma_x2 does not square it
    model, channel = validate_model(1e300, 0.6, 1.0), ChannelSpec(1e10, 1.0)
    curve = sweep_privacy_distortion(model, Setting.CHANNEL, channel, grid)
    assert len(curve.points) == grid
    for d_p, d_c, alpha, kappa in curve.points:
        exact_dc, exact_dp = exact_channel_dc_dp(model, alpha, channel)
        # the rounding of P_T/(P_T + sigma_z2) alone is ~eps*sigma_x2 where D_C = 1e-10*sigma_x2
        assert abs(d_c - exact_dc) <= 4 * sys.float_info.epsilon * model.sigma_x2
        assert abs(d_p - exact_dp) <= 1e-9 * model.sigma_x2  # the solve's residual check


class TestCurveValidation:
    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            TradeoffCurve(columns=("d_p", "d_c"), points=((0.7, 0.1), (0.8, math.inf)))


class TestRateSweep:
    def test_active_inactive_transition(self):
        m = validate_model(1.0, 0.5, 1.0)
        curve = sweep_rate_distortion(m, 0.875, [0.1, 1.0, 10.0])
        alphas = dict(zip(column(curve, "sigma_n2"), column(curve, "alpha")))
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
        rates = column(curve, "rate")
        dcs = column(curve, "d_c")
        assert np.all(np.diff(rates) < 0.0)
        assert np.all(np.diff(dcs) > 0.0)

    def test_repeated_noise_refused_before_solving(self, monkeypatch):
        import privcomm.curves

        def no_solve(*args):
            raise AssertionError("solved before the grid was checked")

        monkeypatch.setattr(privcomm.curves, "_solve", no_solve)
        with pytest.raises(ValueError, match="sigma_n2=0.5 more than once"):
            sweep_rate_distortion(M, 0.9, [1.0, 0.5, 2.0, 0.5])

    def test_zero_rate_limit(self):
        curve = sweep_rate_distortion(M, 0.9, [1e7])
        _, rate, d_c, d_p, _ = curve.points[0]
        assert rate == pytest.approx(0.0, abs=1e-6)
        assert d_c == pytest.approx(1.0, rel=1e-4)

    def test_shrinking_target_cannot_increase_distortion(self):
        for sigma_n2 in (0.1, 1.0):
            dcs = [solve_setting2(M, t, sigma_n2).d_c for t in (0.95, 0.9, 0.8, 0.7)]
            assert all(b <= a + 1e-12 for a, b in zip(dcs, dcs[1:]))


def random_models(rng, count, log_sigma_x2=(-1.0, 1.0)):
    """Models with the benchmark's ranges of rho and r, sigma_x2 = 10**uniform(*log_sigma_x2)."""
    models = []
    for _ in range(count):
        s2 = float(10.0 ** rng.uniform(*log_sigma_x2))
        r = float(rng.uniform(0.05, 4.0))
        models.append(validate_model(s2, float(rng.uniform(0.05, 0.99)) * math.sqrt(r), r))
    return models


class TestRateSweepRows:
    # sigma_x2 from the benchmark's range, then from 1e-300 to 1e300
    @pytest.mark.parametrize("log_sigma_x2", [(-1.0, 1.0), (-300.0, 300.0)],
                             ids=["benchmark", "wide"])
    def test_rows_are_solves_and_evaluations(self, log_sigma_x2):
        rng = np.random.default_rng(19)
        branches = set()
        for model in random_models(rng, 200, log_sigma_x2):
            s2, rho, r = model.sigma_x2, model.rho, model.r
            target = s2 * (r - rho**2) + float(rng.uniform(0.02, 0.98)) * s2 * rho**2
            noises = [float(v) for v in np.geomspace(1e-2, 1e2, 16) * s2]
            curve = sweep_rate_distortion(model, target, noises)
            for row, sigma_n2 in zip(curve.points, noises):
                sol = solve_setting2(model, target, sigma_n2)
                d_c, d_p = second_order_dc_dp(model, sol.policy.alpha, sigma_n2 / s2)
                assert (d_c, d_p) == (sol.d_c, sol.d_p)
                rate = compression_rate(model, sol.policy.alpha, sigma_n2)
                expected = (sigma_n2, rate, sol.d_c, sol.d_p, sol.policy.alpha)
                assert np.array_equal(bits(row), bits(expected))
                branches.add(sol.constraint_active)
        assert branches == {False, True}

    @pytest.mark.parametrize("sigma_x2", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("family", GRID_MODELS)
    def test_rows_are_solves_on_the_grid_models(self, sigma_x2, family):
        # a noise of 1e-20*sigma_x2 leaves the quadratic of the model above
        # rho^2 = r without a real root
        model = validate_model(sigma_x2, *GRID_MODELS[family])
        target = sigma_x2 * (model.r - model.rho**2 / 2.0)
        noises = [sigma_x2 * v for v in (1e-20, 1e-2, 0.5, 1.0, 1e2)]
        expected, rows = None, []
        for sigma_n2 in noises:
            try:
                sol = solve_setting2(model, target, sigma_n2)
                rate = compression_rate(model, sol.policy.alpha, sigma_n2)
            except ValueError as exc:  # SolveError and its kinds included
                expected = exc
                break
            rows.append((sigma_n2, rate, sol.d_c, sol.d_p, sol.policy.alpha))
        if expected is not None:
            assert family not in ANSWERING
            with pytest.raises(ValueError) as info:
                sweep_rate_distortion(model, target, noises)
            assert (type(info.value), str(info.value)) == (type(expected), str(expected))
            return
        curve = sweep_rate_distortion(model, target, noises)
        assert np.array_equal(bits(curve.points), bits(rows))


    def test_one_solve_core_call_per_sweep(self, monkeypatch):
        import privcomm.curves

        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return equilibrium._solve(*args, **kwargs)

        monkeypatch.setattr(privcomm.curves, "_solve", spy)
        curve = sweep_rate_distortion(M, 0.9, np.geomspace(0.01, 100, 64))
        assert len(curve.points) == 64
        ((model, targets, noises),) = calls
        assert (model, targets, noises) == (M, (0.9,), list(column(curve, "sigma_n2")))

    @pytest.mark.parametrize("sigma_x2, r", [
        (s2, r) for s2 in (1e-300, 1e-150, 1e150, 1e300)
        for r in (1e-200, 1e-20, 1.0, 1e20, 1e200) if math.isfinite(s2 * r)])
    def test_rows_are_solves_on_extreme_models(self, sigma_x2, r):
        # free and active rows; where a noise is refused, the sweep raises the
        # first refusal of the solves, and only after them any of the rates
        model = validate_model(sigma_x2, 0.6 * math.sqrt(r), r)
        target = sigma_x2 * (r - model.rho**2 / 2.0)
        noises = [float(v) for v in np.geomspace(1e-3, 1e3, 12) * sigma_x2]
        rows, solve_error, rate_error = [], None, None
        for sigma_n2 in noises:
            try:
                sol = solve_setting2(model, target, sigma_n2)
            except ValueError as exc:
                solve_error = exc
                break
            try:
                rate = compression_rate(model, sol.policy.alpha, sigma_n2)
            except SolveError as exc:
                rate_error = rate_error or exc
            rows.append((sigma_n2, rate, sol.d_c, sol.d_p, sol.policy.alpha))
        expected = solve_error or rate_error
        if expected is not None:
            with pytest.raises(ValueError) as info:
                sweep_rate_distortion(model, target, noises)
            assert (type(info.value), str(info.value)) == (type(expected), str(expected))
            return
        curve = sweep_rate_distortion(model, target, noises)
        assert np.array_equal(bits(curve.points), bits(rows))
        if sigma_x2 * r >= sys.float_info.min:  # a dp_max that is normal, not rounded to 0
            assert {alpha < 0.0 for *_, alpha in rows} == {False, True}

    @pytest.mark.parametrize("model, target, noises", [
        # rho^2 = r*(1 + 8e-13) has no real root below sigma_n2/sigma_x2 = 8e-13
        (validate_model(1.0, 1.0000000000004, 1.0), 0.1, [1e-20, 1e-14, 1e-12, 1.0]),
        # r*sigma_n2/sigma_x2 overflows the compression floor from 1e9 on
        (validate_model(1e-300, 0.6, 1.0), 0.9e-300, [1e-301, 1e-300, 1e9, 1e10]),
        (M, math.nan, [0.5, 1.0]),
        (M, 1.5, [0.5, 1.0]),
    ], ids=["no-real-root", "floor-overflows", "nan-target", "infeasible"])
    def test_refused_noise_raises_the_solvers_refusal(self, model, target, noises):
        expected = None
        for sigma_n2 in noises:
            try:
                solve_setting2(model, target, sigma_n2)
            except ValueError as exc:
                expected = exc
                break
        assert expected is not None
        with pytest.raises(ValueError) as info:
            sweep_rate_distortion(model, target, noises)
        assert (type(info.value), str(info.value)) == (type(expected), str(expected))

    def test_solve_refusal_before_rate_overflow(self):
        # the rate at 1e-10 overflows, but the core refuses the infinite noise first
        with pytest.raises(SolveError, match=r"^sigma_n2 must be finite, got inf$"):
            sweep_rate_distortion(validate_model(1e300, 0.6, 1.0), 0.9e300,
                                  [1e-10, 1.0, math.inf])


class TestUncorrelatedModels:
    # rho = 0: every target up to dp_max is free.  At r = 0 dp_max is 0.
    @pytest.mark.parametrize("params", [(1.0, 0.0, 0.0), (2.0, 0.0, 3.0)], ids=["r0", "rho0"])
    def test_free_point_in_every_solver_and_sweep(self, params):
        model = validate_model(*params)
        free = model.sigma_x2 * model.r
        channel = ChannelSpec(p_t=1.0, sigma_z2=0.5)
        sols = [solve_setting1(model, free), solve_setting2(model, free, 0.5),
                solve_setting3(model, free, channel)]
        for sol in sols:
            pol = sol.policy
            assert not sol.constraint_active and pol.alpha == 0.0 and sol.d_p == free
            assert all(map(math.isfinite, (pol.beta, pol.noise_var, sol.kappa, sol.d_c)))
        simple, compression, over_channel = sols
        curve = sweep_privacy_distortion(model, Setting.SIMPLE)
        assert curve.points == ((free, simple.d_c, 0.0, simple.kappa),)
        curve = sweep_privacy_distortion(model, Setting.CHANNEL, channel)
        assert curve.points == ((free, over_channel.d_c, 0.0, over_channel.kappa),)
        curve = sweep_rate_distortion(model, free, [0.25, 0.5, 4.0])
        assert curve.points[1] == (0.5, compression_rate(model, 0.0, 0.5), compression.d_c,
                                   free, 0.0)
        for sigma_n2, rate, d_c, d_p, alpha in curve.points:
            assert alpha == 0.0 and d_p == free
            assert math.isfinite(rate) and math.isfinite(d_c)

    def test_rho_underflows_refused(self):
        # rho*rho underflows to 0 = r at rho = 1e-200, but Cov(X, theta) != 0 needs Var(theta) > 0
        with pytest.raises(ModelError, match=r"^need rho = 0 at r = 0, got rho=1e-200$"):
            validate_model(1.0, 1e-200, 0.0)


def test_rate_sweep_without_real_root_is_degenerate():
    # rho^2 = r*(1 + 8e-13) is projected onto rho^2 = r, which has a real root at every
    # noise; at n = 1, the grid's first noise, the target 0.1 lies below the free floor
    # r*n/(1 + n), and at n = 1e-20, its second, rounding misses the target
    m = validate_model(1.0, 1.0000000000004, 1.0)
    with pytest.raises(DegenerateModelError, match="rounding misses the privacy target 0.1"):
        sweep_rate_distortion(m, 0.1, [1.0, 1e-20])
    assert sweep_rate_distortion(m, 0.1, [1.0]).points[0][3] == compression_privacy_floor(m, 1.0)


def test_channel_solve_is_compression_at_the_channel_capacity():
    # The channel at (P_T, sigma_z2) carries the compression solve whose
    # rate is its capacity 0.5*ln(1 + P_T/sigma_z2): same alpha, same D_C.
    rng = np.random.default_rng(5)
    for model in random_models(rng, 3000):
        channel = ChannelSpec(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.1, 2.0)))
        lo, hi = channel_privacy_floor(model, channel), model.sigma_x2 * model.r
        target = lo + float(rng.uniform(0.02, 0.98)) * (hi - lo)
        sol3 = solve_setting3(model, target, channel)
        capacity = 0.5 * math.log1p(channel.p_t / channel.sigma_z2)
        sol2 = solve_setting2(model, target, noise_for_rate(model, target, capacity))
        assert sol2.policy.alpha == pytest.approx(sol3.policy.alpha, rel=1e-11, abs=0.0)
        assert sol2.d_c == pytest.approx(sol3.d_c, rel=0.0, abs=1e-13 * model.sigma_x2)


def test_noise_for_rate_roundtrip():
    sigma_n2 = noise_for_rate(M, 0.9, 0.7)
    sol = solve_setting2(M, 0.9, sigma_n2)
    assert compression_rate(M, sol.policy.alpha, sigma_n2) == pytest.approx(0.7, abs=1e-7)


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

    @pytest.mark.parametrize("d_p", [0.64, 0.9], ids=["inactive", "active"])
    def test_one_core_call_per_inversion(self, d_p, monkeypatch):
        # the guard solve is one call of the solve core, at the returned noise; the
        # rate needs no other
        import privcomm.curves

        calls, solve = [], equilibrium._solve
        monkeypatch.setattr(privcomm.curves, "_solve",
                            lambda *args, **kw: calls.append((args, kw)) or solve(*args, **kw))
        sigma_n2 = noise_for_rate(M, d_p, 0.5)
        ((args, kw),) = calls
        assert (args, kw) == ((M, (d_p,), (sigma_n2,)), {})

    @pytest.mark.parametrize("d_p", [0.64, 0.9], ids=["inactive", "active"])
    def test_guard_builds_no_records(self, d_p):
        # noise_for_rate's own frame calls the core and the rate, and no solver or record
        python, _ = calls_from(noise_for_rate, lambda: noise_for_rate(M, d_p, 0.5))
        assert python == ["_solve", "compression_rate"]

    def test_rate_check_refusal(self):
        # rounding near rho^2 = r leaves the guard's rate 3.8e-10 off R = 1
        m = validate_model(1.1586243658324173, 0.4332913319353504, 0.1877413922389551)
        with pytest.raises(DegenerateModelError) as info:
            noise_for_rate(m, 0.14644991916507416, 1.0)
        assert str(info.value) == (
            "degenerate model rho^2 = r (0.18774137833031002 vs 0.1877413922389551): "
            "rounding misses the rate 1.0: rate = 1.0000000003799059")

    def test_compression_endpoint_at_rho2_equal_r_answers(self):
        # the guard solve's max-privacy endpoint answers dp_max exactly, so rounding
        # alpha = -rho/r at r - rho^2 of a few ulps of r no longer misses it
        m = validate_model(1.8951618226600415e200, 31622.776601683792, 1e9)
        sigma_n2 = noise_for_rate(m, 1.895161822661937e209, 1e-308)
        assert sigma_n2 == 2.2591033766361207e+196

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


@pytest.mark.parametrize("call, message", [
    (lambda: sweep_privacy_distortion(M, Setting.CHANNEL),
     "channel setting requires a ChannelSpec"),
    (lambda: sweep_privacy_distortion(M, Setting.COMPRESSION),
     "no privacy-target sweep for setting Setting.COMPRESSION"),
    (lambda: sweep_privacy_distortion(M, Setting.SIMPLE, grid=1), "grid must be >= 2, got 1"),
    (lambda: sweep_rate_distortion(M, 0.9, []), "noise_grid must be non-empty"),
    (lambda: sweep_rate_distortion(M, 0.9, [0.5, 0.0]), "all sigma_n2 values must be positive"),
], ids=["channel-without-spec", "compression", "grid-1", "empty-noise-grid", "zero-noise"])
def test_sweep_refusals(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
