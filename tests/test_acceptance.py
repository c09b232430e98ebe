"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a release
report.  The frontier-shape criteria 4b/4c check the shape the closed-form
frontier has: D_C(D_P) is nondecreasing and convex, so the privacy-distortion
function D_P(D_C) is concave (4b); its slope is the Lagrange multiplier
lambda*(alpha) = -alpha(1+alpha*rho)/(rho+r*alpha), which runs from 0 on the
free floor to infinity at the max-privacy endpoint (where D_P is stationary
in alpha), so each secant slope lies between lambda* at its two ends (4c).
"""

import math
import pathlib
import time

import numpy as np
import pytest

from privcomm import (
    ChannelSpec,
    Setting,
    privacy_bounds,
    solve_setting1,
    solve_setting2,
    solve_setting3,
    validate_model,
)
from privcomm.curves import sweep_privacy_distortion
from privcomm.equilibrium import mixing_gain, second_order_dc_dp
from privcomm.montecarlo import SimConfig, simulate_policy
from privcomm.oracle import lagrangian_scan, verify_equilibrium

from conftest import column
from test_cli import GOLDENS

GOLDEN = pathlib.Path(__file__).parent / "golden"

M = validate_model(1.0, 0.6, 1.0)


def report(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert passed, f"{name}: {detail}"


def _random_models(count, seed):
    rng = np.random.default_rng(seed)
    models = []
    while len(models) < count:
        sigma_x2 = float(rng.uniform(0.1, 10.0))
        r = float(rng.uniform(0.05, 4.0))
        rho = float(rng.uniform(0.05, 0.99)) * math.sqrt(r)
        models.append(validate_model(sigma_x2, rho, r))
    return models


def test_criterion_1_endpoint_identities():
    start = time.time()
    worst = 0.0
    for model in _random_models(20, seed=101):
        b = privacy_bounds(model)
        top = solve_setting1(model, b.dp_max)
        scale = max(abs(model.rho / model.r), 1.0)
        worst = max(worst, abs(top.policy.alpha + model.rho / model.r) / scale)
        dc_top = model.sigma_x2 * model.rho**2 / model.r
        worst = max(worst, abs(top.d_c - dc_top) / dc_top)
        bottom = solve_setting1(model, b.dp_min)
        worst = max(worst, abs(bottom.policy.alpha))
        worst = max(worst, abs(bottom.d_c) / model.sigma_x2)
    elapsed = time.time() - start
    report(
        "endpoint identities exact to 1e-12 (20 models)",
        worst <= 1e-12 and elapsed < 1.0,
        f"max rel err {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_oracle_agreement():
    start = time.time()
    models = [
        validate_model(1.0, rho * math.sqrt(r), r)
        for rho in (0.2, 0.6, 0.9)
        for r in (1.0, 2.0)
    ]
    worst_gap = worst_noise = 0.0
    for model in models:
        b = privacy_bounds(model)
        for frac in np.linspace(0.02, 0.98, 16):
            target = b.dp_min + float(frac) * (b.dp_max - b.dp_min)
            rep = verify_equilibrium(model, Setting.SIMPLE, None, target)
            worst_gap = max(worst_gap, abs(rep.dc_gap) / model.sigma_x2)
            worst_noise = max(worst_noise, rep.oracle_optimum.noise_var / model.sigma_x2)
            assert rep.passed
    elapsed = time.time() - start
    report(
        "oracle matches closed form on 16 targets x 6 models",
        worst_gap <= 1e-5 and worst_noise <= 1e-5 and elapsed < 30.0,
        f"max dc gap {worst_gap:.2e}, max noise {worst_noise:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_quadratic_sign_grid():
    start = time.time()
    worst = math.inf
    for rho in np.linspace(0.1, 0.95, 12):
        for r in np.linspace(rho**2 + 0.01, 2.0, 12):
            model = validate_model(1.0, float(rho), float(r))
            lam_axis = np.linspace(0.0, 1.0 / rho**2, 100)
            alpha_axis = np.linspace(-rho / r, 0.0, 100)
            lam_g, alpha_g = np.meshgrid(lam_axis, alpha_axis, indexing="ij")
            grid_vals = (1.0 + alpha_g * rho) ** 2 - lam_g * (rho + r * alpha_g) ** 2
            worst = min(worst, float(np.min(grid_vals)))
    elapsed = time.time() - start
    report(
        "decoder-weight quadratic nonnegative on 100x100 grids",
        worst >= -1e-12 and elapsed < 5.0,
        f"min value {worst:.2e}, {elapsed:.1f}s",
    )


def _shape_curves():
    """(curve, model, setting) of three 64-point privacy-distortion sweeps."""
    channel = ChannelSpec(p_t=1.0, sigma_z2=0.5)
    wide = validate_model(2.0, 0.5, 1.5)
    return [
        (sweep_privacy_distortion(M, Setting.SIMPLE, grid=64), M, Setting.SIMPLE),
        (sweep_privacy_distortion(M, Setting.CHANNEL, channel, grid=64), M, Setting.CHANNEL),
        (sweep_privacy_distortion(wide, Setting.SIMPLE, grid=64), wide, Setting.SIMPLE),
    ]


def test_criterion_4a_frontier_monotone():
    start = time.time()
    ok = True
    for curve, model, _ in _shape_curves():
        ys = np.asarray(column(curve, "d_c"))
        ok = ok and bool(np.all(np.diff(ys) >= -1e-12 * model.sigma_x2))
    elapsed = time.time() - start
    report("frontier monotone nondecreasing", ok and elapsed < 5.0, f"{elapsed:.1f}s")


def test_criterion_4b_frontier_concave():
    # D_C(D_P) runs from slope 0 at the free floor to an unbounded slope at the
    # max-privacy endpoint, so it is convex, not concave; "concave" holds for
    # its inverse D_P(D_C), whose secant slopes therefore must not increase
    ok = True
    worst_second = math.inf
    worst_rise = -math.inf
    for curve, model, _ in _shape_curves():
        d_p = column(curve, "d_p")
        d_c = column(curve, "d_c")
        second = d_c[2:] - 2.0 * d_c[1:-1] + d_c[:-2]
        ok = ok and bool(np.all(second >= -1e-9 * model.sigma_x2))
        worst_second = min(worst_second, float(np.min(second)) / model.sigma_x2)
        ok = ok and bool(np.all(np.diff(d_c) > 0.0))
        inverse_slopes = np.diff(d_p) / np.diff(d_c)
        worst_rise = max(worst_rise, float(np.max(np.diff(inverse_slopes))))
    report(
        "D_C(D_P) discretely convex at 1e-9*sigma_x2; D_P(D_C) concave",
        ok and worst_rise <= 1e-9,
        f"min second difference {worst_second:.2e}*sigma_x2, "
        f"max rise of dD_P/dD_C {worst_rise:.2e}",
    )


def _frontier_multiplier(model, alpha):
    """lambda*(alpha) of the simple setting; infinite at max privacy."""
    den = model.rho + model.r * alpha
    with np.errstate(divide="ignore"):
        return np.where(den > 0.0, -alpha * (1.0 + alpha * model.rho) / den, np.inf)


def test_criterion_4c_interior_slopes_capped():
    # the frontier slope is the multiplier lambda*(alpha), nondecreasing along
    # the curve, so each central secant slope lies between lambda* at the two
    # ends of its stencil (lambda* = inf at max privacy); O(h^2) agreement does
    # not hold, because D_C has a square-root singularity at dp_max
    ok = True
    stencils = 0
    worst_low = worst_high = math.inf
    for curve, model, setting in _shape_curves():
        d_p, d_c = column(curve, "d_p"), column(curve, "d_c")
        slopes = (d_c[2:] - d_c[:-2]) / (d_p[2:] - d_p[:-2])
        ok = ok and bool(np.all(slopes >= 0.0))
        if setting is Setting.CHANNEL:
            # lambda* is derived for the simple setting only
            ok = ok and bool(np.all(np.diff(slopes) >= 0.0))
            continue
        alpha = column(curve, "alpha")
        low = _frontier_multiplier(model, alpha[:-2])
        high = _frontier_multiplier(model, alpha[2:])
        ok = ok and bool(np.all(low <= slopes) and np.all(slopes <= high))
        stencils += slopes.size
        worst_low = min(worst_low, float(np.min((slopes - low) / slopes)))
        finite = np.isfinite(high)
        worst_high = min(
            worst_high, float(np.min(1.0 - slopes[finite] / high[finite]))
        )
    report(
        "slopes >= 0; simple-setting slopes between lambda* at the stencil ends",
        ok and stencils > 0,
        f"{stencils} stencils, min margin {worst_low:.3f} above lambda*(left), "
        f"{worst_high:.3f} below lambda*(right)",
    )


def test_criterion_5_compression_consistency():
    start = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(10_000):
        model = validate_model(
            float(rng.uniform(0.1, 10.0)),
            float(rng.uniform(0.05, 0.99)) * math.sqrt(r := float(rng.uniform(0.05, 4.0))),
            r,
        )
        alpha = float(rng.uniform(-2.0, 1.0))
        n_eff = float(rng.uniform(1e-2, 10.0))
        d_c, _ = second_order_dc_dp(model, alpha, n_eff)
        den = 1.0 + 2.0 * alpha * model.rho + alpha**2 * model.r + n_eff
        d_c_stmt = model.sigma_x2 * (1.0 - (1.0 + alpha * model.rho) ** 2 / den)
        worst = max(worst, abs(d_c - d_c_stmt) / max(abs(d_c), abs(d_c_stmt), 1e-300))
    back_ok = True
    for target in (0.75, 0.85, 0.95):
        sol = solve_setting2(M, target, 0.2)
        if sol.constraint_active:
            _, d_p = second_order_dc_dp(M, sol.policy.alpha, 0.2 / M.sigma_x2)
            back_ok = back_ok and abs(d_p - target) <= 1e-9
    limit = solve_setting2(M, 0.84, 1e-9)
    ref = solve_setting1(M, 0.84)
    limit_ok = abs(limit.d_c - ref.d_c) <= 1e-4 and abs(limit.policy.alpha - ref.policy.alpha) <= 1e-4
    elapsed = time.time() - start
    report(
        "compression evaluator forms agree / back-substitution / noiseless limit",
        worst <= 1e-10 and back_ok and limit_ok and elapsed < 5.0,
        f"max form gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_6_channel_reduction_and_power():
    start = time.time()
    ok = True
    for p_t in (0.5, 1.0, 4.0):
        noiseless = solve_setting3(M, 0.84, ChannelSpec(p_t=p_t, sigma_z2=0.0))
        ref = solve_setting1(M, 0.84)
        ok = ok and abs(noiseless.d_c - ref.d_c) <= 1e-9
    huge = solve_setting3(M, 0.84, ChannelSpec(p_t=1e12, sigma_z2=1.0))
    ok = ok and abs(huge.d_c - solve_setting1(M, 0.84).d_c) <= 1e-9
    ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
    sol = solve_setting3(M, 0.92, ch)
    power = sol.policy.beta**2 * M.sigma_x2 * mixing_gain(M, sol.policy.alpha)
    ok = ok and abs(power - ch.p_t) <= 1e-10
    n = 1_000_000
    res = simulate_policy(M, sol.policy, ch, sol.kappa, SimConfig(n, 606, Setting.CHANNEL))
    power_se = math.sqrt(2.0 / n) * ch.p_t
    ok = ok and abs(res.power_hat - ch.p_t) <= 5 * power_se
    elapsed = time.time() - start
    report(
        "noiseless/high-power channel reduces to simple; transmit power exact",
        ok and elapsed < 10.0,
        f"power hat {res.power_hat:.6f}, {elapsed:.1f}s",
    )


def test_criterion_7_monte_carlo_confirmation():
    start = time.time()
    n = 1_000_000
    ch = ChannelSpec(p_t=1.0, sigma_z2=1.0)
    configs = [
        (Setting.SIMPLE, M, 0.84, None),
        (Setting.SIMPLE, validate_model(2.0, 0.5, 1.5), 2.2, None),
        (Setting.COMPRESSION, M, 0.9, 0.5),
        (Setting.CHANNEL, M, 0.92, ch),
        (Setting.CHANNEL, validate_model(1.0, 0.4, 1.0), 0.95, ChannelSpec(2.0, 0.5)),
    ]
    ok = True
    for i, (setting, model, target, extra) in enumerate(configs):
        if setting is Setting.SIMPLE:
            sol, channel = solve_setting1(model, target), None
        elif setting is Setting.COMPRESSION:
            sol, channel = solve_setting2(model, target, extra), None
        else:
            sol, channel = solve_setting3(model, target, extra), extra
        res = simulate_policy(
            model, sol.policy, channel, sol.kappa, SimConfig(n, 700 + i, setting)
        )
        ok = ok and abs(res.d_c_hat - sol.d_c) <= 5 * res.stderr_dc
        ok = ok and abs(res.d_p_hat - sol.d_p) <= 5 * res.stderr_dp

    # one seed for every decoder gain: each gain sees the same draws
    sol = solve_setting1(M, 0.84)
    gains = np.linspace(sol.kappa * 0.9, sol.kappa * 1.1, 9)
    cfg = SimConfig(n, 800, Setting.SIMPLE)
    d_c = [simulate_policy(M, sol.policy, None, float(g), cfg).d_c_hat for g in gains]
    ok = ok and abs(gains[int(np.argmin(d_c))] - sol.kappa) <= (gains[1] - gains[0]) * 1.5

    ch_sol = solve_setting3(M, 0.92, ch)
    alpha = ch_sol.policy.alpha
    printed = (1 + alpha * M.rho) / (1 + 2 * alpha * M.rho + alpha**2 * M.r)
    cfg = SimConfig(n, 801, Setting.CHANNEL)
    printed_dc, kappa_dc = (simulate_policy(M, ch_sol.policy, ch, g, cfg).d_c_hat
                            for g in (printed, ch_sol.kappa))
    ok = ok and kappa_dc < printed_dc
    elapsed = time.time() - start
    report(
        "Monte Carlo matches closed forms within 5 SE; decoder gain optimal",
        ok and elapsed < 60.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_8_multiplier_scan_on_frontier():
    start = time.time()
    models = [M, validate_model(2.0, 0.5, 1.5), validate_model(0.5, 0.4, 0.5)]
    worst = 0.0
    short = -math.inf
    for model in models:
        lam_max = 1.0 / model.rho**2
        lams = [*np.linspace(0.0, lam_max, 7), 3.0 * lam_max, 10.0 * lam_max,
                100.0 * lam_max]
        points = lagrangian_scan(model, lams)
        for pt in points:
            frontier = solve_setting1(model, pt.d_p)
            worst = max(worst, abs(pt.d_c - frontier.d_c))
        # the largest multiplier reaches the top of the frontier
        top = privacy_bounds(model).dp_max
        short = max(short, (top - points[-1].d_p) / model.sigma_x2)
    elapsed = time.time() - start
    # the scan refines the encoder noise to an absolute 1e-7, and the noise
    # it leaves is what separates its points from the frontier
    report(
        "multiplier-scan points lie on the constraint-sweep frontier up to 100/rho^2",
        worst <= 1e-7 and short <= 3e-5 and elapsed < 30.0,
        f"max gap {worst:.2e}, top d_p short of dp_max by {short:.1e}*sigma_x2, "
        f"{elapsed:.1f}s",
    )


def test_criterion_9_cli_golden_files():
    import contextlib
    import io

    from privcomm.cli import main

    start = time.time()
    ok = True
    for name, argv in GOLDENS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        ok = ok and code == 0 and buf.getvalue() == (GOLDEN / name).read_text()
    elapsed = time.time() - start
    report("CLI outputs byte-identical to golden files", ok and elapsed < 1.0,
           f"{elapsed:.2f}s")
