"""Trade-off curve sweeps, the inverse of the rate map and the slope check.

Sweeps are parameterized directly by the privacy target (settings 1/3) or by
the test-channel noise (setting 2); the Lagrange multiplier is recoverable as
the local slope of the privacy-distortion curve and is checked, not swept.
``noise_for_rate`` runs setting 2 backwards: the test-channel noise that
meets a privacy target at a given rate comes in closed form, checked by one
solve at the noise it returns.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .equilibrium import (
    ChannelSpec,
    DegenerateModelError,
    EquilibriumSolution,
    Setting,
    channel_privacy_floor,
    evaluate_setting2,
    solve_setting1,
    solve_setting2,
    solve_setting3,
)
from .model import SourceModel, privacy_bounds

#: Largest rate error that ``noise_for_rate`` accepts, relative to max(1, R):
#: the stopping width of the bisection the closed form replaced.
RATE_TOL = 1e-10


@dataclass(frozen=True)
class TradeoffCurve:
    """Ordered samples of a trade-off curve plus the model that produced it.

    Columns are (d_p, d_c, alpha, kappa) for the simple/channel settings and
    (sigma_n2, rate, d_c, d_p, alpha) for compression.  The first column is
    the ordering key.
    """

    setting: Setting
    columns: tuple[str, ...]
    points: tuple[tuple[float, ...], ...]
    model: SourceModel
    channel: ChannelSpec | None = None

    def __post_init__(self) -> None:
        xs = [p[0] for p in self.points]
        if any(x2 <= x1 for x1, x2 in zip(xs, xs[1:])):
            raise ValueError("curve points must be strictly ordered by x")
        for p in self.points:
            if not all(math.isfinite(v) for v in p):
                raise ValueError(f"non-finite curve point {p}")
        if self.setting in (Setting.SIMPLE, Setting.CHANNEL):
            ys = [p[1] for p in self.points]
            if any(y < 0.0 for y in ys):
                raise ValueError("distortion must be nonnegative")
            if any(y2 < y1 - 1e-12 * self.model.sigma_x2 for y1, y2 in zip(ys, ys[1:])):
                raise ValueError("distortion must be non-decreasing in the privacy target")

    def column(self, name: str) -> np.ndarray:
        return np.array([p[self.columns.index(name)] for p in self.points])


@dataclass(frozen=True)
class SlopeReport:
    """Interior-slope check against the multiplier bounds [0, 1/rho^2].

    The frontier slope is the Lagrange multiplier.  It is 0 on the free floor
    and grows without bound at the max-privacy endpoint, so the cap 1/rho^2
    holds only up to the privacy level where the multiplier reaches it
    (d_p ~ 0.977 of [0.64, 1] for the model (1, 0.6, 1)); a sweep that runs
    on to dp_max does not pass.
    """

    status: str  # "ok" or "degenerate"
    slopes: tuple[float, ...]
    lower_bound: float
    upper_bound: float
    passed: bool


def privacy_floor(
    model: SourceModel, setting: Setting, channel: ChannelSpec | None = None
) -> float:
    """Smallest privacy target that the setting satisfies for free."""
    if setting is Setting.CHANNEL:
        if channel is None:
            raise ValueError("channel setting requires a ChannelSpec")
        return channel_privacy_floor(model, channel)
    if setting is Setting.SIMPLE:
        return privacy_bounds(model).dp_min
    raise ValueError(f"no privacy-target sweep for setting {setting}")


def sweep_privacy_distortion(
    model: SourceModel,
    setting: Setting,
    channel: ChannelSpec | None = None,
    grid: int = 65,
) -> TradeoffCurve:
    """Sample the privacy-distortion curve on a uniform privacy-target grid.

    Grid endpoints land exactly on the setting's privacy floor and on dp_max,
    so the analytic endpoint values are reproduced exactly.  A rho = 0 model
    collapses to the single free point (dp_max, 0).
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    lo = privacy_floor(model, setting, channel)
    hi = privacy_bounds(model).dp_max
    targets = np.linspace(lo, hi, grid) if hi > lo else np.array([hi])
    points = []
    for target in targets:
        if setting is Setting.SIMPLE:
            sol = solve_setting1(model, float(target))
        else:
            sol = solve_setting3(model, float(target), channel)
        points.append((float(target), sol.d_c, sol.policy.alpha, sol.kappa))
    return TradeoffCurve(
        setting=setting,
        columns=("d_p", "d_c", "alpha", "kappa"),
        points=tuple(points),
        model=model,
        channel=channel,
    )


def sweep_rate_distortion(
    model: SourceModel, d_p_target: float, noise_grid
) -> TradeoffCurve:
    """Sweep (rate, d_c, d_p, alpha) over a grid of test-channel noises."""
    noises = sorted(float(n) for n in noise_grid)
    if not noises:
        raise ValueError("noise_grid must be non-empty")
    if noises[0] <= 0.0:
        raise ValueError("all sigma_n2 values must be positive")
    points = []
    for sigma_n2 in noises:
        sol = solve_setting2(model, d_p_target, sigma_n2)
        rate, d_c, d_p = evaluate_setting2(model, sol.policy)
        points.append((sigma_n2, rate, d_c, d_p, sol.policy.alpha))
    return TradeoffCurve(
        setting=Setting.COMPRESSION,
        columns=("sigma_n2", "rate", "d_c", "d_p", "alpha"),
        points=tuple(points),
        model=model,
    )


def lagrangian_slope_check(
    curve: TradeoffCurve, model: SourceModel, slack: float = 1e-7
) -> SlopeReport:
    """Check that interior slopes d d_c / d d_p lie within [0, 1/rho^2].

    Uses central differences; rho = 0 curves are degenerate (the multiplier
    range collapses) and are reported as skipped.  The cap holds only below
    the privacy level where the multiplier reaches 1/rho^2, the d_p that
    ``lagrangian_scan(model, [1/rho^2])`` returns; above it the slope exceeds
    the cap, so a curve reaching dp_max fails the check.
    """
    if model.rho == 0.0:
        return SlopeReport(
            status="degenerate", slopes=(), lower_bound=0.0, upper_bound=math.inf,
            passed=True,
        )
    if curve.setting is Setting.COMPRESSION:
        raise ValueError("slope check applies to privacy-distortion curves")
    if len(curve.points) < 3:
        raise ValueError("slope check needs at least 3 points")
    x = curve.column("d_p")
    y = curve.column("d_c")
    slopes = (y[2:] - y[:-2]) / (x[2:] - x[:-2])
    upper = 1.0 / model.rho**2
    passed = bool(np.all(slopes >= -slack) and np.all(slopes <= upper + slack))
    return SlopeReport(
        status="ok",
        slopes=tuple(float(s) for s in slopes),
        lower_bound=0.0,
        upper_bound=upper,
        passed=passed,
    )


def noise_for_rate(model: SourceModel, d_p_target: float, rate_target: float) -> float:
    """Invert the rate map in closed form: the sigma_n2 whose equilibrium rate is R.

    With g = expm1(2R) and d = D_P / sigma_x2, the rate fixes A / n = g, where
    A = Var(X + alpha*theta) / sigma_x2 and n = sigma_n2 / sigma_x2.  When the
    compression floor at n = 1/g already meets the target (r - rho^2*g/(g+1)
    >= d), alpha = 0 and sigma_n2 = sigma_x2 / g.  Otherwise the active
    constraint gives A = (r - rho^2)*g / (d*(g+1) - r), so
    sigma_n2 = sigma_x2 * (r - rho^2) / (d*g - (r - d)), the same denominator
    written so that rounding g + 1 cannot lose a small g.  One solve at the
    returned noise guards the answer: a rate off R by more than
    1e-10*max(1, R), which rounding causes near rho^2 = r, raises
    :class:`DegenerateModelError`.  A rate that is not positive and finite, or
    whose noise under- or overflows a float, raises ``ValueError``.
    """
    if not 0.0 < rate_target < math.inf:
        raise ValueError(f"rate_target must be positive and finite, got {rate_target}")
    s2, rho, r = model.sigma_x2, model.rho, model.r
    d = d_p_target / s2
    try:
        g = math.expm1(2.0 * rate_target)
    except OverflowError:
        raise ValueError(
            f"rate_target={rate_target} needs a noise below any float"
        ) from None
    # a NaN target takes the inactive branch; the guard solve refuses it
    if not d > r - rho**2 * g / (g + 1.0):
        sigma_n2 = s2 / g
    elif model.degenerate:
        raise DegenerateModelError(
            model, f"the rate is ln(r/d)/2 at every noise once D_P={d_p_target!r} binds"
        )
    else:
        sigma_n2 = s2 * (r - rho**2) / (d * g - (r - d))
    if not sys.float_info.min <= sigma_n2 < math.inf:
        raise ValueError(f"rate_target={rate_target} needs sigma_n2={sigma_n2}, "
                         "outside the normal floats")
    sol = solve_setting2(model, d_p_target, sigma_n2)
    rate, _, _ = evaluate_setting2(model, sol.policy)
    if abs(rate - rate_target) > RATE_TOL * max(1.0, rate_target):
        raise DegenerateModelError(
            model, f"rounding misses the rate {rate_target!r}: rate = {rate!r}"
        )
    return sigma_n2
