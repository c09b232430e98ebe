"""Trade-off curve sweeps and the inverse of the rate map.

Sweeps are parameterized directly by the privacy target (settings 1/3) or by
the test-channel noise (setting 2); the Lagrange multiplier is the local
slope of the privacy-distortion curve, not a sweep parameter.  Each sweep
is one call of the solve core that the public solvers wrap: a privacy sweep
hands it its whole target grid, and the rate sweep its whole noise grid with
its one target.  The core works out the model's constants once and returns
plain floats, so a sweep builds no solution records.
``noise_for_rate`` runs setting 2 backwards: the test-channel noise that
meets a privacy target at a given rate comes in closed form, checked by one
call of the solve core at the noise it returns, which builds no records.

The module needs only the standard library, so the ``tradeoff`` and ``rate``
commands run without loading numpy.
"""

from __future__ import annotations

import math
import sys
from itertools import chain

from .equilibrium import (
    ChannelSpec,
    DegenerateModelError,
    Setting,
    _solve,
    channel_privacy_floor,
    compression_rate,
)
from .model import Record, SourceModel, privacy_bounds

#: Largest rate error, relative to max(1, R), between the target rate R and the
#: rate of the encoder solved at the noise ``noise_for_rate`` returns; a larger
#: one means rounding defeated the closed-form noise, and is refused.
RATE_TOL = 1e-10


class TradeoffCurve(Record):
    """Samples of a trade-off curve, under named columns.

    Columns are (d_p, d_c, alpha, kappa) for the simple/channel settings and
    (sigma_n2, rate, d_c, d_p, alpha) for compression.  The sweeps order the
    points by the first column.
    """

    __slots__ = ("columns", "points")

    def __init__(self, columns: tuple[str, ...],
                 points: tuple[tuple[float, ...], ...]) -> None:
        # CSV output never holds nan or inf.  A float sum is finite only when
        # every value is, unless finite values overflow it: only then, or on a
        # bad value, does the per-value scan run
        if (not math.isfinite(sum(chain.from_iterable(points)))
                and not all(map(math.isfinite, chain.from_iterable(points)))):
            bad = next(p for p in points if not all(map(math.isfinite, p)))
            raise ValueError(f"non-finite curve point {bad}")
        set_columns, set_points = self._setters
        set_columns(self, columns)
        set_points(self, points)


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
    so the analytic endpoint values are reproduced exactly.  The targets are
    ``lo + i*step`` with ``step = (hi - lo)/(grid - 1)``, bit for bit
    ``numpy.linspace(lo, hi, grid)``.  A grid too fine for the floats in
    [lo, hi] repeats a target and raises ``ValueError`` before any solve.  A
    rho = 0 model collapses to the single free point (dp_max, 0).
    """
    if grid < 2:
        raise ValueError(f"grid must be >= 2, got {grid}")
    lo = privacy_floor(model, setting, channel)
    hi = privacy_bounds(model).dp_max
    step = (hi - lo) / (grid - 1)
    targets = [lo + i * step for i in range(grid - 1)] + [hi] if hi > lo else [hi]
    for t1, t2 in zip(targets, targets[1:]):
        if t2 <= t1:
            raise ValueError(f"grid={grid} repeats the privacy target {t1!r}: "
                             f"too few floats lie in [{lo!r}, {hi!r}]")
    rows = _solve(model, targets, channel=channel if setting is Setting.CHANNEL else None)
    points = [(target, d_c, alpha, kappa)
              for target, (alpha, _, kappa, d_c, _, _) in zip(targets, rows)]
    return TradeoffCurve(columns=("d_p", "d_c", "alpha", "kappa"), points=tuple(points))


def sweep_rate_distortion(
    model: SourceModel, d_p_target: float, noise_grid
) -> TradeoffCurve:
    """Sweep (rate, d_c, d_p, alpha) over a grid of distinct test-channel noises."""
    noises = sorted(float(n) for n in noise_grid)
    if not noises:
        raise ValueError("noise_grid must be non-empty")
    if noises[0] <= 0.0:
        raise ValueError("all sigma_n2 values must be positive")
    for n1, n2 in zip(noises, noises[1:]):
        if n1 == n2:
            raise ValueError(f"noise_grid lists sigma_n2={n1!r} more than once")
    rows = _solve(model, (d_p_target,), noises)
    points = [(sigma_n2, compression_rate(model, alpha, sigma_n2), d_c, d_p, alpha)
              for sigma_n2, (alpha, _, _, d_c, d_p, _) in zip(noises, rows)]
    return TradeoffCurve(columns=("sigma_n2", "rate", "d_c", "d_p", "alpha"),
                         points=tuple(points))


def noise_for_rate(model: SourceModel, d_p_target: float, rate_target: float) -> float:
    """Invert the rate map in closed form: the sigma_n2 whose equilibrium rate is R.

    With g = expm1(2R) and d = D_P / sigma_x2, the rate fixes A / n = g, where
    A = Var(X + alpha*theta) / sigma_x2 and n = sigma_n2 / sigma_x2.  When the
    compression floor at n = 1/g already meets the target (r - rho^2*g/(g+1)
    >= d), alpha = 0 and sigma_n2 = sigma_x2 / g.  Otherwise the active
    constraint gives A = (r - rho^2)*g / (d*(g+1) - r), so
    sigma_n2 = sigma_x2 * (r - rho^2) / (d*g - (r - d)), the same denominator
    written so that rounding g + 1 cannot lose a small g.  One call of the
    solve core at the returned noise guards the answer: a rate off R by more than
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
    elif r - rho**2 <= 0.0:  # model.degenerate, without a property call
        raise DegenerateModelError(
            model, f"the rate is ln(r/d)/2 at every noise once D_P={d_p_target!r} binds"
        )
    else:
        sigma_n2 = s2 * (r - rho**2) / (d * g - (r - d))
    if not sys.float_info.min <= sigma_n2 < math.inf:
        raise ValueError(f"rate_target={rate_target} needs sigma_n2={sigma_n2}, "
                         "outside the normal floats")
    # alpha off the core's one row: records would add checks a finite alpha passes
    rate = compression_rate(model, _solve(model, (d_p_target,), (sigma_n2,))[0][0], sigma_n2)
    if abs(rate - rate_target) > RATE_TOL * max(1.0, rate_target):
        raise DegenerateModelError(
            model, f"rounding misses the rate {rate_target!r}: rate = {rate!r}"
        )
    return sigma_n2
