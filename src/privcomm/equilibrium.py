"""Closed-form privacy-constrained Stackelberg equilibria for three settings.

All three settings share one linear-plus-noise encoder family
Y = beta * (X + alpha*theta) + noise and one solve core for the active
privacy constraint, a quadratic in alpha:

    r*d*alpha^2 + 2*rho*d*alpha + (rho^2 - r + d - (r - d)*n_eff) = 0,

where d is the normalized privacy target D_P / sigma_x2 (or the setting's
effective target) and n_eff the normalized effective noise variance seen at
the decoder.  The core tests, in order: a finite target, feasibility, the
setting's free privacy floor, the max-privacy endpoint, the degenerate model
rho^2 = r without noise, and otherwise takes the root alpha_plus, the
constrained minimizer.  Near rho^2 = r rounding can defeat the closed form,
so a solution is refused with :class:`DegenerateModelError` when its encoder
sends nothing, its D_P misses an active target by more than ``SOLVE_TOL``,
or the quadratic has no real root (rho^2 > r*(1 + n_eff): a model admitted
just above rho^2 = r at a test-channel noise below its excess).

Settings, each with one public solver:
  simple       Y = X + alpha*theta (noiseless, unit gain)
  compression  Y = X + alpha*theta + N, N ~ N(0, sigma_n2) (forward test channel);
               ``compression_rate`` gives the rate of its encoder
  channel      Y = beta*(X + alpha*theta) + Z over a power-limited Gaussian channel

D_C and D_P have one formula per setting: ``second_order_dc_dp`` for the
simple and compression settings, the channel's inside its solve.
"""

from __future__ import annotations

import math
from enum import Enum

from .model import Record, SourceModel

#: Relative tolerance for snapping privacy targets onto the endpoints of the
#: feasible range; endpoint targets (max/min privacy) are legitimate inputs and
#: the square root in the quadratic amplifies last-ulp noise there.
ENDPOINT_RTOL = 1e-12

#: Back-substitution residual tolerance: an active solution's D_P meets its
#: target to SOLVE_TOL relative and to SOLVE_TOL * sigma_x2 at most, beyond
#: the ENDPOINT_RTOL snap onto max privacy.
SOLVE_TOL = 1e-9

#: Branches of the solve core: the setting's free privacy floor (constraint
#: inactive), the max-privacy endpoint and the interior root of the quadratic.
FREE, ENDPOINT, INTERIOR = "free", "endpoint", "interior"


class Setting(Enum):
    SIMPLE = "simple"
    COMPRESSION = "compression"
    CHANNEL = "channel"


class SolveError(ValueError):
    """Base class for equilibrium solver failures."""


class InfeasiblePrivacyTarget(SolveError):
    """Requested privacy MMSE exceeds what any encoder can provide."""


class DegenerateModelError(SolveError):
    """rho^2 = r: theta = rho*X, and no encoder without noise reaches the interior."""

    def __init__(self, model: SourceModel, reason: str):
        super().__init__(
            f"degenerate model rho^2 = r ({model.rho**2!r} vs {model.r!r}): {reason}"
        )


def _check_gain(alpha: float, beta: float) -> None:
    """Refuse a non-finite alpha or a beta outside (0, inf), as EncoderPolicy does."""
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    if not (0.0 < beta < math.inf):
        raise ValueError(f"beta must be positive and finite, got {beta}")


class EncoderPolicy(Record):
    """Linear-plus-noise encoder: transmit beta*(X + alpha*theta) + noise."""

    __slots__ = ("alpha", "beta", "noise_var")

    def __init__(self, alpha: float, beta: float = 1.0, noise_var: float = 0.0) -> None:
        _check_gain(alpha, beta)
        if not (0.0 <= noise_var < math.inf):
            raise ValueError(f"noise_var must be finite and >= 0, got {noise_var}")
        set_alpha, set_beta, set_noise_var = self._setters
        set_alpha(self, alpha)
        set_beta(self, beta)
        set_noise_var(self, noise_var)


class ChannelSpec(Record):
    """Average-power-limited additive Gaussian channel Y = U + Z."""

    __slots__ = ("p_t", "sigma_z2")

    def __init__(self, p_t: float, sigma_z2: float) -> None:
        if not (0.0 < p_t < math.inf):
            raise ValueError(f"p_t must be positive and finite, got {p_t}")
        if not (0.0 <= sigma_z2 < math.inf):
            raise ValueError(f"sigma_z2 must be finite and >= 0, got {sigma_z2}")
        set_p_t, set_sigma_z2 = self._setters
        set_p_t(self, p_t)
        set_sigma_z2(self, sigma_z2)


class EquilibriumSolution(Record):
    __slots__ = ("policy", "kappa", "d_c", "d_p", "constraint_active")

    def __init__(self, policy: EncoderPolicy, kappa: float, d_c: float, d_p: float,
                 constraint_active: bool) -> None:
        set_policy, set_kappa, set_d_c, set_d_p, set_constraint_active = self._setters
        set_policy(self, policy)
        set_kappa(self, kappa)
        set_d_c(self, d_c)
        set_d_p(self, d_p)
        set_constraint_active(self, constraint_active)


def mixing_gain(model: SourceModel, alpha):
    """Normalized transmit variance A = Var(X + alpha*theta) / sigma_x2."""
    return 1.0 + 2.0 * alpha * model.rho + alpha * alpha * model.r


def second_order_dc_dp(model: SourceModel, alpha, n_eff):
    """Distortion and privacy MMSE for Y = X + alpha*theta + noise.

    ``n_eff`` is the noise variance normalized by sigma_x2.  Accepts scalars
    or numpy arrays; this is the single source of truth for the D_C / D_P
    formulas, shared by solvers, sweeps and the brute-force oracle.  A NaN
    output variance passes the guard, as it would under ``numpy.any``.
    """
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    den = mixing_gain(model, alpha) + n_eff
    # a float (numpy's float64 is one) compares directly; numpy arrays need .any()
    if den <= 0.0 if isinstance(den, float) else (den <= 0.0).any():
        raise RuntimeError("nonpositive output variance; invalid policy")
    # cancellation-free rewrites of 1 - (1+a*rho)^2/den and r - (rho+r*a)^2/den
    gap = r - rho**2
    d_c = s2 * (alpha * alpha * gap + n_eff) / den
    d_p = s2 * (gap + r * n_eff) / den
    return d_c, d_p


def compression_rate(model: SourceModel, alpha: float, sigma_n2: float) -> float:
    """Rate of the compression encoder (alpha, unit gain, test-channel noise sigma_n2).

    The rate is the Gaussian mutual information across the forward test
    channel, in nats; a nonpositive noise, or one so small that the rate
    overflows, raises :class:`SolveError`.
    """
    if sigma_n2 <= 0.0:
        raise SolveError(f"test-channel noise must be positive, got {sigma_n2}")
    rate = 0.5 * math.log1p(mixing_gain(model, alpha) * model.sigma_x2 / sigma_n2)
    if not math.isfinite(rate):
        raise SolveError(f"rate overflows at test-channel noise {sigma_n2!r}")
    return rate


_NO_NOISELESS_ENCODER = "no encoder without noise meets the privacy target {!r}"


def _constrained_alpha(
    model: SourceModel,
    d_p_target: float,
    floor: float,
    n_eff: float = 0.0,
    d_eff: float | None = None,
    floor_unit: float = 1.0,
):
    """(alpha, branch) of the privacy-constrained encoder, for every setting.

    ``branch`` is ``FREE``, ``ENDPOINT`` or ``INTERIOR``; the constraint is
    active on the last two.

    ``floor`` is the setting's free privacy level in units of ``floor_unit``
    (1 for the target's own units, sigma_x2 for a normalized floor).  The
    active constraint is the quadratic in ``n_eff`` at the normalized target,
    or at ``d_eff`` when the setting shifts it.  Its roots are -rho/r +- delta
    with delta^2 = (r - d)*(r - rho^2 + r*n_eff) / (r^2 * d); the root
    alpha_plus is the constrained minimizer, because alpha_minus lies below
    -rho/r.  An r^2 * d that underflows to zero or overflows raises
    :class:`SolveError`.
    """
    if not math.isfinite(d_p_target):
        raise SolveError(f"privacy target must be finite, got {d_p_target}")
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    d = d_p_target / s2
    if d > r * (1.0 + ENDPOINT_RTOL):
        raise InfeasiblePrivacyTarget(f"d_p_target={d_p_target} exceeds dp_max={s2 * r}")
    if rho == 0.0 or d_p_target / floor_unit <= floor * (1.0 + ENDPOINT_RTOL):
        return 0.0, FREE
    if d >= r * (1.0 - ENDPOINT_RTOL):
        return -rho / r, ENDPOINT  # transmit the prediction error of X from theta
    if model.degenerate and n_eff == 0.0:
        raise DegenerateModelError(model, _NO_NOISELESS_ENCODER.format(d_p_target))
    if d_eff is not None:
        d = d_eff
    if d <= 0.0:
        raise SolveError(f"normalized privacy target must be positive, got {d}")
    scale = r * r * d
    if not scale > 0.0:
        raise SolveError(f"r^2 * d underflows a float at r={r!r}, d={d!r}")
    if scale == math.inf:
        raise SolveError(f"r^2 * d overflows a float at r={r!r}, d={d!r}")
    disc = (r - d) * (r - rho**2 + r * n_eff) / scale
    if disc < -ENDPOINT_RTOL * max(1.0, r):  # d < r here, so rho^2 > r*(1 + n_eff)
        raise DegenerateModelError(model, f"no encoder meets the privacy target {d_p_target!r} "
                                          f"at test-channel noise sigma_n2/sigma_x2 = {n_eff!r}")
    alpha = -rho / r + math.sqrt(max(disc, 0.0))
    return min(alpha, 0.0), INTERIOR  # clip last-ulp drift above alpha = 0


def _transmit_variance(model: SourceModel, alpha: float, n_eff: float) -> float:
    """Normalized Var(X + alpha*theta + noise); refuses an encoder that sends nothing."""
    var = mixing_gain(model, alpha) + n_eff
    if not var > 0.0:
        raise DegenerateModelError(model, f"the encoder alpha={alpha!r} sends nothing")
    return var


def _check_residual(model: SourceModel, d_p_target: float, d_p: float) -> None:
    """Refuse an active answer whose D_P rounding left off its target."""
    tol = SOLVE_TOL * min(model.sigma_x2, d_p_target) + ENDPOINT_RTOL * d_p_target
    if abs(d_p - d_p_target) > tol:
        raise DegenerateModelError(
            model, f"rounding misses the privacy target {d_p_target!r}: d_p = {d_p!r}"
        )


def _solution(alpha, beta, kappa, d_c, d_p, active, noise_var=0.0) -> EquilibriumSolution:
    """The records of one answer of ``_solve1/2/3``.

    Those per-target solves make every check of the public solvers and return
    plain floats (alpha, beta, kappa, d_c, d_p, active); the sweeps call them.
    """
    return EquilibriumSolution(EncoderPolicy(alpha, beta, noise_var), kappa, d_c, d_p, active)


def _solve1(model: SourceModel, d_p_target: float):
    """solve_setting1 as (alpha, beta, kappa, d_c, d_p, active)."""
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    floor = r - rho**2
    if floor < 0.0:  # SourceModel admits rho^2 up to r*(1 + BOUNDARY_EPS)
        floor = 0.0
    alpha, branch = _constrained_alpha(model, d_p_target, floor, floor_unit=s2)
    _check_gain(alpha, 1.0)
    if branch is FREE:
        return alpha, 1.0, 1.0, 0.0, s2 * floor, False
    if branch is ENDPOINT:
        d_c, d_p, kappa = s2 * rho**2 / r, s2 * r, 1.0
    else:
        kappa = (1.0 + alpha * rho) / _transmit_variance(model, alpha, 0.0)
        d_c, d_p = second_order_dc_dp(model, alpha, 0.0)
    _check_residual(model, d_p_target, d_p)
    return alpha, 1.0, kappa, d_c, d_p, True


def solve_setting1(model: SourceModel, d_p_target: float) -> EquilibriumSolution:
    """Equilibrium for the noiseless setting: Y = X + alpha*theta, Xhat = kappa*Y.

    Targets at or below dp_min are satisfied for free (alpha = 0, zero
    distortion, constraint inactive); targets above dp_max are infeasible.
    Encoder noise is never used: it is strictly suboptimal on the frontier.
    """
    return _solution(*_solve1(model, d_p_target))


def compression_privacy_floor(model: SourceModel, sigma_n2: float) -> float:
    """Privacy MMSE delivered at alpha = 0 by the test-channel noise alone."""
    if not math.isfinite(sigma_n2):
        raise SolveError(f"sigma_n2 must be finite, got {sigma_n2}")
    if sigma_n2 <= 0.0:
        raise SolveError(f"sigma_n2 must be positive, got {sigma_n2}")
    n = sigma_n2 / model.sigma_x2
    floor = model.sigma_x2 * (model.r - model.rho**2 / (1.0 + n))
    if floor < 0.0:  # SourceModel admits rho^2 up to r*(1 + BOUNDARY_EPS)
        floor = 0.0
    return floor


def _solve2(model: SourceModel, d_p_target: float, sigma_n2: float):
    """solve_setting2 as (alpha, beta, kappa, d_c, d_p, active)."""
    floor = compression_privacy_floor(model, sigma_n2)
    n = sigma_n2 / model.sigma_x2
    alpha, branch = _constrained_alpha(model, d_p_target, floor, n_eff=n)
    kappa = (1.0 + alpha * model.rho) / _transmit_variance(model, alpha, n)
    d_c, d_p = second_order_dc_dp(model, alpha, n)
    _check_gain(alpha, 1.0)
    active = branch is not FREE
    if active:
        _check_residual(model, d_p_target, d_p)
    elif d_p < 0.0:  # rounding at rho^2 >= r, clamped as the floor is
        d_p = 0.0
    return alpha, 1.0, kappa, d_c, d_p, active


def solve_setting2(
    model: SourceModel, d_p_target: float, sigma_n2: float
) -> EquilibriumSolution:
    """Equilibrium for compression at test-channel noise sigma_n2.

    Compression inherently leaks less about theta, so the constraint is
    inactive (alpha = 0) whenever the target sits at or below the floor
    sigma_x2 * (r - rho^2 / (1 + n)).
    """
    return _solution(*_solve2(model, d_p_target, sigma_n2), sigma_n2)


def channel_privacy_floor(model: SourceModel, channel: ChannelSpec) -> float:
    """Privacy MMSE at alpha = 0 under full-power transmission of X."""
    gamma = channel.p_t / (channel.p_t + channel.sigma_z2)
    floor = model.sigma_x2 * (model.r - model.rho**2 * gamma)
    if floor < 0.0:  # SourceModel admits rho^2 up to r*(1 + BOUNDARY_EPS)
        floor = 0.0
    return floor


def _solve3(model: SourceModel, d_p_target: float, channel: ChannelSpec):
    """solve_setting3 as (alpha, beta, kappa, d_c, d_p, active)."""
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    p_t, sigma_z2 = channel.p_t, channel.sigma_z2
    d = d_p_target / s2
    d_eff = d - (r - d) * sigma_z2 / p_t
    floor = channel_privacy_floor(model, channel)
    alpha, branch = _constrained_alpha(model, d_p_target, floor, d_eff=d_eff)
    active = branch is not FREE
    if active and model.degenerate:  # max privacy: X - (rho/r)*theta = 0
        raise DegenerateModelError(model, _NO_NOISELESS_ENCODER.format(d_p_target))
    var_u = s2 * _transmit_variance(model, alpha, 0.0)  # E{(X + alpha*theta)^2}
    beta = math.sqrt(p_t / var_u) if var_u > 0.0 else math.inf
    if beta == math.inf:
        raise SolveError(f"the transmit gain overflows a float at sigma_x2={s2!r}, p_t={p_t!r}")
    _check_gain(alpha, beta)
    kappa = beta * s2 * (1.0 + alpha * rho) / (p_t + sigma_z2)
    if branch is ENDPOINT:
        # exact: Cov(Y, theta) = 0 at the max-privacy endpoint
        d_c, d_p = s2 * (1.0 - (1.0 - rho**2 / r) * p_t / (p_t + sigma_z2)), s2 * r
    else:
        var_y = beta * beta * var_u + sigma_z2  # the power P_T plus the channel noise
        try:
            d_c = s2 - (beta * s2 * (1.0 + alpha * rho)) ** 2 / var_y
            d_p = s2 * r - (beta * s2 * (rho + r * alpha)) ** 2 / var_y
        except OverflowError:
            raise SolveError(
                f"a squared covariance of Y overflows a float at sigma_x2={s2!r}, beta={beta!r}"
            ) from None
    if active:
        _check_residual(model, d_p_target, d_p)
    elif d_p < 0.0:  # rounding at rho^2 >= r, clamped as the floor is
        d_p = 0.0
    return alpha, beta, kappa, d_c, d_p, active


def solve_setting3(
    model: SourceModel, d_p_target: float, channel: ChannelSpec
) -> EquilibriumSolution:
    """Equilibrium over the power-limited Gaussian channel.

    The power constraint is always active: beta^2 = P_T / (sigma_x2 * A).
    The active privacy constraint reduces to the noiseless quadratic through
    the effective target d' = d - (r - d) * sigma_z2 / P_T (normalized).
    The decoder gain is the MMSE coefficient beta*sigma_x2*(1+alpha*rho) /
    (P_T + sigma_z2).  On a degenerate model (rho^2 = r) every encoder
    without noise either leaks at the free floor or sends nothing, so an
    active constraint raises :class:`DegenerateModelError`.  A transmit gain
    (at a subnormal sigma_x2) or a squared covariance of Y beyond the float
    range raises :class:`SolveError`.
    """
    return _solution(*_solve3(model, d_p_target, channel))
