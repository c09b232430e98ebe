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
sends nothing or its D_P misses an active target by more than ``SOLVE_TOL``.

Settings:
  simple       Y = X + alpha*theta (noiseless, unit gain)
  compression  Y = X + alpha*theta + N, N ~ N(0, sigma_n2) (forward test channel)
  channel      Y = beta*(X + alpha*theta) + Z over a power-limited Gaussian channel
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import SourceModel

#: Relative tolerance for snapping privacy targets onto the endpoints of the
#: feasible range; endpoint targets (max/min privacy) are legitimate inputs and
#: the square root in the quadratic amplifies last-ulp noise there.
ENDPOINT_RTOL = 1e-12

#: Back-substitution residual tolerance: an active solution's D_P meets its
#: target to SOLVE_TOL relative and to SOLVE_TOL * sigma_x2 at most, beyond
#: the ENDPOINT_RTOL snap onto max privacy.
SOLVE_TOL = 1e-9


class Setting(Enum):
    SIMPLE = "simple"
    COMPRESSION = "compression"
    CHANNEL = "channel"


class SolveError(ValueError):
    """Base class for equilibrium solver failures."""


class InfeasiblePrivacyTarget(SolveError):
    """Requested privacy MMSE exceeds what any encoder can provide."""


class DegeneratePrivacyTarget(SolveError):
    """Privacy target of zero leaves the constraint quadratic undefined."""


class InfiniteRateError(SolveError):
    """Compression with nonpositive or vanishing test-channel noise has unbounded rate."""


class DegenerateModelError(SolveError):
    """rho^2 = r: theta = rho*X, and no encoder without noise reaches the interior."""

    def __init__(self, model: SourceModel, reason: str):
        super().__init__(
            f"degenerate model rho^2 = r ({model.rho**2!r} vs {model.r!r}): {reason}"
        )


@dataclass(frozen=True)
class EncoderPolicy:
    """Linear-plus-noise encoder: transmit beta*(X + alpha*theta) + noise."""

    alpha: float
    beta: float = 1.0
    noise_var: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")
        if not (0.0 < self.beta < math.inf):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        if not (0.0 <= self.noise_var < math.inf):
            raise ValueError(f"noise_var must be finite and >= 0, got {self.noise_var}")


@dataclass(frozen=True)
class ChannelSpec:
    """Average-power-limited additive Gaussian channel Y = U + Z."""

    p_t: float
    sigma_z2: float

    def __post_init__(self) -> None:
        if not (0.0 < self.p_t < math.inf):
            raise ValueError(f"p_t must be positive and finite, got {self.p_t}")
        if not (0.0 <= self.sigma_z2 < math.inf):
            raise ValueError(f"sigma_z2 must be finite and >= 0, got {self.sigma_z2}")


@dataclass(frozen=True)
class EquilibriumSolution:
    policy: EncoderPolicy
    kappa: float
    d_c: float
    d_p: float
    constraint_active: bool


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
    nonpositive = den <= 0.0
    # a Python float gives a bool; numpy scalars and arrays need .any()
    if nonpositive if isinstance(nonpositive, bool) else nonpositive.any():
        raise RuntimeError("nonpositive output variance; invalid policy")
    # cancellation-free rewrites of 1 - (1+a*rho)^2/den and r - (rho+r*a)^2/den
    d_c = s2 * (alpha * alpha * (r - rho**2) + n_eff) / den
    d_p = s2 * ((r - rho**2) + r * n_eff) / den
    return d_c, d_p


def evaluate_setting1(model: SourceModel, policy: EncoderPolicy):
    """(d_c, d_p) for the simple setting; requires unit transmit gain."""
    if policy.beta != 1.0:
        raise ValueError("setting 1 uses a unit transmit gain")
    return second_order_dc_dp(model, policy.alpha, policy.noise_var / model.sigma_x2)


def evaluate_setting2(model: SourceModel, policy: EncoderPolicy):
    """(rate, d_c, d_p) for the compression setting.

    The rate is the Gaussian mutual information across the forward test
    channel, in nats; a noise so small that it overflows raises
    :class:`InfiniteRateError`.
    """
    if policy.beta != 1.0:
        raise ValueError("setting 2 uses a unit transmit gain")
    if policy.noise_var <= 0.0:
        raise InfiniteRateError(
            f"test-channel noise must be positive, got {policy.noise_var}"
        )
    s2 = model.sigma_x2
    rate = 0.5 * math.log1p(mixing_gain(model, policy.alpha) * s2 / policy.noise_var)
    if not math.isfinite(rate):
        raise InfiniteRateError(
            f"rate overflows at test-channel noise {policy.noise_var!r}"
        )
    d_c, d_p = second_order_dc_dp(model, policy.alpha, policy.noise_var / s2)
    return rate, d_c, d_p


def evaluate_setting3(model: SourceModel, policy: EncoderPolicy, channel: ChannelSpec):
    """(d_c, d_p, power) for transmission over the Gaussian channel.

    Works for an arbitrary transmit gain; power is E{U^2} for
    U = beta*(X + alpha*theta + encoder noise).
    """
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    alpha, beta = policy.alpha, policy.beta
    power = beta * beta * (s2 * mixing_gain(model, alpha) + policy.noise_var)
    var_y = power + channel.sigma_z2
    d_c = s2 - (beta * s2 * (1.0 + alpha * rho)) ** 2 / var_y
    d_p = s2 * r - (beta * s2 * (rho + r * alpha)) ** 2 / var_y
    return d_c, d_p, power


def solve_alpha_quadratic(model: SourceModel, d_target: float, n_eff: float):
    """Both roots of the active privacy constraint D_P(alpha, n_eff) = d_target.

    ``d_target`` and ``n_eff`` are normalized by sigma_x2.  Returns
    (alpha_plus, alpha_minus) = (-rho/r + delta, -rho/r - delta) with
    delta^2 = (r - d)*(r - rho^2 + r*n_eff) / (r^2 * d).
    """
    if d_target <= 0.0:
        raise DegeneratePrivacyTarget(
            f"normalized privacy target must be positive, got {d_target}"
        )
    if n_eff < 0.0:
        raise ValueError(f"n_eff must be >= 0, got {n_eff}")
    rho, r = model.rho, model.r
    disc = (r - d_target) * (r - rho**2 + r * n_eff) / (r * r * d_target)
    if disc < -ENDPOINT_RTOL * max(1.0, r):
        raise InfeasiblePrivacyTarget(
            f"target {d_target} exceeds maximum privacy {r} (negative discriminant)"
        )
    delta = math.sqrt(max(disc, 0.0))
    return -rho / r + delta, -rho / r - delta


_NO_NOISELESS_ENCODER = "no encoder without noise meets the privacy target {!r}"


def _constrained_alpha(
    model: SourceModel,
    d_p_target: float,
    floor: float,
    n_eff: float = 0.0,
    d_eff: float | None = None,
    floor_unit: float = 1.0,
):
    """(alpha, active) of the privacy-constrained encoder, for every setting.

    ``floor`` is the setting's free privacy level in units of ``floor_unit``
    (1 for the target's own units, sigma_x2 for a normalized floor).  The
    active constraint is the quadratic in ``n_eff`` at the normalized target,
    or at ``d_eff`` when the setting shifts it; its root alpha_plus is the
    constrained minimizer, because alpha_minus lies below -rho/r.
    """
    if not math.isfinite(d_p_target):
        raise SolveError(f"privacy target must be finite, got {d_p_target}")
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    d = d_p_target / s2
    if d > r * (1.0 + ENDPOINT_RTOL):
        raise InfeasiblePrivacyTarget(f"d_p_target={d_p_target} exceeds dp_max={s2 * r}")
    if rho == 0.0 or d_p_target / floor_unit <= floor * (1.0 + ENDPOINT_RTOL):
        return 0.0, False
    if _at_max_privacy(model, d_p_target):
        return -rho / r, True  # transmit the prediction error of X from theta
    if model.degenerate and n_eff == 0.0:
        raise DegenerateModelError(model, _NO_NOISELESS_ENCODER.format(d_p_target))
    alpha, _ = solve_alpha_quadratic(model, d if d_eff is None else d_eff, n_eff)
    return min(alpha, 0.0), True  # clip last-ulp drift above alpha = 0


def _at_max_privacy(model: SourceModel, d_p_target: float) -> bool:
    return d_p_target / model.sigma_x2 >= model.r * (1.0 - ENDPOINT_RTOL)


def _transmit_variance(model: SourceModel, alpha: float, n_eff: float) -> float:
    """Normalized Var(X + alpha*theta + noise); refuses an encoder that sends nothing."""
    var = mixing_gain(model, alpha) + n_eff
    if not var > 0.0:
        raise DegenerateModelError(model, f"the encoder alpha={alpha!r} sends nothing")
    return var


def _solution(model, d_p_target, policy, kappa, d_c, d_p, active) -> EquilibriumSolution:
    """The solution, refused when rounding leaves an active D_P off its target."""
    tol = SOLVE_TOL * min(model.sigma_x2, d_p_target) + ENDPOINT_RTOL * d_p_target
    if active and abs(d_p - d_p_target) > tol:
        raise DegenerateModelError(
            model, f"rounding misses the privacy target {d_p_target!r}: d_p = {d_p!r}"
        )
    return EquilibriumSolution(
        policy=policy, kappa=kappa, d_c=d_c, d_p=d_p, constraint_active=active
    )


def solve_setting1(model: SourceModel, d_p_target: float) -> EquilibriumSolution:
    """Equilibrium for the noiseless setting: Y = X + alpha*theta, Xhat = kappa*Y.

    Targets at or below dp_min are satisfied for free (alpha = 0, zero
    distortion, constraint inactive); targets above dp_max are infeasible.
    Encoder noise is never used: it is strictly suboptimal on the frontier.
    """
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    floor = r - rho**2
    alpha, active = _constrained_alpha(model, d_p_target, floor, floor_unit=s2)
    policy = EncoderPolicy(alpha=alpha)
    if not active:
        d_c, d_p, kappa = 0.0, s2 * floor, 1.0
    elif _at_max_privacy(model, d_p_target):
        d_c, d_p, kappa = s2 * rho**2 / r, s2 * r, 1.0
    else:
        kappa = (1.0 + alpha * rho) / _transmit_variance(model, alpha, 0.0)
        d_c, d_p = second_order_dc_dp(model, alpha, 0.0)
    return _solution(model, d_p_target, policy, kappa, d_c, d_p, active)


def compression_privacy_floor(model: SourceModel, sigma_n2: float) -> float:
    """Privacy MMSE delivered at alpha = 0 by the test-channel noise alone."""
    if not math.isfinite(sigma_n2):
        raise SolveError(f"sigma_n2 must be finite, got {sigma_n2}")
    if sigma_n2 <= 0.0:
        raise InfiniteRateError(f"sigma_n2 must be positive, got {sigma_n2}")
    n = sigma_n2 / model.sigma_x2
    return model.sigma_x2 * (model.r - model.rho**2 / (1.0 + n))


def solve_setting2(
    model: SourceModel, d_p_target: float, sigma_n2: float
) -> EquilibriumSolution:
    """Equilibrium for compression at test-channel noise sigma_n2.

    Compression inherently leaks less about theta, so the constraint is
    inactive (alpha = 0) whenever the target sits at or below the floor
    sigma_x2 * (r - rho^2 / (1 + n)).
    """
    floor = compression_privacy_floor(model, sigma_n2)
    n = sigma_n2 / model.sigma_x2
    alpha, active = _constrained_alpha(model, d_p_target, floor, n_eff=n)
    kappa = (1.0 + alpha * model.rho) / _transmit_variance(model, alpha, n)
    d_c, d_p = second_order_dc_dp(model, alpha, n)
    policy = EncoderPolicy(alpha=alpha, noise_var=sigma_n2)
    return _solution(model, d_p_target, policy, kappa, d_c, d_p, active)


def channel_privacy_floor(model: SourceModel, channel: ChannelSpec) -> float:
    """Privacy MMSE at alpha = 0 under full-power transmission of X."""
    gamma = channel.p_t / (channel.p_t + channel.sigma_z2)
    return model.sigma_x2 * (model.r - model.rho**2 * gamma)


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
    active constraint raises :class:`DegenerateModelError`.
    """
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    p_t, sigma_z2 = channel.p_t, channel.sigma_z2
    d = d_p_target / s2
    d_eff = d - (r - d) * sigma_z2 / p_t
    floor = channel_privacy_floor(model, channel)
    alpha, active = _constrained_alpha(model, d_p_target, floor, d_eff=d_eff)
    if active and model.degenerate:  # max privacy: X - (rho/r)*theta = 0
        raise DegenerateModelError(model, _NO_NOISELESS_ENCODER.format(d_p_target))
    beta = math.sqrt(p_t / (s2 * _transmit_variance(model, alpha, 0.0)))
    policy = EncoderPolicy(alpha=alpha, beta=beta)
    kappa = beta * s2 * (1.0 + alpha * rho) / (p_t + sigma_z2)
    if active and _at_max_privacy(model, d_p_target):
        # exact: Cov(Y, theta) = 0 at the max-privacy endpoint
        d_c, d_p = s2 * (1.0 - (1.0 - rho**2 / r) * p_t / (p_t + sigma_z2)), s2 * r
    else:
        d_c, d_p, _power = evaluate_setting3(model, policy, channel)
    return _solution(model, d_p_target, policy, kappa, d_c, d_p, active)


def xi_sign_check(model: SourceModel, lam: float, alpha: float) -> float:
    """The noise-suppression sign quantity (1+alpha*rho)^2 - lam*(rho+r*alpha)^2.

    Its sign at the frontier's own multiplier is what makes encoder noise
    useless on the frontier.  In the simple setting that multiplier is the
    frontier slope lam*(alpha) = -alpha*(1+alpha*rho) / (rho+r*alpha), and
    xi(lam*(alpha), alpha) = (1+alpha*rho) * A(alpha) is an identity, with A
    the transmit variance of :func:`mixing_gain`.  Both factors grow on
    [-rho/r, 0], so xi >= (1 - rho^2/r)^2 there, with equality at the
    max-privacy endpoint alpha = -rho/r.  This function accepts lam in
    [0, 1/rho^2] only, which misses the top ~6.4% of the frontier (for the
    model (1, 0.6, 1)), where lam* > 1/rho^2.
    """
    rho, r = model.rho, model.r
    if lam < -1e-15:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if rho > 0.0 and lam > (1.0 / rho**2) * (1.0 + 1e-12):
        raise ValueError(f"lam={lam} outside [0, 1/rho^2]")
    lo = -rho / r
    if alpha < lo - 1e-12 or alpha > 1e-12:
        raise ValueError(f"alpha={alpha} outside [-rho/r, 0]")
    return (1.0 + alpha * rho) ** 2 - lam * (rho + r * alpha) ** 2
