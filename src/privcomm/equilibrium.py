"""Closed-form privacy-constrained Stackelberg equilibria for three settings.

All three settings share one linear-plus-noise encoder family
Y = beta * (X + alpha*theta) + noise and one quadratic-root engine for the
active privacy constraint:

    r*d*alpha^2 + 2*rho*d*alpha + (rho^2 - r + d - (r - d)*n_eff) = 0,

where d is the normalized privacy target D_P / sigma_x2 and n_eff the
normalized effective noise variance seen at the decoder.

Settings:
  simple       Y = X + alpha*theta (noiseless, unit gain)
  compression  Y = X + alpha*theta + N, N ~ N(0, sigma_n2) (forward test channel)
  channel      Y = beta*(X + alpha*theta) + Z over a power-limited Gaussian channel
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .model import SourceModel, privacy_bounds

#: Relative tolerance for snapping privacy targets onto the endpoints of the
#: feasible range; endpoint targets (max/min privacy) are legitimate inputs and
#: the square root in the quadratic amplifies last-ulp noise there.
ENDPOINT_RTOL = 1e-12

#: Back-substitution residual tolerance on normalized quantities.
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
    """Compression with nonpositive test-channel noise has unbounded rate."""


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
    channel, in nats.  The distortion is evaluated through two algebraically
    equivalent expressions and cross-checked to 1e-10 relative.
    """
    if policy.beta != 1.0:
        raise ValueError("setting 2 uses a unit transmit gain")
    if policy.noise_var <= 0.0:
        raise InfiniteRateError(
            f"test-channel noise must be positive, got {policy.noise_var}"
        )
    s2 = model.sigma_x2
    n = policy.noise_var / s2
    alpha = policy.alpha
    a_gain = mixing_gain(model, alpha)
    rate = 0.5 * math.log1p(a_gain * s2 / policy.noise_var)
    d_c, d_p = second_order_dc_dp(model, alpha, n)
    # cross-check against the direct 1 - (1+a*rho)^2/(A+n) expression; the
    # absolute floor absorbs its subtractive cancellation near d_c = 0
    d_c_alt = s2 * (1.0 - (1.0 + alpha * model.rho) ** 2 / (a_gain + n))
    if abs(d_c - d_c_alt) > 1e-10 * max(abs(d_c), abs(d_c_alt)) + 1e-13 * s2:
        raise RuntimeError(f"distortion expressions disagree: {d_c} vs {d_c_alt}")
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


def _finite_target(d_p_target: float) -> None:
    if not math.isfinite(d_p_target):
        raise SolveError(f"privacy target must be finite, got {d_p_target}")


def _lower_dc_root(model: SourceModel, roots, n_eff: float) -> float:
    """Pick the root with the lower distortion; both hit the target exactly.

    On a degenerate model both roots give the same distortion in exact
    arithmetic, so rounding must not rank them: alpha_plus is taken.
    """
    if model.degenerate:
        alpha = roots[0]
    else:
        d_c = [second_order_dc_dp(model, a, n_eff)[0] for a in roots]
        alpha = roots[0] if d_c[0] <= d_c[1] else roots[1]
    # the constrained minimizer always sits in [-rho/r, 0]; clip last-ulp drift
    lo, hi = -model.rho / model.r, 0.0
    if alpha < lo - 1e-9 or alpha > hi + 1e-9:
        # only rounding can rank the roots the wrong way round, when rho^2 ~ r
        raise DegenerateModelError(
            model, f"the roots of the privacy constraint tie to rounding; "
            f"selected {alpha} outside [-rho/r, 0]"
        )
    return min(max(alpha, lo), hi)


def solve_setting1(model: SourceModel, d_p_target: float) -> EquilibriumSolution:
    """Equilibrium for the noiseless setting: Y = X + alpha*theta, Xhat = kappa*Y.

    Targets at or below dp_min are satisfied for free (alpha = 0, zero
    distortion, constraint inactive); targets above dp_max are infeasible.
    Encoder noise is never used: it is strictly suboptimal on the frontier.
    """
    _finite_target(d_p_target)
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    d = d_p_target / s2
    if d > r * (1.0 + ENDPOINT_RTOL):
        raise InfeasiblePrivacyTarget(
            f"d_p_target={d_p_target} exceeds dp_max={privacy_bounds(model).dp_max}"
        )
    floor = r - rho**2
    if rho == 0.0 or d <= floor * (1.0 + ENDPOINT_RTOL):
        policy = EncoderPolicy(alpha=0.0)
        return EquilibriumSolution(
            policy=policy, kappa=1.0, d_c=0.0, d_p=s2 * floor, constraint_active=False
        )
    if d >= r * (1.0 - ENDPOINT_RTOL):
        # max-privacy endpoint: transmit the prediction error of X from theta
        alpha = -rho / r
        return EquilibriumSolution(
            policy=EncoderPolicy(alpha=alpha),
            kappa=1.0,
            d_c=s2 * rho**2 / r,
            d_p=s2 * r,
            constraint_active=True,
        )
    if model.degenerate:
        raise DegenerateModelError(model, _NO_NOISELESS_ENCODER.format(d_p_target))
    roots = solve_alpha_quadratic(model, d, 0.0)
    alpha = _lower_dc_root(model, roots, 0.0)
    kappa = (1.0 + alpha * rho) / mixing_gain(model, alpha)
    d_c, d_p = second_order_dc_dp(model, alpha, 0.0)
    return EquilibriumSolution(
        policy=EncoderPolicy(alpha=alpha),
        kappa=kappa,
        d_c=d_c,
        d_p=d_p,
        constraint_active=True,
    )


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
    _finite_target(d_p_target)
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    floor = compression_privacy_floor(model, sigma_n2)
    n = sigma_n2 / s2
    d = d_p_target / s2
    if d > r * (1.0 + ENDPOINT_RTOL):
        raise InfeasiblePrivacyTarget(
            f"d_p_target={d_p_target} exceeds dp_max={s2 * r}"
        )
    if rho == 0.0 or d_p_target <= floor * (1.0 + ENDPOINT_RTOL):
        alpha = 0.0
        active = False
    elif d >= r * (1.0 - ENDPOINT_RTOL):
        alpha = -rho / r
        active = True
    else:
        roots = solve_alpha_quadratic(model, d, n)
        alpha = _lower_dc_root(model, roots, n)
        active = True
    policy = EncoderPolicy(alpha=alpha, noise_var=sigma_n2)
    kappa = (1.0 + alpha * rho) / (mixing_gain(model, alpha) + n)
    d_c, d_p = second_order_dc_dp(model, alpha, n)
    return EquilibriumSolution(
        policy=policy, kappa=kappa, d_c=d_c, d_p=d_p, constraint_active=active
    )


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
    _finite_target(d_p_target)
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    d = d_p_target / s2
    if d > r * (1.0 + ENDPOINT_RTOL):
        raise InfeasiblePrivacyTarget(
            f"d_p_target={d_p_target} exceeds dp_max={s2 * r}"
        )
    floor = channel_privacy_floor(model, channel)
    if rho == 0.0 or d_p_target <= floor * (1.0 + ENDPOINT_RTOL):
        alpha = 0.0
        active = False
    elif model.degenerate:
        raise DegenerateModelError(model, _NO_NOISELESS_ENCODER.format(d_p_target))
    elif d >= r * (1.0 - ENDPOINT_RTOL):
        alpha = -rho / r
        active = True
    else:
        d_eff = d - (r - d) * channel.sigma_z2 / channel.p_t
        roots = solve_alpha_quadratic(model, d_eff, 0.0)
        # both roots share the transmit variance A, hence the same effective
        # receiver noise A*sigma_z2/P_T; rank them under it
        n_eff = mixing_gain(model, roots[0]) * channel.sigma_z2 / channel.p_t
        alpha = _lower_dc_root(model, roots, n_eff)
        active = True
    beta = math.sqrt(channel.p_t / (s2 * mixing_gain(model, alpha)))
    policy = EncoderPolicy(alpha=alpha, beta=beta)
    kappa = beta * s2 * (1.0 + alpha * rho) / (channel.p_t + channel.sigma_z2)
    d_c, d_p, _power = evaluate_setting3(model, policy, channel)
    if active and d >= r * (1.0 - ENDPOINT_RTOL):
        d_p = s2 * r  # exact: Cov(Y, theta) = 0 at the max-privacy endpoint
        d_c = s2 * (1.0 - (1.0 - rho**2 / r) * channel.p_t / (channel.p_t + channel.sigma_z2))
    return EquilibriumSolution(
        policy=policy, kappa=kappa, d_c=d_c, d_p=d_p, constraint_active=active
    )


def xi_sign_check(model: SourceModel, lam: float, alpha: float) -> float:
    """The noise-suppression sign quantity (1+alpha*rho)^2 - lam*(rho+r*alpha)^2.

    Nonnegativity of this quantity at the frontier's own multiplier,
    xi(lam*(alpha), alpha) > 0 for every alpha in [-rho/r, 0], is what makes
    encoder noise useless on the frontier.  The rectangle lam in [0, 1/rho^2]
    that this function accepts misses the top ~6.4% of the frontier (for the
    model (1, 0.6, 1)), where lam* > 1/rho^2; there xi stays positive too,
    because (rho + r*alpha)^2 vanishes at the max-privacy endpoint and xi
    tends to (1 - rho^2/r)^2.  Measured along the swept frontiers of the
    acceptance tests its minimum is 0.43.
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
