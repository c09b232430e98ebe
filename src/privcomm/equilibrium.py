"""Closed-form privacy-constrained Stackelberg equilibria for three settings.

All three settings share one linear-plus-noise encoder family
Y = beta * (X + alpha*theta) + noise and one solve core for the active
privacy constraint, a quadratic in alpha:

    r*d*alpha^2 + 2*rho*d*alpha + (rho^2 - r + d - (r - d)*n_eff) = 0,

where d is the normalized privacy target D_P / sigma_x2 (or the setting's
effective target) and n_eff the normalized effective noise variance seen at
the decoder.  The core takes a sequence of test-channel noises and one of
targets: it works out the model's bounds and coefficients once, the free
floor and the noise's terms once per noise, then tests each target, in order:
a finite target, feasibility (at most dp_max * (1 + ENDPOINT_RTOL)), the
setting's free privacy floor, the max-privacy endpoint, the degenerate model
rho^2 = r without noise, and otherwise takes the root alpha_plus, the
constrained minimizer.  ``SourceModel`` admits no rho^2 above r, so the
quadratic always has a real root.  Near rho^2 = r rounding can defeat the
closed form, so a solution is refused with :class:`DegenerateModelError`
when its normalized target rounds to 0 or below, its encoder sends nothing or
its D_P misses an interior target by more than ``SOLVE_TOL``.  The public
solvers pass the core one target, and ``noise_for_rate``'s check one target
at one noise; the privacy sweeps pass it their whole grid, and the rate sweep
its whole noise grid.  Per target the core calls only
``math.isfinite``, ``math.sqrt`` and the list's ``append``, and per noise
the compression or channel floor function.

Settings, each with one public solver:
  simple       Y = X + alpha*theta (noiseless, unit gain)
  compression  Y = X + alpha*theta + N, N ~ N(0, sigma_n2) (forward test channel);
               ``compression_rate`` gives the rate of its encoder
  channel      Y = beta*(X + alpha*theta) + Z over a power-limited Gaussian channel

Each quantity has one formula.  The simple setting is compression at zero
noise, whose D_C and D_P the core computes with the arithmetic of
``second_order_dc_dp`` and ``mixing_gain``, written inline in the same order;
only the simple setting's exact max-privacy endpoint is its own.  The channel
computes its D_C and D_P in units of sigma_x2.  Every max-privacy endpoint
answers D_P = dp_max exactly, and a free answer's D_P is its setting's floor,
bit for bit.
"""

from __future__ import annotations

import math
from enum import Enum

from .model import Record, SourceModel

#: Relative tolerance for snapping privacy targets onto the endpoints of the
#: feasible range; endpoint targets (max/min privacy) are legitimate inputs and
#: the square root in the quadratic amplifies last-ulp noise there.
ENDPOINT_RTOL = 1e-12

#: Back-substitution residual tolerance: an interior solution's D_P meets its
#: target to SOLVE_TOL relative and to SOLVE_TOL * sigma_x2 at most, plus
#: ENDPOINT_RTOL relative.
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


_NO_NOISELESS_ENCODER = "no encoder without noise meets the privacy target {!r}"
_SENDS_NOTHING = "the encoder alpha={!r} sends nothing"


class EncoderPolicy(Record):
    """Linear-plus-noise encoder: transmit beta*(X + alpha*theta) + noise."""

    __slots__ = ("alpha", "beta", "noise_var")

    def __init__(self, alpha: float, beta: float = 1.0, noise_var: float = 0.0) -> None:
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha}")
        if not (0.0 < beta < math.inf):
            raise ValueError(f"beta must be positive and finite, got {beta}")
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


def second_order_dc_dp(model: SourceModel, alpha: float, n_eff: float):
    """Distortion and privacy MMSE for Y = X + alpha*theta + noise.

    ``n_eff`` is the noise variance normalized by sigma_x2.  The brute-force
    oracle's search evaluates encoders with it, and the solve core and the
    multiplier scan's costs write the same arithmetic inline, which tests pin
    to it bit for bit.  A NaN output variance passes the guard.
    """
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    den = 1.0 + 2.0 * alpha * rho + alpha * alpha * r + n_eff  # mixing_gain + n_eff, inline
    if den <= 0.0:
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


def compression_privacy_floor(model: SourceModel, sigma_n2: float) -> float:
    """Privacy MMSE delivered at alpha = 0 by the test-channel noise alone.

    It is the D_P of ``second_order_dc_dp`` at alpha = 0, in the same arithmetic.
    A sigma_n2 / sigma_x2 or r * sigma_n2 / sigma_x2 past the float range
    makes it inf or NaN, and raises :class:`SolveError`.
    """
    if not math.isfinite(sigma_n2):
        raise SolveError(f"sigma_n2 must be finite, got {sigma_n2}")
    if sigma_n2 <= 0.0:
        raise SolveError(f"sigma_n2 must be positive, got {sigma_n2}")
    n = sigma_n2 / model.sigma_x2
    floor = model.sigma_x2 * (model.r - model.rho**2 + model.r * n) / (1.0 + n)
    if not math.isfinite(floor):  # n = inf makes it NaN, r*n = inf makes it inf
        raise SolveError(f"the compression floor overflows a float at "
                         f"sigma_n2={sigma_n2!r}, sigma_x2={model.sigma_x2!r}")
    return floor


def channel_privacy_floor(model: SourceModel, channel: ChannelSpec) -> float:
    """Privacy MMSE at alpha = 0 under full-power transmission of X."""
    gamma = channel.p_t / (channel.p_t + channel.sigma_z2)
    return model.sigma_x2 * (model.r - model.rho**2 * gamma)


def _solve(model: SourceModel, targets, noises=(None,),
           channel: ChannelSpec | None = None) -> list:
    """One row (alpha, beta, kappa, d_c, d_p, active) per noise and target, as plain floats.

    The rows run over ``noises`` in the outer loop and ``targets`` in the
    inner one.  A noise is the compression setting's test-channel noise
    sigma_n2; a noise of None is the channel when ``channel`` is given, and
    the simple setting otherwise.  The model's bounds and quadratic
    coefficients are worked out once per call, and the free floor and the
    noise's terms once per noise; each target then makes every check of the
    module docstring, in its order, and the first row refused raises.  A
    list, not a generator: a single solve pays for no generator frame.

    The floor is the setting's free privacy level in units of ``floor_unit``
    (sigma_x2 for the simple setting's normalized floor, the target's own
    units otherwise).  The active constraint is the quadratic in ``n_eff`` at
    the normalized target d, or at the channel's effective target d'.  Its
    roots are -rho/r +- delta with delta^2 = (r - d)*(r - rho^2 + r*n_eff) /
    (r^2 * d); the root alpha_plus is the constrained minimizer, because
    alpha_minus lies below -rho/r.
    """
    rho, r, s2 = model.rho, model.r, model.sigma_x2
    gap = r - rho**2
    degenerate = gap <= 0.0  # model.degenerate, without a property call per solve
    if channel is not None:
        p_t, sigma_z2 = channel.p_t, channel.sigma_z2
        p_y = p_t + sigma_z2  # Var(Y): the power P_T plus the channel noise
        w = p_t / p_y  # the share of Var(Y) that the encoder sends
    dp_max = s2 * r
    # a target up to ENDPOINT_RTOL above dp_max is snapped onto the endpoint
    dp_snap, d_end = dp_max * (1.0 + ENDPOINT_RTOL), r * (1.0 - ENDPOINT_RTOL)
    # transmit the prediction error of X from theta; at r = 0 (so rho = 0)
    # every feasible target is free and this is never read
    alpha_end = -rho / r if r > 0.0 else 0.0
    r2 = r * r
    rows = []  # helpers and max/min are written inline below, the builtins bound once
    append, isfinite, sqrt, inf = rows.append, math.isfinite, math.sqrt, math.inf
    for sigma_n2 in noises:
        n_eff = 0.0
        if channel is not None:
            floor, floor_unit = channel_privacy_floor(model, channel), 1.0
        elif sigma_n2 is not None:
            floor, floor_unit = compression_privacy_floor(model, sigma_n2), 1.0
            n_eff = sigma_n2 / s2
        else:
            floor, floor_unit = gap, s2
        free_max, quad = floor * (1.0 + ENDPOINT_RTOL), gap + r * n_eff  # r - rho^2 + r*n_eff
        for target in targets:
            if not isfinite(target):
                raise SolveError(f"privacy target must be finite, got {target}")
            if target > dp_snap:
                raise InfeasiblePrivacyTarget(f"d_p_target={target} exceeds dp_max={dp_max}")
            d = target / s2
            if rho == 0.0 or target / floor_unit <= free_max:
                alpha, branch = 0.0, FREE
            elif d >= d_end:
                alpha, branch = alpha_end, ENDPOINT
            else:
                if degenerate and n_eff == 0.0:
                    raise DegenerateModelError(model, _NO_NOISELESS_ENCODER.format(target))
                if channel is not None:
                    d = d - (r - d) * sigma_z2 / p_t  # the effective target d'
                if d <= 0.0:  # only r - rho^2 of 0 or a few ulps lets d round this far
                    raise DegenerateModelError(
                        model, f"the privacy target {target!r} at sigma_x2={s2!r} "
                        f"rounds to a normalized target {d!r}")
                scale = r2 * d
                if not scale > 0.0:
                    raise SolveError(f"r^2 * d underflows a float at r={r!r}, d={d!r}")
                if scale == inf:
                    raise SolveError(f"r^2 * d overflows a float at r={r!r}, d={d!r}")
                # alpha is finite on every branch, so EncoderPolicy's alpha test is not
                # repeated: 0, -rho/r (r > 0 once rho > 0), or this root, whose disc
                # (r - d)*quad/scale lies in [0, inf] because d < r, SourceModel keeps
                # quad = r - rho^2 + r*n_eff >= 0, and scale is finite; the clip below
                # takes alpha = inf to 0
                alpha = alpha_end + sqrt((r - d) * quad / scale)
                if alpha > 0.0:  # clip last-ulp drift above alpha = 0: min(alpha, 0.0)
                    alpha = 0.0
                branch = INTERIOR
            if channel is not None:
                if branch is not FREE and degenerate:  # max privacy: X - (rho/r)*theta = 0
                    raise DegenerateModelError(model, _NO_NOISELESS_ENCODER.format(target))
                a = 1.0 + 2.0 * alpha * rho + alpha * alpha * r  # mixing_gain, inline
                if not a > 0.0:
                    raise DegenerateModelError(model, _SENDS_NOTHING.format(alpha))
                var_u = s2 * a  # E{(X + alpha*theta)^2}
                beta = sqrt(p_t / var_u) if var_u > 0.0 else inf
                if beta == inf:
                    raise SolveError(
                        f"the transmit gain overflows a float at sigma_x2={s2!r}, p_t={p_t!r}"
                    )
                if not 0.0 < beta < inf:  # EncoderPolicy's test: p_t/var_u can underflow
                    raise ValueError(f"beta must be positive and finite, got {beta}")
                u = 1.0 + alpha * rho  # Cov(X + alpha*theta, X) / sigma_x2
                kappa = beta * s2 * u / p_y
                if branch is ENDPOINT:  # D_P is dp_max, set below
                    d_c = s2 * (1.0 - (1.0 - rho**2 / r) * p_t / p_y)
                else:
                    # the MMSE of X and of theta from Y, in units of sigma_x2
                    q = w / a
                    d_c = s2 * (1.0 - q * u ** 2)
                    d_p = s2 * (r - q * (rho + r * alpha) ** 2)
            elif branch is ENDPOINT and sigma_n2 is None:
                # exact: Y = X - (rho/r)*theta carries nothing of theta
                beta, kappa, d_c = 1.0, 1.0, s2 * rho**2 / r
            else:  # compression, and the simple setting as compression at n_eff = 0
                # second_order_dc_dp and mixing_gain, inline: var is its den, quad its
                # D_P numerator, and var > 0 leaves its den <= 0 refusal nothing to catch
                var = 1.0 + 2.0 * alpha * rho + alpha * alpha * r + n_eff
                if not var > 0.0:
                    raise DegenerateModelError(model, _SENDS_NOTHING.format(alpha))
                # kappa's numerator 1 + alpha*rho is (r - rho^2)/r at alpha = -rho/r, exactly
                u = gap / r if branch is ENDPOINT else 1.0 + alpha * rho
                beta, kappa = 1.0, u / var
                d_c, d_p = s2 * (alpha * alpha * gap + n_eff) / var, s2 * quad / var
            if branch is INTERIOR:  # refuse a D_P that rounding left off its target
                # min(s2, target) and abs as comparisons, which a NaN D_P fails
                tol = SOLVE_TOL * (target if target < s2 else s2) + ENDPOINT_RTOL * target
                if not -tol <= d_p - target <= tol:
                    raise DegenerateModelError(
                        model, f"rounding misses the privacy target {target!r}: d_p = {d_p!r}"
                    )
            elif branch is ENDPOINT:
                # exact in every setting, with or without noise: at alpha = -rho/r,
                # Cov(Y, theta) is proportional to rho + r*alpha = 0
                d_p = dp_max
            append((alpha, beta, kappa, d_c, d_p, branch is not FREE))
    return rows


def _solution(alpha, beta, kappa, d_c, d_p, active, noise_var=0.0) -> EquilibriumSolution:
    """The records of one row of ``_solve``, which the public solvers return.

    The sweeps read the rows' plain floats and build no records.
    """
    return EquilibriumSolution(EncoderPolicy(alpha, beta, noise_var), kappa, d_c, d_p, active)


def solve_setting1(model: SourceModel, d_p_target: float) -> EquilibriumSolution:
    """Equilibrium for the noiseless setting: Y = X + alpha*theta, Xhat = kappa*Y.

    Targets at or below dp_min are satisfied for free (alpha = 0, zero
    distortion, constraint inactive); targets above dp_max are infeasible.
    Encoder noise is never used: it is strictly suboptimal on the frontier.
    """
    return _solution(*_solve(model, (d_p_target,))[0])


def solve_setting2(
    model: SourceModel, d_p_target: float, sigma_n2: float
) -> EquilibriumSolution:
    """Equilibrium for compression at test-channel noise sigma_n2.

    Compression inherently leaks less about theta, so the constraint is
    inactive (alpha = 0) whenever the target sits at or below the floor
    sigma_x2 * (r - rho^2 + r*n) / (1 + n), with n = sigma_n2 / sigma_x2.
    """
    return _solution(*_solve(model, (d_p_target,), (sigma_n2,))[0], sigma_n2)


def solve_setting3(
    model: SourceModel, d_p_target: float, channel: ChannelSpec
) -> EquilibriumSolution:
    """Equilibrium over the power-limited Gaussian channel.

    The power constraint is always active: beta^2 = P_T / (sigma_x2 * A).
    The active privacy constraint reduces to the noiseless quadratic through
    the effective target d' = d - (r - d) * sigma_z2 / P_T (normalized).
    The decoder gain is the MMSE coefficient beta*sigma_x2*(1+alpha*rho) /
    (P_T + sigma_z2).  With A = Var(X + alpha*theta) / sigma_x2 and
    q = P_T / ((P_T + sigma_z2) * A), D_C = sigma_x2*(1 - q*(1+alpha*rho)^2)
    and D_P = sigma_x2*(r - q*(rho+r*alpha)^2).  On a degenerate model
    (rho^2 = r) every encoder without noise either leaks at the free floor or
    sends nothing, so an active constraint raises
    :class:`DegenerateModelError`.  A transmit gain beyond the float range
    (at a subnormal sigma_x2) raises :class:`SolveError`.
    """
    return _solution(*_solve(model, (d_p_target,), channel=channel)[0])
