"""Brute-force verification of the closed-form equilibria, without numpy.

Independence is layered: (a) a bisection onto the constraint boundary over
the linear encoders, at the setting's own encoder noise (none in the simple
and channel settings, the held sigma_N^2 in compression), confirms that the
closed-form solutions are true constrained minimizers in that family; and
(b) in the simple and channel settings, a converse bound that holds for
every encoder, nonlinear and randomized ones included, confirms that no
encoder does better, so that no encoder noise helps either (see
``converse_dc``).  Nothing here calls ``covariance_evaluate``, a
from-first-principles covariance evaluator: it is the reference that the
tests and the benchmark check the printed formulas against.  A target is
feasible by the solvers' own rule, at most dp_max * (1 + ENDPOINT_RTOL).
The search and the multiplier scan work on the canonical model (1, c, 1)
that every model rescales to, so one search box and one tolerance serve
every scale (see ``_canonical``).
"""

from __future__ import annotations

import math

from .equilibrium import (
    ENDPOINT_RTOL,
    ChannelSpec,
    DegenerateModelError,
    EquilibriumSolution,
    InfeasiblePrivacyTarget,
    Setting,
    mixing_gain,
    second_order_dc_dp,
    solve_setting1,
    solve_setting2,
    solve_setting3,
)
from .model import Record, SourceModel

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Largest |D_C gap| to the oracle optimum and to the converse bound that
#: ``verify_equilibrium`` passes, in units of sigma_x2.
VERIFY_TOL = 1e-5

#: Bracket width at which the refinement's golden-section and bisection
#: passes stop, in canonical units; no bracket is wider than 4.
REFINE_TOL = 1e-7

#: Largest encoder noise that the multiplier scan searches, in units of sigma_x2.
NOISE_MAX = 4.0


def _canonical(model: SourceModel):
    """(canon, alpha_lo, back): the model as a rescaling of (1, c, 1), c = rho/sqrt(r).

    X' = X/sigma_x and theta' = theta/(sigma_x*sqrt(r)) give alpha = alpha'/sqrt(r),
    sigma_N^2 = sigma_x2*n', D_C = sigma_x2*D_C', D_P = sigma_x2*r*D_P' and
    lam' = lam*r, which ``back`` applies; a channel enters only through
    sigma_z2/P_T.  c is clipped to 1 against rounding, and sqrt(r) taken as 1
    when r = 0.  ``alpha_lo`` is the lower end of the multiplier scan's alpha
    range [alpha_lo, 0.5], which spans twice the frontier's [-c, 0], padded.
    """
    s2, r = model.sigma_x2, model.r
    sqrt_r = math.sqrt(r) or 1.0
    canon = SourceModel(1.0, min(model.rho / sqrt_r, 1.0), 1.0)

    def back(alpha, noise_var, d_c, d_p):
        return alpha / sqrt_r, s2 * noise_var, s2 * d_c, s2 * (r * d_p)

    return canon, -2.0 * canon.rho - 0.5, back


class OracleOptimum(Record):
    __slots__ = ("alpha", "noise_var", "d_c", "d_p")

    def __init__(self, alpha: float, noise_var: float, d_c: float, d_p: float) -> None:
        set_alpha, set_noise_var, set_d_c, set_d_p = self._setters
        set_alpha(self, alpha)
        set_noise_var(self, noise_var)
        set_d_c(self, d_c)
        set_d_p(self, d_p)


class VerificationReport(Record):
    __slots__ = ("oracle_optimum", "closed_form", "dc_gap", "passed")

    def __init__(self, oracle_optimum: OracleOptimum, closed_form: EquilibriumSolution,
                 dc_gap: float, passed: bool) -> None:
        set_oracle_optimum, set_closed_form, set_dc_gap, set_passed = self._setters
        set_oracle_optimum(self, oracle_optimum)
        set_closed_form(self, closed_form)
        set_dc_gap(self, dc_gap)
        set_passed(self, passed)


class ScanPoint(Record):
    __slots__ = ("lam", "alpha", "noise_var", "d_c", "d_p")

    def __init__(self, lam: float, alpha: float, noise_var: float, d_c: float,
                 d_p: float) -> None:
        set_lam, set_alpha, set_noise_var, set_d_c, set_d_p = self._setters
        set_lam(self, lam)
        set_alpha(self, alpha)
        set_noise_var(self, noise_var)
        set_d_c(self, d_c)
        set_d_p(self, d_p)


def covariance_evaluate(
    model: SourceModel,
    alpha: float,
    noise_var: float,
    beta: float = 1.0,
    channel_noise: float = 0.0,
):
    """(d_c, d_p) from the explicit covariance of (X, theta, Y) via Schur complements.

    Kept deliberately formula-free: the covariance of (X, theta, Y) is
    assembled from bilinearity of covariance and conditioned on Y.  A policy
    that sends nothing (Var(Y) = 0), or a second moment beyond the float
    range, raises ``ValueError``.
    """
    s2, rho, r = model.sigma_x2, model.rho, model.r
    cov_x_th = s2 * rho
    var_th = s2 * r
    # Y = beta*(X + alpha*theta + S) + Z
    cov_x_y = beta * (s2 + alpha * cov_x_th)
    cov_th_y = beta * (cov_x_th + alpha * var_th)
    try:
        var_y = (
            beta**2 * (s2 + 2.0 * alpha * cov_x_th + alpha**2 * var_th + noise_var)
            + channel_noise
        )
        return s2 - cov_x_y**2 / var_y, var_th - cov_th_y**2 / var_y
    except ZeroDivisionError:
        raise ValueError(f"the policy sends nothing (Var(Y) = 0) at alpha={alpha!r}") from None
    except OverflowError:
        raise ValueError(f"a second moment of Y overflows a float at sigma_x2={s2!r}, "
                         f"alpha={alpha!r}, beta={beta!r}") from None


def _evaluator(canon, setting, channel, noise):
    """alpha -> canonical (d_c, d_p) of one setting at encoder noise ``noise``.

    For the channel setting the transmit gain is pinned by the power
    constraint, so channel noise referred to the source scale depends on the
    transmit variance.
    """
    if setting is not Setting.CHANNEL:
        return lambda alpha: second_order_dc_dp(canon, alpha, noise)
    z, p_t = channel.sigma_z2, channel.p_t
    return lambda alpha: second_order_dc_dp(
        canon, alpha, noise + z * (mixing_gain(canon, alpha) + noise) / p_t)


#: Why a search from zero noise fails on a degenerate model: Y = 0 there.
_SENDS_NOTHING = "{} holds alpha = -rho/r without noise, which sends nothing"

#: Why the scan refuses a multiplier, with the multiplier and the cause.
_TOO_LARGE = "lam={} is too large to resolve its frontier point in floating point: {}"


def _golden_min(f, lo: float, hi: float) -> float:
    """Golden-section minimizer of a unimodal scalar function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > REFINE_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2.0


#: The noise pass's answer when every comparison keeps the left part (a cost
#: rising in the noise) or the right part (a falling one), by its own arithmetic.
_NOISE_RISING = _golden_min(float, 0.0, NOISE_MAX)
_NOISE_FALLING = _golden_min(lambda s: -s, 0.0, NOISE_MAX)

#: Smallest |K|/(1 + lam') at which the scan takes the noise pass's answer from the
#: sign of K, its cost's slope numerator, without evaluating it (``lagrangian_scan``).
_SLOPE_TOL = 1e-4


def _boundary_alpha(dc_dp, c, d_p_target):
    """The feasible canonical alpha with minimal distortion.

    D_P decreases monotonically from dp_max at alpha = -c to the noise floor
    at alpha = 0, while D_C decreases toward alpha = 0; the constrained
    minimizer is therefore the boundary root of D_P = target, found by
    bisection, or alpha = 0 when the noise alone satisfies the target, or
    alpha = -c when even max privacy misses it, which after ``grid_search``'s
    feasibility test only a target within rounding of dp_max does.  The
    bisection stops at ``REFINE_TOL``, or at adjacent floats where
    (1 - c)*(1 + c) <= 1e-4: D_C there moves by up to ~0.65/sqrt(1 - c^2)
    per unit of alpha, more than ``VERIFY_TOL`` across a 1e-7 bracket.
    """
    if dc_dp(0.0)[1] >= d_p_target:
        return 0.0
    lo, hi = -c, 0.0
    if dc_dp(lo)[1] < d_p_target:
        return lo
    width = REFINE_TOL if (1.0 - c) * (1.0 + c) > 1e-4 else 0.0
    while hi - lo > width and lo < (mid := 0.5 * (lo + hi)) < hi:
        if dc_dp(mid)[1] >= d_p_target:
            lo = mid
        else:
            hi = mid
    return lo  # feasible side of the boundary


def grid_search(
    model: SourceModel,
    setting: Setting,
    channel: ChannelSpec | None,
    d_p_target: float,
    sigma_n2: float | None = None,
) -> OracleOptimum:
    """Constrained brute-force minimizer of D_C subject to D_P >= d_p_target.

    A target above dp_max * (1 + ENDPOINT_RTOL), the solvers' bound, or NaN
    raises ``InfeasiblePrivacyTarget``.  The search is one bisection onto the
    constraint boundary in alpha, on the canonical model, at the setting's
    own encoder noise: the held sigma_n2 in compression and none in the
    simple and channel settings, where ``verify_equilibrium``'s converse
    bound covers every noisy encoder.
    """
    if setting is Setting.CHANNEL:
        if channel is None:
            raise ValueError("channel setting requires a ChannelSpec")
        # A <= 1 on the searched [-c, 0] without encoder noise bounds the channel's noise
        if not math.isfinite(channel.sigma_z2 / channel.p_t):
            raise ValueError(f"the oracle cannot resolve a channel with sigma_z2/P_T = "
                             f"{channel.sigma_z2 / channel.p_t!r}")
    canon, _, back = _canonical(model)
    if setting is Setting.COMPRESSION:
        noise = math.nan if sigma_n2 is None else sigma_n2 / model.sigma_x2
        if not 0.0 < noise < math.inf:
            raise ValueError(f"compression search requires 0 < sigma_n2/sigma_x2 < inf, "
                             f"got sigma_n2={sigma_n2!r}")
    elif canon.degenerate:
        raise DegenerateModelError(model, _SENDS_NOTHING.format("the oracle's search"))
    else:
        sigma_n2 = noise = 0.0
    dp_max = model.sigma_x2 * model.r
    if not d_p_target <= dp_max * (1.0 + ENDPOINT_RTOL):  # NaN fails too
        raise InfeasiblePrivacyTarget(f"target {d_p_target} exceeds dp_max={dp_max}")
    # with r = 0, D_P = 0 for every encoder, and only a target <= 0 is left
    target = d_p_target / model.sigma_x2 / model.r if model.r else -math.inf
    dc_dp = _evaluator(canon, setting, channel, noise)
    alpha = _boundary_alpha(dc_dp, canon.rho, target)
    alpha, _, d_c, d_p = back(alpha, noise, *dc_dp(alpha))
    return OracleOptimum(alpha, sigma_n2, d_c, d_p)  # the noise is held


def converse_dc(model: SourceModel, d_p: float, w: float) -> float:
    """Least D_C / sigma_x2 of any encoder whose D_P is at least d_p <= dp_max.

    ``w`` is the share of Var(Y) that the encoder sends over the channel,
    P_T / (P_T + sigma_z2), and 1 in the simple setting.  The bound holds for
    nonlinear and randomized encoders too; ``tests/test_converse.py`` derives
    it.  In units of sigma_x2, with d0 = (r - rho^2)*(1 - w) and d the target
    d_p / sigma_x2 raised to r - rho^2*w, below which the least D_C is 1 - w,
    it is the least x on which f(x) = sqrt(x*d - d0) + sqrt((1 - x)*(r - d))
    >= rho.  f is concave and peaks at x = d/r + (r - d)*d0/(r*d), so the
    least x is bisected below the peak, to adjacent floats.  With rho = 0
    the bound is 1 - w at every target.
    """
    rho, r = model.rho, model.r
    if rho == 0.0:
        return 1.0 - w
    d = min(max(d_p / model.sigma_x2, r - rho * rho * w), r)
    rd, d0 = r - d, (r - rho * rho) * (1.0 - w)
    lo, hi = (d0 / d, d / r + rd * d0 / (r * d)) if d0 else (0.0, d / r)
    sqrt = math.sqrt
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if sqrt(max(mid * d - d0, 0.0)) + sqrt((1.0 - mid) * rd) >= rho:
            hi = mid
        else:
            lo = mid
    return hi


def verify_equilibrium(
    model: SourceModel,
    setting: Setting,
    channel: ChannelSpec | None,
    d_p_target: float,
    sigma_n2: float | None = None,
) -> VerificationReport:
    """Compare the closed-form equilibrium against the brute-force optimum.

    It passes when the closed form's D_C lies within ``VERIFY_TOL`` * sigma_x2
    of the oracle's.  In the simple and channel settings the closed form's D_C
    must also lie that close to sigma_x2 * ``converse_dc`` at max(d_p_target,
    its D_P), the least D_C of any encoder, noisy and nonlinear ones
    included.  Compression at a fixed noise limits no rate, so the bound does
    not cover it.
    """
    if setting is Setting.SIMPLE:
        closed = solve_setting1(model, d_p_target)
    elif setting is Setting.COMPRESSION:
        if sigma_n2 is None:
            raise ValueError("compression verification requires sigma_n2")
        closed = solve_setting2(model, d_p_target, sigma_n2)
    else:
        if channel is None:
            raise ValueError("channel setting requires a ChannelSpec")
        closed = solve_setting3(model, d_p_target, channel)
    optimum = grid_search(model, setting, channel, d_p_target, sigma_n2)
    dc_gap = optimum.d_c - closed.d_c
    tol = VERIFY_TOL * model.sigma_x2
    passed = abs(dc_gap) <= tol
    if setting is not Setting.COMPRESSION:
        w = 1.0 if setting is Setting.SIMPLE else channel.p_t / (channel.p_t + channel.sigma_z2)
        bound = model.sigma_x2 * converse_dc(model, max(d_p_target, closed.d_p), w)
        passed = passed and abs(closed.d_c - bound) <= tol
    return VerificationReport(
        oracle_optimum=optimum,
        closed_form=closed,
        dc_gap=dc_gap,
        passed=passed,
    )


def lagrangian_scan(model: SourceModel, lambda_grid) -> list[ScanPoint]:
    """Trace the frontier by minimizing D_C - lam*D_P over (alpha, noise).

    Every finite lam >= 0 is the multiplier of one frontier point: lam = 0
    gives the free floor, and the point runs to max privacy as lam grows.
    For each multiplier, alternating golden-section passes over alpha and
    the noise (at most four rounds) minimize the cost on the canonical
    model, at lam' = lam*r, starting from the leftover noise
    ``_NOISE_RISING``, the noise pass's answer on a cost that rises with the
    noise.  Any start will do: at fixed alpha the cost
    (g*(alpha^2 - lam') + (1 - lam')*n)/(A + n), with g = 1 - c^2 and
    A = 1 + 2*alpha*c + alpha^2, is monotone in the noise n, so the noise
    pass returns the same value from any start.  A pass depends only on
    where it starts, so the rounds stop at their fixed point: the first
    round whose noise pass returns the noise it began from.  This start is
    usually that point, because at zero noise the cost rises with the noise
    at the frontier's alpha (``tests/test_scan_identities.py``).
    The sign of the slope also fixes the pass's answer, so it is read off
    instead of evaluated where rounding cannot turn a comparison.  With
    mix = A and dc_num = g*alpha^2, the slope is K/(mix + n), where
    K = (1 - lam')*mix - (dc_num - lam'*g), and two costs differ by
    f(d) - f(c) = K*(d - c)/((mix + c)*(mix + d)).  As mix - dc_num =
    (1 + alpha*c)^2 and mix - g = (alpha + c)^2, both of the cost's ratios
    are at most 1, so an evaluation errs by at most 5u*(1 + lam'), u = 2^-53,
    and a comparison of two by 10u*(1 + lam').  A pass that keeps the left
    part at every comparison, or the right part, visits one fixed sequence
    of points, with d - c >= 2.36e-8; with mix <= 2.25 on the alpha range and
    n <= 4, a rising cost keeps every left part once K > 2.4e-7*(1 + lam'),
    and a falling one every right part once K < -1.8e-6*(1 + lam').  So where
    |K| > ``_SLOPE_TOL``*(1 + lam'), 54x the larger bound, the round takes
    ``_NOISE_RISING`` or ``_NOISE_FALLING``, the pass's own floats; where |K|
    is within it, is not finite (lam' near the float limit) or mix <= 0, it
    runs the pass, so every flat-cost answer and every refusal is the pass's.
    Where g <= ``_NOISE_RISING``, the leftover noise outweighs every D_C on
    the frontier, which spans g, and an alpha pass held at it runs to the
    end of the range; there the scan starts at zero noise, and every noise
    answer equal to ``_NOISE_RISING``, taken from the slope or returned by a
    pass, becomes 0.0.
    The passes' costs write ``second_order_dc_dp``'s arithmetic inline, in
    its order, with what a pass holds fixed worked out once per pass, so an
    evaluation is one Python frame; the scan calls it for each point it
    returns, as ``grid_search`` does through ``_evaluator``.
    The optimum must sit at zero encoder noise; a noisy minimizer, or a
    lam*r beyond the float range, means that lam is too large for floating
    point to resolve the frontier point, and raises ``ValueError``.
    """
    canon, lo_a, back = _canonical(model)
    if canon.degenerate:
        raise DegenerateModelError(model, _SENDS_NOTHING.format("the scan's alpha range"))
    rho, r, s2 = canon.rho, canon.r, canon.sigma_x2
    gap = r - rho**2
    # leftover noise above g would outweigh every D_C on the frontier
    rising = _NOISE_RISING if gap > _NOISE_RISING else 0.0

    out = []
    for lam in lambda_grid:
        lam = float(lam)
        if not 0.0 <= lam < math.inf:  # NaN fails too
            raise ValueError(f"lam={lam} outside [0, inf)")
        lam_c = lam * model.r
        if lam_c == math.inf:
            raise ValueError(_TOO_LARGE.format(lam, "lam*r overflows"))

        # the cost's slope in the noise has one sign at fixed alpha: any start will do
        noise, slope_tol = rising, _SLOPE_TOL * (1.0 + lam_c)
        for _ in range(4):
            start = noise
            dp_num = s2 * (gap + r * noise)

            def alpha_cost(a):
                den = 1.0 + 2.0 * a * rho + a * a * r + noise
                if den <= 0.0:
                    raise RuntimeError("nonpositive output variance; invalid policy")
                return s2 * (a * a * gap + noise) / den - lam_c * (dp_num / den)

            alpha = _golden_min(alpha_cost, lo_a, 0.5)
            mix = 1.0 + 2.0 * alpha * rho + alpha * alpha * r
            dc_num = alpha * alpha * gap
            slope = (1.0 - lam_c) * mix - (dc_num - lam_c * gap)  # s2 = r = 1
            if mix > 0.0 and slope_tol < abs(slope) < math.inf:
                noise = _NOISE_RISING if slope > 0.0 else _NOISE_FALLING
            else:
                def noise_cost(s):
                    den = mix + s
                    if den <= 0.0:
                        raise RuntimeError("nonpositive output variance; invalid policy")
                    return s2 * (dc_num + s) / den - lam_c * (s2 * (gap + r * s) / den)

                noise = _golden_min(noise_cost, 0.0, NOISE_MAX)
            if noise == _NOISE_RISING:
                noise = rising
            if noise == start:
                break
        alpha, noise_var, d_c, d_p = back(alpha, noise, *second_order_dc_dp(canon, alpha, noise))
        if noise > 1e-4:
            raise ValueError(_TOO_LARGE.format(
                lam, f"the scan's minimizer has encoder noise {noise_var}"))
        out.append(ScanPoint(lam=lam, alpha=alpha, noise_var=noise_var, d_c=d_c, d_p=d_p))
    return out
