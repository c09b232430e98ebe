"""Seeded Monte Carlo verification of encoder/decoder policies.

Samples jointly Gaussian (X, theta), pushes them through a policy's signal
chain and estimates distortion, privacy MMSE, transmit power and the Gaussian
conditional entropy, with standard errors.  Everything is deterministic given
the seed (numpy PCG64 stream).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .equilibrium import ChannelSpec, EncoderPolicy, Setting, mixing_gain
from .model import SourceModel, gaussian_conditional_entropy

#: Identifier of the normal-variate stream recorded in results.
GENERATOR = "numpy-pcg64"


@dataclass(frozen=True)
class SimConfig:
    samples: int
    seed: int
    setting: Setting

    def __post_init__(self) -> None:
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples}")


@dataclass(frozen=True)
class SimResult:
    d_c_hat: float
    d_p_hat: float
    d_p_hat_regression: float
    power_hat: float | None
    entropy_hat: float
    stderr_dc: float
    stderr_dp: float
    samples: int
    seed: int
    generator: str = GENERATOR


@dataclass(frozen=True)
class ProbeReport:
    """Empirical distortion across a grid of decoder gains."""

    gains: tuple[float, ...]
    d_c_values: tuple[float, ...]
    argmin_gain: float
    reference_gain: float | None
    gap_to_reference: float | None


def sample_joint(model: SourceModel, count: int, seed: int):
    """Draw paired (x, theta) samples by Cholesky factorization of the 2x2 covariance."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2, count))
    sigma_x = math.sqrt(model.sigma_x2)
    x = sigma_x * z[0]
    theta = sigma_x * (model.rho * z[0] + math.sqrt(max(model.r - model.rho**2, 0.0)) * z[1])
    return x, theta


def _signal_chain(
    model: SourceModel,
    policy: EncoderPolicy,
    channel: ChannelSpec | None,
    config: SimConfig,
):
    """Return (x, theta, y, u) arrays for the configured setting."""
    rng = np.random.default_rng(config.seed)
    z = rng.standard_normal((2, config.samples))
    sigma_x = math.sqrt(model.sigma_x2)
    x = sigma_x * z[0]
    theta = sigma_x * (model.rho * z[0] + math.sqrt(max(model.r - model.rho**2, 0.0)) * z[1])
    w = x + policy.alpha * theta
    if policy.noise_var > 0.0:
        w = w + math.sqrt(policy.noise_var) * rng.standard_normal(config.samples)
    if config.setting is Setting.CHANNEL:
        if channel is None:
            raise ValueError("channel setting requires a ChannelSpec")
        u = policy.beta * w
        y = u + math.sqrt(channel.sigma_z2) * rng.standard_normal(config.samples)
    else:
        if policy.beta != 1.0:
            raise ValueError("settings 1/2 use a unit transmit gain")
        u = w
        y = w
    return x, theta, y, u


def _analytic_theta_coefficient(
    model: SourceModel, policy: EncoderPolicy, channel: ChannelSpec | None
) -> float:
    """MMSE coefficient Cov(theta, Y) / Var(Y) from the model's second moments."""
    s2 = model.sigma_x2
    cov = policy.beta * s2 * (model.rho + model.r * policy.alpha)
    var_y = policy.beta**2 * (s2 * mixing_gain(model, policy.alpha) + policy.noise_var)
    if channel is not None:
        var_y += channel.sigma_z2
    if not var_y > 0.0:
        raise ValueError("the policy sends nothing (Var(Y) = 0); privacy MMSE undefined")
    return cov / var_y


def simulate_policy(
    model: SourceModel,
    policy: EncoderPolicy,
    channel: ChannelSpec | None,
    decoder_gain: float,
    config: SimConfig,
) -> SimResult:
    """Estimate distortion / privacy / power for a policy and decoder gain.

    The privacy MMSE is estimated twice: through the analytic conditional-mean
    coefficient, and through on-sample least squares of theta on y; both are
    reported so statistical and modelling errors can be told apart.
    """
    x, theta, y, u = _signal_chain(model, policy, channel, config)
    n = config.samples

    err_c = (x - decoder_gain * y) ** 2
    d_c_hat = float(np.mean(err_c))
    stderr_dc = float(np.std(err_c, ddof=1) / math.sqrt(n))

    c = _analytic_theta_coefficient(model, policy, channel)
    err_p = (theta - c * y) ** 2
    d_p_hat = float(np.mean(err_p))
    stderr_dp = float(np.std(err_p, ddof=1) / math.sqrt(n))

    c_hat = float(np.dot(theta, y) / np.dot(y, y))
    d_p_reg = float(np.mean((theta - c_hat * y) ** 2))

    power_hat = float(np.mean(u**2)) if config.setting is Setting.CHANNEL else None
    return SimResult(
        d_c_hat=d_c_hat,
        d_p_hat=d_p_hat,
        d_p_hat_regression=d_p_reg,
        power_hat=power_hat,
        entropy_hat=gaussian_conditional_entropy(d_p_hat),
        stderr_dc=stderr_dc,
        stderr_dp=stderr_dp,
        samples=n,
        seed=config.seed,
    )


def decoder_optimality_probe(
    model: SourceModel,
    policy: EncoderPolicy,
    channel: ChannelSpec | None,
    config: SimConfig,
    gain_grid,
    reference_gain: float | None = None,
) -> ProbeReport:
    """Locate the empirical distortion-minimizing decoder gain over a grid.

    All gains are evaluated on the same sample draw, so the comparison is
    exact in the empirical second moments.
    """
    x, _, y, _ = _signal_chain(model, policy, channel, config)
    mxx = float(np.mean(x * x))
    mxy = float(np.mean(x * y))
    myy = float(np.mean(y * y))
    gains = [float(g) for g in gain_grid]
    d_c = [mxx - 2.0 * g * mxy + g * g * myy for g in gains]
    best = int(np.argmin(d_c))
    gap = None if reference_gain is None else abs(gains[best] - reference_gain)
    return ProbeReport(
        gains=tuple(gains),
        d_c_values=tuple(d_c),
        argmin_gain=gains[best],
        reference_gain=reference_gain,
        gap_to_reference=gap,
    )
