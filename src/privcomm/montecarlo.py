"""Seeded Monte Carlo verification of encoder/decoder policies.

Samples jointly Gaussian (X, theta), pushes them through a policy's signal
chain and estimates distortion, privacy MMSE, transmit power and the Gaussian
conditional entropy, with standard errors.  Everything is deterministic given
the seed (numpy PCG64 stream).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .equilibrium import ChannelSpec, EncoderPolicy, Setting, mixing_gain
from .model import Record, SourceModel, gaussian_conditional_entropy, require_memory

#: Identifier of the normal-variate stream, which ``privcomm simulate`` reports.
GENERATOR = "numpy-pcg64"

#: Bytes the signal chain holds per sample: three float64 rows.
BYTES_PER_SAMPLE = 3 * 8

#: Samples per block of the noise draws, of kappa*y and of the channel-power
#: sum; each thread keeps one float64 buffer of this length (128 KiB).
BLOCK = 2**14

_SENDS_NOTHING = "the policy sends nothing (Var(Y) = 0); privacy MMSE undefined"

#: Each thread's signal-chain workspace, kept between calls of one size, and
#: its block buffer.
_local = threading.local()


class SimConfig(Record):
    __slots__ = ("samples", "seed", "setting")

    def __init__(self, samples: int, seed: int, setting: Setting) -> None:
        if samples < 2:
            raise ValueError(f"samples must be >= 2, got {samples}")
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        require_memory(BYTES_PER_SAMPLE * samples, f"samples={samples}")
        set_samples, set_seed, set_setting = self._setters
        set_samples(self, samples)
        set_seed(self, seed)
        set_setting(self, setting)


class SimResult(Record):
    __slots__ = ("d_c_hat", "d_p_hat", "d_p_hat_regression", "power_hat", "entropy_hat",
                 "stderr_dc", "stderr_dp")

    def __init__(self, d_c_hat: float, d_p_hat: float, d_p_hat_regression: float,
                 power_hat: float | None, entropy_hat: float, stderr_dc: float,
                 stderr_dp: float) -> None:
        (set_d_c_hat, set_d_p_hat, set_d_p_hat_regression, set_power_hat, set_entropy_hat,
         set_stderr_dc, set_stderr_dp) = self._setters
        set_d_c_hat(self, d_c_hat)
        set_d_p_hat(self, d_p_hat)
        set_d_p_hat_regression(self, d_p_hat_regression)
        set_power_hat(self, power_hat)
        set_entropy_hat(self, entropy_hat)
        set_stderr_dc(self, stderr_dc)
        set_stderr_dp(self, stderr_dp)


def _workspace(samples: int):
    """The calling thread's (3, samples) float64 workspace and ``BLOCK`` buffer.

    The workspace is reused while ``samples`` is unchanged; a new size drops
    the old one before allocating.  The buffer is allocated once per thread.
    """
    ws = getattr(_local, "ws", None)
    if ws is None or ws.shape[1] != samples:
        _local.ws = ws = None
        _local.ws = ws = np.empty((3, samples))
    buf = getattr(_local, "buf", None)
    if buf is None:
        _local.buf = buf = np.empty(BLOCK)
    return ws, buf


def _blocks(n: int, buf):
    """(slice, buffer view) pairs that cover ``range(n)`` in order, a block at a time."""
    for start in range(0, n, BLOCK):
        yield slice(start, start + BLOCK), buf[:min(BLOCK, n - start)]


def _add_noise(y, variance: float, rng, buf) -> None:
    """``y += sqrt(variance) * z`` for standard normals z, drawn a block at a time.

    Generator's ziggurat keeps no state between calls, so the blocks take the
    same stream as one ``standard_normal(out=row)`` draw.
    """
    scale = math.sqrt(variance)
    for rows, b in _blocks(y.size, buf):
        rng.standard_normal(out=b)
        b *= scale
        np.add(y[rows], b, out=y[rows])


def _sum_of_squares(a, buf):
    """``np.add.reduce(np.square(a))`` of a contiguous float64 row, bit for bit,
    with no row of squares.

    numpy sums such a row on one pairwise tree, whose nodes of n > 128 elements
    split at n//2 - (n//2) % 8.  That split is walked down to nodes of at most
    ``BLOCK`` elements, which are squared into the buffer and summed by numpy.
    Node sums are added by ``np.add.reduce`` too, so an overflow raises
    "overflow encountered in reduce", as the whole-row sum does.
    """
    n = a.size
    if n <= BLOCK:
        return np.add.reduce(np.square(a, out=buf[:n]))
    half = n // 2
    half -= half % 8
    return np.add.reduce((_sum_of_squares(a[:half], buf), _sum_of_squares(a[half:], buf)))


def _mean_square(y, buf) -> float:
    """``_mean(np.square(y))`` through ``_sum_of_squares``, bit for bit, and with
    the error that the whole-row square and sum would raise."""
    try:
        total = _sum_of_squares(y, buf)
    except FloatingPointError:
        # the whole-row square runs before the sum: its overflow, anywhere, comes first
        for rows, b in _blocks(y.size, buf):
            np.square(y[rows], out=b)
        raise
    return float(total / y.size)


def _subtract_scaled(x, gain: float, y, buf):
    """``x -= gain*y`` in place, with gain*y taken a block at a time; returns ``x``.

    A sampled x is a standard normal times sigma_x < 2^512, hundreds of binary
    orders below half an ulp of the largest float (2^970), so the difference
    overflows only where the product does: the first error is the product's,
    as in the whole-row order.
    """
    for rows, b in _blocks(y.size, buf):
        np.subtract(x[rows], np.multiply(y[rows], gain, out=b), out=x[rows])
    return x


def _draw_joint(model: SourceModel, rng, ws):
    """Fill ``ws[0]`` and ``ws[1]`` with paired x and theta samples; return them.

    Cholesky factorization of the 2x2 covariance, applied in place to one
    draw of standard normals; ``ws[2]`` takes rho*x on the way.
    """
    z = ws[:2]
    rng.standard_normal(out=z)
    x, theta = z
    theta *= math.sqrt(model.r - model.rho**2)
    theta += np.multiply(x, model.rho, out=ws[2])
    sigma_x = math.sqrt(model.sigma_x2)
    theta *= sigma_x
    x *= sigma_x
    return x, theta


def _signal_chain(
    model: SourceModel,
    policy: EncoderPolicy,
    channel: ChannelSpec | None,
    config: SimConfig,
):
    """Return (x, theta, y, buf, power_hat) for the configured setting.

    The chain lives in the thread's workspace, three rows of ``samples``
    float64 values (``BYTES_PER_SAMPLE``): x and theta share one draw and y is
    built in place.  The encoder and channel noise are drawn into the
    ``BLOCK`` buffer a block at a time and added to y; the buffer is free for
    the caller.  The rows are overwritten by the thread's next call.
    ``power_hat`` is the mean of u^2 before the channel noise (``None``
    outside the channel setting).
    """
    if config.setting is Setting.CHANNEL:
        if channel is None:
            raise ValueError("channel setting requires a ChannelSpec")
    elif channel is not None:
        raise ValueError(f"{config.setting.value} setting takes no ChannelSpec")
    elif policy.beta != 1.0:
        raise ValueError("settings 1/2 use a unit transmit gain")
    rng = np.random.default_rng(config.seed)
    ws, buf = _workspace(config.samples)
    x, theta = _draw_joint(model, rng, ws)
    y = np.multiply(theta, policy.alpha, out=ws[2])
    y += x
    if policy.noise_var > 0.0:
        _add_noise(y, policy.noise_var, rng, buf)
    power_hat = None
    if config.setting is Setting.CHANNEL:
        y *= policy.beta
        power_hat = _mean_square(y, buf)
        _add_noise(y, channel.sigma_z2, rng, buf)
    return x, theta, y, buf, power_hat


def _mean(a) -> float:
    """``np.mean(a)`` of a 1-d array: its pairwise sum over its size."""
    return float(np.add.reduce(a) / a.size)


def _mean_stderr(a) -> tuple[float, float]:
    """``np.mean(a)`` and ``np.std(a, ddof=1) / sqrt(n)``, bit for bit; overwrites ``a``."""
    mean = _mean(a)
    a -= mean
    np.square(a, out=a)
    return mean, math.sqrt(np.add.reduce(a) / (a.size - 1)) / math.sqrt(a.size)


def _squared_error(target, gain: float, y, out):
    """(target - gain*y)^2, written into ``out``."""
    np.multiply(y, gain, out=out)
    np.subtract(target, out, out=out)
    return np.square(out, out=out)


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
        raise ValueError(_SENDS_NOTHING)
    return cov / var_y


def simulate_policy(
    model: SourceModel,
    policy: EncoderPolicy,
    channel: ChannelSpec | None,
    decoder_gain: float,
    config: SimConfig,
) -> SimResult:
    """Estimate distortion / privacy / power for a policy and decoder gain.

    The privacy MMSE is estimated twice, through the analytic conditional-mean
    coefficient and through on-sample least squares of theta on y, so that
    statistical and modelling errors can be told apart.  A ``channel`` outside
    the channel setting, or a sample moment that overflows, raises ``ValueError``.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            x, theta, y, buf, power_hat = _signal_chain(model, policy, channel, config)
            # x is spent on x - kappa*y; that row is the scratch row from then on
            e = _subtract_scaled(x, decoder_gain, y, buf)
            d_c_hat, stderr_dc = _mean_stderr(np.square(e, out=e))

            c = _analytic_theta_coefficient(model, policy, channel)
            d_p_hat, stderr_dp = _mean_stderr(_squared_error(theta, c, y, e))

            # pairwise sums, not BLAS dot products, so the thread count cannot matter
            theta_y = np.add.reduce(np.multiply(theta, y, out=e))
            y_y = np.add.reduce(np.square(y, out=e))
            if not y_y > 0.0:  # rounding can leave Var(Y) > 0 while every sample is 0
                raise ValueError(_SENDS_NOTHING)
            c_hat = float(theta_y / y_y)
            d_p_reg = _mean(_squared_error(theta, c_hat, y, e))
    except FloatingPointError as exc:
        raise ValueError(f"the Monte Carlo moments overflow a float ({exc})") from None

    return SimResult(
        d_c_hat=d_c_hat,
        d_p_hat=d_p_hat,
        d_p_hat_regression=d_p_reg,
        power_hat=power_hat,
        entropy_hat=gaussian_conditional_entropy(d_p_hat),
        stderr_dc=stderr_dc,
        stderr_dp=stderr_dp,
    )
