"""The converse bound ``oracle.converse_dc``: no encoder beats the closed forms.

The bound holds for every encoder, nonlinear, randomized and vector-valued
ones included, and shares no formula with the solvers.

Let P = E[Cov((X, theta) | Y)] be the error covariance of the MMSE estimate of
(X, theta) from Y, and Sigma = sigma_x2 * [[1, rho], [rho, r]].  Then

- P >= 0, an average of covariances, and Sigma - P = Cov(E[(X, theta) | Y]) >= 0
  by the law of total covariance;
- D_C >= P11, the MMSE of X, and the privacy constraint is P22 >= d_p;
- the paper's entropy measure gives the same constraint: by the Gaussian
  max-entropy bound and Jensen, h(theta | Y) <= 1/2 ln(2 pi e P22);
- over the power-limited Gaussian channel, I((X, theta); Y) <= C =
  1/2 ln(1 + P_T/sigma_z2), and h((X, theta) | Y) <= 1/2 ln((2 pi e)^2 det P)
  by the same two steps (log det is concave), so det P >= det Sigma * e^(-2C).

In units of sigma_x2, with w = P_T / (P_T + sigma_z2) (w = 1 in the simple
setting, where nothing limits the rate), e^(-2C) = 1 - w and the last condition
reads det P >= d0 = (r - rho^2)(1 - w).  Write P = [[x, p], [p, y]].  P >= 0 with
det P >= d0 holds iff p^2 <= x*y - d0, and Sigma - P >= 0 iff
(rho - p)^2 <= (1 - x)(r - y) with x <= 1, y <= r; as rho >= 0, some p meets both iff
sqrt(x*y - d0) + sqrt((1 - x)(r - y)) >= rho.

Q = Sigma^(-1/2) P Sigma^(-1/2) has its eigenvalues in [0, 1] and their product
at least 1 - w, so each is at least 1 - w: P >= (1 - w) Sigma, and x >= 1 - w.
The free linear encoder (alpha = 0, full power) reaches x = 1 - w at
y = r - rho^2 w, the setting's floor, the largest y of any P with x = 1 - w.
The set of feasible P is convex (det^(1/2) is concave on the positive
semidefinite cone), so for a target d at or above the floor some minimizer of x
has y = d, and the least D_C is the least x with
f(x) = sqrt(x*d - d0) + sqrt((1 - x)(r - d)) >= rho; below the floor it is 1 - w.
f is concave, with its peak at x = d/r + (r - d) d0/(r d), so the least such x
lies between d0/d and the peak, where f rises, and a bisection finds it.

Compression at a fixed test-channel noise limits no rate, so the bound does
not cover it.
"""

import math

import numpy as np
import pytest

from privcomm import ChannelSpec, SolveError, solve_setting1, solve_setting3, validate_model
from privcomm.oracle import VERIFY_TOL, converse_dc

#: Targets at these fractions of the way from the setting's floor to dp_max.
FRACTIONS = (0.0, 0.2, 0.5, 0.8, 0.99, 1.0)


def corpus(seed, n, ratio):
    """n seeded (model, channel) pairs: sigma_x2 in 10^U(-3, 3), r in 10^U(-2, 1),
    rho/sqrt(r) drawn by ``ratio(rng)``, and P_T, sigma_z2 in 10^U(-2, 2)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s2, r = 10.0 ** rng.uniform(-3.0, 3.0), 10.0 ** rng.uniform(-2.0, 1.0)
        model = validate_model(s2, ratio(rng) * math.sqrt(r), r)
        out.append((model, ChannelSpec(10.0 ** rng.uniform(-2.0, 2.0),
                                       10.0 ** rng.uniform(-2.0, 2.0))))
    return out


def gaps(pairs):
    """{(setting, at dp_max): [(D_C - sigma_x2*L) / sigma_x2, ...]} of the closed
    forms at each of ``FRACTIONS``, with L at max(target, D_P); and the refusals."""
    out, refused = {}, 0
    for model, channel in pairs:
        s2, rho2, r = model.sigma_x2, model.rho**2, model.r
        for setting, w in (("simple", 1.0),
                           ("channel", channel.p_t / (channel.p_t + channel.sigma_z2))):
            floor = s2 * (r - rho2 * w)
            for frac in FRACTIONS:
                target = floor + frac * (s2 * r - floor)
                try:
                    sol = (solve_setting1(model, target) if setting == "simple"
                           else solve_setting3(model, target, channel))
                except SolveError:
                    refused += 1
                    continue
                bound = converse_dc(model, max(target, sol.d_p), w)
                out.setdefault((setting, frac == 1.0), []).append((sol.d_c - s2 * bound) / s2)
    return out, refused


def test_closed_forms_meet_the_bound():
    # 3 000 models: the closed form lies within 1e-12*sigma_x2 of the bound, and
    # within 1e-7 at dp_max, where the target's last ulps meet sqrt(r - d); it
    # never lies below it by more than 1e-12.  Measured: 7.0e-14 and 1.3e-8, and at
    # most 7.0e-14 below
    found, refused = gaps(corpus(31, 3000, lambda rng: rng.uniform(0.0, 0.999)))
    assert refused == 0
    for (setting, endpoint), values in found.items():
        assert min(values) >= -1e-12, setting
        assert max(map(abs, values)) <= (1e-7 if endpoint else 1e-12), setting


#: Draws of rho/sqrt(r) near the degenerate model rho^2 = r.
NEAR_DEGENERATE = {
    "U(0.99, 1)": lambda rng: rng.uniform(0.99, 1.0),
    "1 - 10^U(-8, -4)": lambda rng: 1.0 - 10.0 ** rng.uniform(-8.0, -4.0),
}


@pytest.mark.parametrize("family", NEAR_DEGENERATE)
def test_near_degenerate_families_stay_far_inside_the_verify_tolerance(family):
    # near rho^2 = r the closed forms lose digits to cancellation, not the bound.
    # On these 500 models per family the worst gaps below dp_max measured 2.5e-12
    # above and 3.2e-13 below the bound (U(0.99, 1)), and 7.6e-9 above and 9.8e-10
    # below (1 - 10^U(-8, -4), which refuses 185 of its 6 000 targets); at dp_max,
    # 3.1e-9 and 2.2e-10
    found, _ = gaps(corpus(8, 500, NEAR_DEGENERATE[family]))
    worst = max(abs(v) for values in found.values() for v in values)
    assert worst <= 1e-7 <= VERIFY_TOL / 100


def sampled_error_covariances(rng, model, w, n):
    """n error covariances in units of sigma_x2, P = C Q C^T with C C^T = Sigma and
    0 <= Q <= I: a third with eigenvalues uniform in [0, 1], and the rest with
    eigenvalues 1 and just above 1 - w, those of a full-power scalar encoder."""
    rho, r = model.rho, model.r
    chol = np.array([[1.0, 0.0], [rho, math.sqrt(r - rho**2)]])
    q = rng.uniform(0.0, 1.0, (n, 2))
    q[n // 3:, 0] = 1.0
    q[n // 3:, 1] = 1.0 - w * (1.0 - 1e-3 * rng.uniform(0.0, 1.0, n - n // 3))
    phi = rng.uniform(0.0, math.pi, n)
    rot = np.stack([np.stack([np.cos(phi), -np.sin(phi)], -1),
                    np.stack([np.sin(phi), np.cos(phi)], -1)], -2)
    q_mat = rot @ (q[:, :, None] * np.swapaxes(rot, -1, -2))
    return chol @ q_mat @ chol.T


def test_no_sampled_error_covariance_beats_the_bound():
    # every sampled P that meets the constraints has P11 >= L, and the least
    # comes close to L, so the samples reach the bound
    rng = np.random.default_rng(17)
    for model, channel in corpus(5, 40, lambda rng: rng.uniform(0.05, 0.95)):
        rho2, r = model.rho**2, model.r
        for w in (1.0, channel.p_t / (channel.p_t + channel.sigma_z2)):
            p = sampled_error_covariances(rng, model, w, 20_000)
            det = p[:, 0, 0] * p[:, 1, 1] - p[:, 0, 1] ** 2
            floor = r - rho2 * w
            for d in (0.5 * floor, *(floor + f * (r - floor) for f in FRACTIONS[:-1])):
                bound = converse_dc(model, d * model.sigma_x2, w)
                ok = (det >= (r - rho2) * (1.0 - w)) & (p[:, 1, 1] >= d)
                assert ok.any()
                least = p[ok, 0, 0].min()
                assert least >= bound - 1e-12
                assert least <= bound + 1e-2


@pytest.mark.parametrize("sigma_x2, rho, r", [(1.0, 0.6, 1.0), (2.5, 0.3, 0.4), (1e-3, 2.9, 9.0)])
@pytest.mark.parametrize("w", [1.0, 0.5, 0.01])
def test_bound_at_the_ends_of_the_range(sigma_x2, rho, r, w):
    model = validate_model(sigma_x2, rho, r)
    # at and below the floor the full-power encoder of X alone is best: 1 - w
    floor = sigma_x2 * (r - rho**2 * w)
    for d_p in (floor, 0.5 * floor, -1.0):
        assert converse_dc(model, d_p, w) == pytest.approx(1.0 - w, abs=1e-14)
    # at dp_max, f(x) = sqrt(x*r - d0) >= rho: x = (rho^2 + d0)/r
    d0 = (r - rho**2) * (1.0 - w)
    assert converse_dc(model, sigma_x2 * r, w) == pytest.approx((rho**2 + d0) / r, rel=1e-14)


def test_bound_without_a_private_component_to_protect():
    # theta independent of X (or absent, r = 0): only the channel limits D_C
    for model in (validate_model(2.0, 0.0, 3.0), validate_model(2.0, 0.0, 0.0)):
        for w in (1.0, 0.25):
            assert converse_dc(model, model.sigma_x2 * model.r, w) == 1.0 - w


def test_bound_on_a_degenerate_model():
    # rho^2 = r: theta = rho*X, so D_P = r*D_C for every encoder, and L = d/r from
    # the floor r*(1 - w) up; f peaks at exactly rho there, so L is good to ~1e-8
    model = validate_model(2.0, 0.5, 0.25)
    for w in (1.0, 0.5):
        for d in (0.25 * (1.0 - w), 0.15, 0.2, 0.25):
            assert converse_dc(model, 2.0 * d, w) == pytest.approx(d / 0.25, abs=1e-7)
