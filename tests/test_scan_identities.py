"""The identities behind the multiplier scan's certificate and start, derived symbolically.

``oracle.lagrangian_scan`` reads each noise pass's answer off the sign of the
slope numerator K, and starts every multiplier at the leftover noise of a cost
that rises with the noise.  Here sympy derives what that rests on, from the
covariance of (X, theta, Y) on the canonical model (1, c, 1) with
Y = X + alpha*theta + S, Var(S) = n, sharing no formula with the scan:

(0) D_C - lam*D_P = (g*(alpha^2 - lam) + (1 - lam)*n)/(mix + n), with
    g = 1 - c^2 and mix = 1 + 2*c*alpha + alpha^2;
(1) its slope in n is K/(mix + n)^2 with K = (1 + c*alpha)^2 - lam*(alpha + c)^2,
    the scan's (1 - lam)*mix - (g*alpha^2 - lam*g);
(2) at a stationary point of the zero-noise cost f0, a root of
    c*alpha^2 + (1 + lam)*alpha + lam*c = 0, K = (1 + c*alpha)*mix >= g^2 on
    [-c, 0], so the cost rises with the noise there, and the multiplier map's
    alpha(lam), which the tests check scans against, is that root.
"""

import pytest

sp = pytest.importorskip("sympy")

c, a, n, lam = sp.symbols("c alpha n lam", real=True)
g = 1 - c**2
mix = 1 + 2 * c * a + a**2


def schur_cost():
    """D_C - lam*D_P from the covariance of (X, theta, Y), by Schur complement."""
    cov = sp.Matrix([[1, c], [c, 1]])  # (X, theta)
    gain = sp.Matrix([1, a])  # Y = gain . (X, theta) + S
    cross = cov * gain  # Cov((X, theta), Y)
    var_y = (gain.T * cov * gain)[0] + n
    error = cov - cross * cross.T / var_y
    return error[0, 0] - lam * error[1, 1]


def vanishes(expr):
    return sp.simplify(sp.together(expr)) == 0


def test_canonical_cost():
    cost = (g * (a**2 - lam) + (1 - lam) * n) / (mix + n)
    assert vanishes(schur_cost() - cost)


def test_slope_numerator():
    # (1): the slope in n, and the noise pass's difference of two costs
    k = (1 + c * a) ** 2 - lam * (a + c) ** 2
    cost = schur_cost()
    assert vanishes(sp.diff(cost, n) - k / (mix + n) ** 2)
    assert sp.expand(k - ((1 - lam) * mix - (g * a**2 - lam * g))) == 0
    n1, n2 = sp.symbols("n1 n2", real=True)
    diff = cost.subs(n, n2) - cost.subs(n, n1)
    assert vanishes(diff - k * (n2 - n1) / ((mix + n1) * (mix + n2)))


def test_stationary_slope():
    # (2): d f0/d alpha vanishes exactly on the quadratic, where K = (1 + c*alpha)*mix
    f0 = schur_cost().subs(n, 0)
    quad = c * a**2 + (1 + lam) * a + lam * c
    assert vanishes(sp.diff(f0, a) - 2 * g * quad / mix**2)
    k = (1 + c * a) ** 2 - lam * (a + c) ** 2
    assert sp.rem(sp.expand(k - (1 + c * a) * mix), quad, a) == 0
    # the map's alpha*, written without cancellation, is a root: rationalized,
    # it is (sqrt(disc) - (1 + lam))/(2*c), and disc is the quadratic's discriminant
    disc = (1 - lam) ** 2 + 4 * lam * g
    assert sp.expand(disc - ((1 + lam) ** 2 - 4 * c * lam * c)) == 0
    star = -2 * lam * c / ((1 + lam) + sp.sqrt(disc))
    assert vanishes(star - (sp.sqrt(disc) - (1 + lam)) / (2 * c))
    # and K(alpha*) >= g^2: 1 + c*alpha - g = c*(alpha + c) >= 0 on [-c, 0], mix - g >= 0
    assert sp.expand(1 + c * a - g - c * (a + c)) == 0
    assert sp.expand(mix - g - (a + c) ** 2) == 0

