"""The identities behind the multiplier scan's certificates, derived symbolically.

``oracle.lagrangian_scan`` decides its zero-noise round from the closed-form
multiplier map and reads each noise pass's answer off the sign of the slope
numerator K.  Here sympy derives what that rests on, from the covariance of
(X, theta, Y) on the canonical model (1, c, 1) with Y = X + alpha*theta + S,
Var(S) = n, sharing no formula with the scan:

(0) D_C - lam*D_P = (g*(alpha^2 - lam) + (1 - lam)*n)/(mix + n), with
    g = 1 - c^2 and mix = 1 + 2*c*alpha + alpha^2;
(1) its slope in n is K/(mix + n)^2 with K = (1 + c*alpha)^2 - lam*(alpha + c)^2,
    the scan's (1 - lam)*mix - (g*alpha^2 - lam*g);
(2) at a stationary point of the zero-noise cost f0, a root of
    c*alpha^2 + (1 + lam)*alpha + lam*c = 0, K = (1 + c*alpha)*mix, and the
    map's alpha* is that root;
(3) f0(alpha) - f0(s) = (g - f0(s))*(alpha - s)^2/mix(alpha) at such a root s,
    and d/d alpha of (alpha - s)^2/mix is 2*(alpha - s)*((alpha + c)*(c + s) + g)/mix^2.
"""

import pytest

sp = pytest.importorskip("sympy")

c, a, n, lam, s = sp.symbols("c alpha n lam s", real=True)
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


def test_curvature_floor():
    # (3): f0 minus its value at a root s is (g - f0(s))*(alpha - s)^2/mix(alpha)
    f0 = schur_cost().subs(n, 0)
    f_s = f0.subs(a, s)
    quad_s = c * s**2 + (1 + lam) * s + lam * c
    numerator = sp.fraction(sp.together(f0 - f_s - (g - f_s) * (a - s) ** 2 / mix))[0]
    assert sp.rem(sp.expand(numerator), quad_s, s) == 0
    h = (a - s) ** 2 / mix
    assert vanishes(sp.diff(h, a) - 2 * (a - s) * ((a + c) * (c + s) + g) / mix**2)
