import gc
import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st

from privcomm import validate_model


@st.composite
def source_models(draw, min_rho=0.0, max_r=4.0):
    sigma_x2 = draw(st.floats(0.1, 10.0))
    r = draw(st.floats(0.05, max_r))
    frac = draw(st.floats(min_rho, 0.99))
    return validate_model(sigma_x2, frac * math.sqrt(r), r)


@st.composite
def models_with_targets(draw, min_rho=0.05):
    model = draw(source_models(min_rho=min_rho))
    frac = draw(st.floats(0.0, 1.0))
    dp_min = model.sigma_x2 * (model.r - model.rho**2)
    dp_max = model.sigma_x2 * model.r
    return model, dp_min + frac * (dp_max - dp_min)


def calls_from(func, run):
    """The Python functions and the builtins that ``func`` calls while ``run()`` runs.

    ``func`` may be a code object, such as that of a closure, instead.

    The collector is off meanwhile: its callbacks run in whatever frame it
    interrupts, and they are not calls of ``func``.
    """
    code = getattr(func, "__code__", func)
    python, builtin = [], []

    def profile(frame, event, arg):
        if event == "call" and frame.f_back is not None and frame.f_back.f_code is code:
            python.append(frame.f_code.co_name)
        elif event == "c_call" and frame.f_code is code:
            builtin.append(arg.__name__)

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return python, builtin


def column(curve, name):
    """The named column of a ``TradeoffCurve`` as a numpy array."""
    return np.array([p[curve.columns.index(name)] for p in curve.points])


def exact_channel_dc_dp(model, alpha, channel):
    """D_C and D_P of the full-power channel encoder at ``alpha``, each rounded once.

    Exact rational arithmetic on the covariances of Y = beta*(X + alpha*theta) + Z,
    with beta^2 = P_T / Var(X + alpha*theta): D = Var - Cov(., Y)^2 / Var(Y).
    """
    s2, rho, r, a, p_t, sigma_z2 = map(Fraction, (
        model.sigma_x2, model.rho, model.r, alpha, channel.p_t, channel.sigma_z2))
    beta2 = p_t / (s2 * (1 + 2 * a * rho + a * a * r))
    var_y = p_t + sigma_z2
    d_c = s2 - beta2 * (s2 * (1 + a * rho)) ** 2 / var_y
    d_p = s2 * r - beta2 * (s2 * (rho + r * a)) ** 2 / var_y
    return float(d_c), float(d_p)
