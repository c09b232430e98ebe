import math

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


def column(curve, name):
    """The named column of a ``TradeoffCurve`` as a numpy array."""
    return np.array([p[curve.columns.index(name)] for p in curve.points])
