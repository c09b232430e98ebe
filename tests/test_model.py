import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from privcomm import (
    ModelError,
    gaussian_conditional_entropy,
    privacy_bounds,
    validate_model,
)

from conftest import source_models


def test_valid_model():
    m = validate_model(1.0, 0.6, 1.0)
    assert (m.sigma_x2, m.rho, m.r) == (1.0, 0.6, 1.0)


def test_rejects_rho_squared_above_r():
    with pytest.raises(ModelError):
        validate_model(1.0, 0.5, 0.2)


def test_rejects_rho_squared_beyond_float_range():
    # rho^2 = 1e320 is inf, not an OverflowError
    with pytest.raises(ModelError, match=r"rho\^2=inf > r=1e\+300"):
        validate_model(1.0, 1e160, 1e300)
    # within BOUNDARY_EPS of the float range r*(1 + BOUNDARY_EPS) is inf as well
    with pytest.raises(ModelError, match=r"rho\^2=inf > r=1.7976931348623157e\+308"):
        validate_model(1e-300, 1e155, 1.7976931348623157e308)


@pytest.mark.parametrize("r", [1.0, 1e-300, 0.01])
@pytest.mark.parametrize("excess, admitted", [(1.0, True), (1.0 - 1e-13, True),
                                              (1.0 + 1e-13, True), (1.0 + 4e-13, True),
                                              (1.0 + 9e-13, False)])
def test_rho_squared_boundary(r, excess, admitted):
    # rho^2 up to r*(1 + BOUNDARY_EPS) is admitted; (1 + 9e-13)^2 = 1 + 1.8e-12 is beyond.
    # At r = 0.01 and excess 1 the model is the typed (0.1, 0.01): 0.1*0.1 rounds above r.
    # A rho^2 above r within the band is projected onto the degenerate model r = rho**2,
    # the form of every gap r - rho**2 downstream, which is then +0.0 exactly
    rho = excess * math.sqrt(r)
    if not admitted:
        with pytest.raises(ModelError, match=r"need rho\^2 <= r"):
            validate_model(1.0, rho, r)
        return
    m = validate_model(1.0, rho, r)
    assert m.rho == rho
    if rho * rho > r:
        assert m.r == rho**2 and m.degenerate
        assert math.copysign(1.0, privacy_bounds(m).dp_min) == 1.0
        assert privacy_bounds(m).dp_min == 0.0
        assert copy.copy(m) == m and pickle.loads(pickle.dumps(m)) == m
    else:
        assert m.r == r



def test_rejects_nonpositive_variance():
    with pytest.raises(ModelError):
        validate_model(0.0, 0.0, 1.0)


def test_rejects_negative_rho():
    with pytest.raises(ModelError):
        validate_model(1.0, -0.1, 1.0)


def test_boundary_model_allowed():
    # theta a deterministic function of X is legitimate
    m = validate_model(2.0, 0.7, 0.49)
    assert privacy_bounds(m).dp_min == pytest.approx(0.0, abs=1e-12)


@given(
    st.floats(-5, 5, allow_nan=False),
    st.floats(-2, 2, allow_nan=False),
    st.floats(-2, 5, allow_nan=False),
)
def test_validation_is_total(sigma_x2, rho, r):
    # every triple either validates or raises exactly one model error; no clamping but
    # the projection of a rho^2 just above r onto r = rho**2
    try:
        m = validate_model(sigma_x2, rho, r)
    except ModelError:
        return
    assert m.sigma_x2 == sigma_x2 and m.rho == rho and m.r == max(r, rho**2)


def test_privacy_bounds_examples():
    for params, expected in [
        ((1, 0.6, 1), (0.64, 1.0)),
        ((1, 0.0, 1), (1.0, 1.0)),
        ((2, 0.5, 0.5), (0.5, 1.0)),
    ]:
        b = privacy_bounds(validate_model(*params))
        assert (b.dp_min, b.dp_max) == pytest.approx(expected)


def test_dp_min_matches_regression_oracle():
    # empirical Var(theta - E[theta|X]) for sigma_x2=2, rho=0.5, r=0.5
    m = validate_model(2.0, 0.5, 0.5)
    rng = np.random.default_rng(7)
    z = rng.standard_normal((2, 400_000))
    sx = math.sqrt(m.sigma_x2)
    x = sx * z[0]
    theta = sx * (m.rho * z[0] + math.sqrt(m.r - m.rho**2) * z[1])
    coef = np.dot(theta, x) / np.dot(x, x)
    resid = theta - coef * x
    assert np.mean(resid**2) == pytest.approx(privacy_bounds(m).dp_min, rel=2e-2)


@given(source_models())
def test_bounds_ordered(m):
    b = privacy_bounds(m)
    assert 0.0 <= b.dp_min <= b.dp_max
    if m.rho == 0.0:
        assert b.dp_min == b.dp_max
    elif m.rho**2 * m.sigma_x2 > 1e-12 * b.dp_max:
        assert b.dp_min < b.dp_max


def test_entropy_values():
    assert gaussian_conditional_entropy(1.0 / (2 * math.pi * math.e)) == pytest.approx(
        0.0, abs=1e-15
    )
    assert gaussian_conditional_entropy(1.0) == pytest.approx(
        0.5 * math.log(2 * math.pi * math.e), abs=1e-15
    )


def test_entropy_rejects_nonpositive():
    with pytest.raises(ValueError):
        gaussian_conditional_entropy(0.0)
    with pytest.raises(ValueError):
        gaussian_conditional_entropy(-1.0)


@given(st.floats(1e-12, 1e6), st.floats(1e-12, 1e6))
def test_entropy_strictly_monotone(m1, m2):
    lo, hi = sorted((m1, m2))
    if hi <= lo * (1.0 + 1e-9):  # log resolution floor
        return
    assert gaussian_conditional_entropy(lo) < gaussian_conditional_entropy(hi)
