"""Every result and configuration record behaves like a frozen dataclass.

Each record is checked against a frozen ``dataclasses`` mirror with the same
fields: equality, hashing and ``repr`` agree; the record is immutable; it
builds positionally, by keyword and from defaults; it survives pickle and
``copy``; and its validation messages stay as they were.
"""

import copy
import dataclasses
import itertools
import math
import pickle

import pytest

from privcomm import (
    ChannelSpec,
    EncoderPolicy,
    EquilibriumSolution,
    ModelError,
    PrivacyBounds,
    Setting,
    SourceModel,
)
from privcomm.curves import TradeoffCurve
from privcomm.montecarlo import SimConfig, SimResult
from privcomm.oracle import OracleOptimum, ScanPoint, VerificationReport

MODEL = SourceModel(1.0, 0.6, 1.0)
POLICY = EncoderPolicy(-0.25, 1.0, 0.0)
SOLUTION = EquilibriumSolution(POLICY, 1.1, 0.05, 0.84, True)
OPTIMUM = OracleOptimum(-0.25, 0.0, 0.05, 0.84)
POINTS = ((0.64, 0.0, 0.0, 1.0), (1.0, 0.36, -0.6, 1.0))
COLUMNS = ("d_p", "d_c", "alpha", "kappa")

#: (class, field names in order, a valid instance's values, values that differ
#: from them in the last field, defaults of the trailing fields)
RECORDS = [
    (SourceModel, ("sigma_x2", "rho", "r"), (1.0, 0.6, 1.0), (1.0, 0.6, 2.0), {}),
    (PrivacyBounds, ("dp_min", "dp_max"), (0.64, 1.0), (0.64, 2.0), {}),
    (EncoderPolicy, ("alpha", "beta", "noise_var"), (-0.25, 2.0, 0.5), (-0.25, 2.0, 0.0),
     {"beta": 1.0, "noise_var": 0.0}),
    (ChannelSpec, ("p_t", "sigma_z2"), (1.0, 1.0), (1.0, 0.5), {}),
    (EquilibriumSolution, ("policy", "kappa", "d_c", "d_p", "constraint_active"),
     (POLICY, 1.1, 0.05, 0.84, True), (POLICY, 1.1, 0.05, 0.84, False), {}),
    (TradeoffCurve, ("columns", "points"), (COLUMNS, POINTS), (COLUMNS, POINTS[:1]), {}),
    (OracleOptimum, ("alpha", "noise_var", "d_c", "d_p"), (-0.25, 0.0, 0.05, 0.84),
     (-0.25, 0.0, 0.05, 0.85), {}),
    (VerificationReport,
     ("oracle_optimum", "closed_form", "dc_gap", "passed"),
     (OPTIMUM, SOLUTION, 1e-9, True), (OPTIMUM, SOLUTION, 1e-9, False), {}),
    (ScanPoint, ("lam", "alpha", "noise_var", "d_c", "d_p"), (1.0, -0.3, 0.0, 0.1, 0.8),
     (1.0, -0.3, 0.0, 0.1, 0.9), {}),
    (SimConfig, ("samples", "seed", "setting"), (1000, 7, Setting.SIMPLE),
     (1000, 7, Setting.COMPRESSION), {}),
    (SimResult,
     ("d_c_hat", "d_p_hat", "d_p_hat_regression", "power_hat", "entropy_hat",
      "stderr_dc", "stderr_dp"),
     (0.05, 0.84, 0.84, None, 1.3, 1e-3, 1e-3), (0.05, 0.84, 0.84, None, 1.3, 1e-3, 2e-3),
     {}),
]

IDS = [cls.__name__ for cls, *_ in RECORDS]


def mirror(cls, fields):
    """A frozen dataclass with the record's name and fields."""
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


@pytest.mark.parametrize("cls, fields, values, other, defaults", RECORDS, ids=IDS)
def test_equality_hash_and_repr_match_a_frozen_dataclass(cls, fields, values, other,
                                                          defaults):
    ref = mirror(cls, fields)
    a, b, c = cls(*values), cls(*values), cls(*other)
    ra, rb, rc = ref(*values), ref(*values), ref(*other)
    for x, y, rx, ry in [(a, b, ra, rb), (a, c, ra, rc), (c, a, rc, ra), (a, a, ra, ra)]:
        assert (x == y) is (rx == ry)
        assert (x != y) is (rx != ry)
    assert a == b and a is not b and a != c
    assert hash(a) == hash(b) == hash(ra) == hash(tuple(values))
    assert repr(a) == repr(ra) and repr(c) == repr(rc)
    assert a != ra and a != tuple(values)  # another class never compares equal
    assert a.__eq__(tuple(values)) is NotImplemented


def test_pinned_repr():
    assert repr(MODEL) == "SourceModel(sigma_x2=1.0, rho=0.6, r=1.0)"
    assert repr(SOLUTION) == (
        "EquilibriumSolution(policy=EncoderPolicy(alpha=-0.25, beta=1.0, noise_var=0.0), "
        "kappa=1.1, d_c=0.05, d_p=0.84, constraint_active=True)"
    )


def test_records_of_different_classes_never_compare_equal():
    instances = [cls(*values) for cls, _, values, _, _ in RECORDS]
    instances.append(PrivacyBounds(1.0, 1.0))  # the field values of ChannelSpec(1.0, 1.0)
    for x, y in itertools.combinations(instances, 2):
        if type(x) is not type(y):
            assert x != y and not x == y


@pytest.mark.parametrize("cls, fields, values, other, defaults", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise(cls, fields, values, other, defaults):
    record = cls(*values)
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert record == cls(*values)


@pytest.mark.parametrize("cls, fields, values, other, defaults", RECORDS, ids=IDS)
def test_positional_keyword_and_default_construction(cls, fields, values, other,
                                                     defaults):
    record = cls(*values)
    assert tuple(getattr(record, name) for name in fields) == values
    assert cls(**dict(zip(fields, values))) == record
    required = fields[: len(fields) - len(defaults)]
    built = cls(*values[: len(required)])
    assert tuple(getattr(built, name) for name in fields) == (
        *values[: len(required)], *defaults.values()
    )
    assert tuple(defaults) == fields[len(required):]


@pytest.mark.parametrize("cls, fields, values, other, defaults", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trips(cls, fields, values, other, defaults):
    record = cls(*values)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(record, protocol))
        assert clone == record and type(clone) is cls
    assert copy.copy(record) == record
    deep = copy.deepcopy(record)
    assert deep == record and repr(deep) == repr(record)


VALIDATION = [
    (lambda: SourceModel(0.0, 0.6, 1.0), ModelError,
     "sigma_x2 must be positive, got 0.0"),
    (lambda: SourceModel(math.inf, 0.6, 1.0), ModelError,
     "sigma_x2 must be positive, got inf"),
    (lambda: SourceModel(1.0, -0.1, 1.0), ModelError,
     "rho must be >= 0, got -0.1"),
    (lambda: SourceModel(1.0, 0.6, 0.3), ModelError,
     "need rho^2 <= r, got rho^2=0.36 > r=0.3"),
    (lambda: EncoderPolicy(math.nan), ValueError, "alpha must be finite, got nan"),
    (lambda: EncoderPolicy(0.0, 0.0), ValueError,
     "beta must be positive and finite, got 0.0"),
    (lambda: EncoderPolicy(0.0, noise_var=-1.0), ValueError,
     "noise_var must be finite and >= 0, got -1.0"),
    (lambda: ChannelSpec(0.0, 1.0), ValueError, "p_t must be positive and finite, got 0.0"),
    (lambda: ChannelSpec(1.0, math.inf), ValueError,
     "sigma_z2 must be finite and >= 0, got inf"),
    (lambda: TradeoffCurve(COLUMNS, ((0.64, math.nan, 0.0, 1.0),)), ValueError,
     "non-finite curve point (0.64, nan, 0.0, 1.0)"),
    # the first bad point is named, after finite points whose values overflow a sum
    (lambda: TradeoffCurve(COLUMNS, ((1e308,) * 4, (0.7, 0.1, math.inf, 1.0))),
     ValueError, "non-finite curve point (0.7, 0.1, inf, 1.0)"),
    (lambda: TradeoffCurve(COLUMNS, ((0.64, 0.1, 0.0, 1.0), (0.7, -math.inf, 0.0, 1.0))),
     ValueError, "non-finite curve point (0.7, -inf, 0.0, 1.0)"),
    # inf and -inf sum to nan
    (lambda: TradeoffCurve(COLUMNS, ((0.64, 0.1, math.inf, 1.0), (0.7, -math.inf, 0.0, 1.0))),
     ValueError, "non-finite curve point (0.64, 0.1, inf, 1.0)"),
    (lambda: SourceModel(1e300, 0.6, 1e10), ModelError,
     "Var(theta) = sigma_x2 * r overflows a float at sigma_x2=1e+300, r=10000000000.0"),
    (lambda: SimConfig(1, 0, Setting.SIMPLE), ValueError, "samples must be >= 2, got 1"),
]


@pytest.mark.parametrize("build, error, message", VALIDATION)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_curve_of_finite_points_whose_sum_overflows():
    points = ((1e308,) * 4, (-1e308, 1e308, 0.0, 1e308))
    assert TradeoffCurve(COLUMNS, points).points == points


def test_sim_config_refuses_samples_beyond_physical_memory(monkeypatch):
    import privcomm.model

    monkeypatch.setattr(privcomm.model, "physical_memory", lambda: 2**20)
    with pytest.raises(ValueError) as info:
        SimConfig(10**6, 0, Setting.SIMPLE)
    assert str(info.value) == (
        "samples=1000000 needs 23 MiB, more than the 1 MiB of physical memory"
    )


def test_records_lists_every_record_class():
    from privcomm.model import Record

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    listed = [cls for cls, *_ in RECORDS]
    assert len(set(listed)) == len(listed)
    assert set(listed) == set(subclasses(Record))
