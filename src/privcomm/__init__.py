"""Privacy-constrained Stackelberg communication equilibria for Gaussian sources.

``model`` and ``equilibrium`` load eagerly; the names of ``curves``,
``montecarlo`` and ``oracle`` load on first access (PEP 562).  Only
``montecarlo`` and the oracle's grid search import numpy, so solving an
equilibrium, sweeping a curve, inverting the rate map and scanning the
multipliers never load it.
"""

from .equilibrium import (
    ChannelSpec,
    DegenerateModelError,
    DegeneratePrivacyTarget,
    EncoderPolicy,
    EquilibriumSolution,
    InfeasiblePrivacyTarget,
    InfiniteRateError,
    Setting,
    SolveError,
    evaluate_setting2,
    evaluate_setting3,
    solve_alpha_quadratic,
    solve_setting1,
    solve_setting2,
    solve_setting3,
)
from .model import (
    CorrelationBoundError,
    ModelError,
    NegativeCorrelationError,
    NonPositiveVarianceError,
    PrivacyBounds,
    SourceModel,
    gaussian_conditional_entropy,
    privacy_bounds,
    validate_model,
)

__version__ = "0.1.0"

#: Public name -> submodule that defines it, resolved on first access.
_LAZY = {
    **dict.fromkeys(
        ("TradeoffCurve", "noise_for_rate", "privacy_floor", "sweep_privacy_distortion",
         "sweep_rate_distortion"),
        "curves",
    ),
    **dict.fromkeys(
        ("SimConfig", "SimResult", "simulate_policy"),
        "montecarlo",
    ),
    **dict.fromkeys(
        ("OracleOptimum", "VerificationReport", "covariance_evaluate",
         "grid_search", "lagrangian_scan", "verify_equilibrium"),
        "oracle",
    ),
}

__all__ = sorted(
    {name for name in globals() if not name.startswith("_")}
    | set(_LAZY)
    | set(_LAZY.values())
)


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY.values():
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
