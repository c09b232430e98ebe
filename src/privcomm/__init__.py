"""Privacy-constrained Stackelberg communication equilibria for Gaussian sources.

The package binds the public names of ``model`` and ``equilibrium``; those of
``curves``, ``oracle`` and ``montecarlo`` are imported from their modules.
Only ``montecarlo`` imports numpy, so solving an equilibrium, sweeping a
curve, inverting the rate map, scanning the multipliers and verifying an
equilibrium never load it.
"""

from .equilibrium import (
    ChannelSpec,
    DegenerateModelError,
    EncoderPolicy,
    EquilibriumSolution,
    InfeasiblePrivacyTarget,
    Setting,
    SolveError,
    compression_rate,
    solve_setting1,
    solve_setting2,
    solve_setting3,
)
from .model import (
    ModelError,
    PrivacyBounds,
    SourceModel,
    gaussian_conditional_entropy,
    privacy_bounds,
    validate_model,
)

__version__ = "0.1.0"
