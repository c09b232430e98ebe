"""Jointly Gaussian source / private-information model and its second-order algebra.

The source X and the private information theta are zero-mean jointly Gaussian
with covariance sigma_x2 * [[1, rho], [rho, r]].  Everything downstream
(equilibrium solvers, curve sweeps, Monte Carlo, brute-force oracle) consumes
the validated ``SourceModel`` defined here.
"""

from __future__ import annotations

import math
import os

#: Tolerance for boundary checks on normalized quantities (e.g. rho^2 <= r).
BOUNDARY_EPS = 1e-12


class ModelError(ValueError):
    """Base class for invalid source-model parameters."""


class Record:
    """Immutable record: hashed and printed by its fields, in order, and equal
    only to a record of the same class with equal fields.

    A subclass lists its fields in ``__slots__`` and sets them in its own
    ``__init__`` through ``_setters``, the slots' descriptor setters in the
    same order, which skip the ``__setattr__`` that refuses assignment.
    Pickle and ``copy`` rebuild a record by calling that ``__init__``, so a
    copy is validated again.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()


class SourceModel(Record):
    """Second-order statistics of (X, theta).

    Attributes
    ----------
    sigma_x2 : variance of X, strictly positive.
    rho : normalized cross-correlation, Cov(X, theta) = sigma_x2 * rho.
    r : normalized private-information variance, Var(theta) = sigma_x2 * r.
    """

    __slots__ = ("sigma_x2", "rho", "r")

    def __init__(self, sigma_x2: float, rho: float, r: float) -> None:
        if not (sigma_x2 > 0.0) or not math.isfinite(sigma_x2):
            raise ModelError(f"sigma_x2 must be positive, got {sigma_x2}")
        if not math.isfinite(rho) or rho < 0.0:
            raise ModelError(f"rho must be >= 0, got {rho}")
        # rho * rho, not rho**2: a float ** raises OverflowError where * gives inf,
        # and an r within BOUNDARY_EPS of the float range makes the bound inf too
        rho2 = rho * rho
        if not math.isfinite(r) or rho2 > r * (1.0 + BOUNDARY_EPS) or rho2 == math.inf:
            raise ModelError(f"need rho^2 <= r, got rho^2={rho2} > r={r}")
        if rho**2 > r:  # within the band: the degenerate model, so r - rho**2 >= 0 downstream
            r = rho**2
        if rho > 0.0 and r == 0.0:  # rho * rho underflows to 0 below rho ~ 1.5e-162
            raise ModelError(f"need rho = 0 at r = 0, got rho={rho!r}")
        if not (math.isfinite(sigma_x2 * r) and math.isfinite(sigma_x2 * rho)):
            raise ModelError(f"Var(theta) = sigma_x2 * r overflows a float at "
                             f"sigma_x2={sigma_x2!r}, r={r!r}")
        set_sigma_x2, set_rho, set_r = self._setters
        set_sigma_x2(self, sigma_x2)
        set_rho(self, rho)
        set_r(self, r)

    @property
    def degenerate(self) -> bool:
        """rho^2 = r, a model typed within BOUNDARY_EPS above it included: theta = rho*X."""
        return self.r - self.rho**2 <= 0.0


class PrivacyBounds(Record):
    """Range of achievable privacy MMSE for theta.

    dp_min is the MMSE of theta given X itself (the least privacy any encoder
    can provide once Y reveals X perfectly); dp_max is Var(theta), attained
    when Y is made independent of theta.
    """

    __slots__ = ("dp_min", "dp_max")

    def __init__(self, dp_min: float, dp_max: float) -> None:
        set_dp_min, set_dp_max = self._setters
        set_dp_min(self, dp_min)
        set_dp_max(self, dp_max)


def validate_model(sigma_x2: float, rho: float, r: float) -> SourceModel:
    """Validate raw parameters and return an immutable :class:`SourceModel`.

    Raises :class:`ModelError` for a nonpositive sigma_x2, a negative rho,
    rho^2 > r * (1 + BOUNDARY_EPS) (rho > 0 at r = 0 included) or a Var(theta)
    that overflows a float.  A rho^2 above r within BOUNDARY_EPS, as typed
    (0.1, 0.01) rounds, is projected onto the degenerate model: r becomes
    rho**2, and no other parameter is ever clamped.
    """
    return SourceModel(float(sigma_x2), float(rho), float(r))


def privacy_bounds(model: SourceModel) -> PrivacyBounds:
    """Return (dp_min, dp_max) = (sigma_x2*(r - rho^2), sigma_x2*r)."""
    return PrivacyBounds(dp_min=model.sigma_x2 * (model.r - model.rho**2),
                         dp_max=model.sigma_x2 * model.r)


def gaussian_conditional_entropy(mmse: float) -> float:
    """Differential entropy (nats) of a Gaussian with variance ``mmse``.

    Bridges the MMSE privacy view and the conditional-entropy view:
    H = 0.5 * ln(2*pi*e*mmse), strictly increasing in mmse.
    """
    if not (mmse > 0.0):
        raise ValueError(f"mmse must be positive, got {mmse}")
    return 0.5 * math.log(2.0 * math.pi * math.e * mmse)


def physical_memory() -> int | None:
    """Bytes of physical memory, or ``None`` where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def require_memory(nbytes: int, what: str) -> None:
    """Raise ``ValueError`` before allocating ``nbytes`` that physical memory cannot hold."""
    total = physical_memory()
    if total is not None and nbytes > total:
        raise ValueError(
            f"{what} needs {nbytes / 2**20:.0f} MiB, more than the "
            f"{total / 2**20:.0f} MiB of physical memory"
        )
