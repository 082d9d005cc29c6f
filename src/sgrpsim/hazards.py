"""Initial failure intensity families.

Two closed-form families cover the toolkit: a power-law intensity (Weibull
wear-out) and a constant intensity. Each exposes the instantaneous rate, its
integral and the inverse of the integral, so every sampler built on top uses
exact inversion instead of root finding. ``scaled`` returns the same family
with the rate multiplied by a positive constant, which keeps thinned or split
subprocess intensities inside the closed-form world.

The public methods validate their arguments: a negative or NaN time raises
``DomainError``. ``rate_unchecked`` is the trusted array kernel behind
``rate`` for hot loops. It takes a float array of ages, skips the
nonnegativity check and the floating-point error state, and returns the same
floats as ``rate``. Its caller guarantees ages >= 0 and a nondecreasing rate
(so ``0 ** negative`` cannot occur), as the envelope evaluations do after
checking the hazard and the evaluation time once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, config_number

__all__ = ["Hazard", "PowerLawHazard", "ConstantHazard", "hazard_from_config"]


def _nonnegative(values, name):
    arr = np.asarray(values, dtype=float)
    # a scalar skips the array reduction: the samplers call with one value per event
    low = float(arr) if arr.ndim == 0 else (float(arr.min()) if arr.size else 0.0)
    if not low >= 0.0:  # NaN fails the comparison too
        raise DomainError(f"{name} must be nonnegative, got {low}")
    return arr


class Hazard:
    """Interface: ``rate``, ``cumulative``, ``inverse_cumulative``, ``scaled``."""

    @property
    def is_nondecreasing(self) -> bool:
        """True when rate(t) never decreases; bound evaluation requires it."""
        raise NotImplementedError

    def rate(self, t):
        raise NotImplementedError

    def rate_unchecked(self, ages):
        """``rate`` over a float array of ages >= 0, without validation."""
        raise NotImplementedError

    def cumulative(self, t):
        raise NotImplementedError

    def inverse_cumulative(self, u):
        raise NotImplementedError

    def scaled(self, factor: float) -> "Hazard":
        raise NotImplementedError

    def to_config(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawHazard(Hazard):
    """rate(t) = (beta/eta) * (t/eta)**(beta - 1), cumulative (t/eta)**beta.

    beta >= 1 gives the nondecreasing rates that the masked-data bounds
    assume. beta < 1 is refused unless ``allow_decreasing`` is set, and bound
    evaluation then refuses the hazard instead.
    """

    beta: float
    eta: float
    allow_decreasing: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"shape beta must be positive, got {self.beta}")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise DomainError(f"scale eta must be positive, got {self.eta}")
        if self.beta < 1.0 and not self.allow_decreasing:
            raise DomainError(
                "beta < 1 gives a decreasing rate; pass allow_decreasing=True "
                "to construct it anyway (bound evaluation will refuse it)")

    @property
    def is_nondecreasing(self) -> bool:
        return self.beta >= 1.0

    def rate(self, t):
        arr = _nonnegative(t, "t")
        with np.errstate(divide="ignore"):
            out = (self.beta / self.eta) * np.power(arr / self.eta, self.beta - 1.0)
        return out if arr.ndim else float(out)

    def rate_unchecked(self, ages):
        return (self.beta / self.eta) * np.power(ages / self.eta, self.beta - 1.0)

    def cumulative(self, t):
        arr = _nonnegative(t, "t")
        out = np.power(arr / self.eta, self.beta)
        return out if arr.ndim else float(out)

    def inverse_cumulative(self, u):
        arr = _nonnegative(u, "u")
        out = self.eta * np.power(arr, 1.0 / self.beta)
        return out if arr.ndim else float(out)

    def scaled(self, factor):
        if not factor > 0.0:
            raise DomainError(f"scale factor must be positive, got {factor}")
        return PowerLawHazard(self.beta, self.eta * factor ** (-1.0 / self.beta),
                              allow_decreasing=self.allow_decreasing)

    def to_config(self):
        return {"family": "power_law", "beta": self.beta, "eta": self.eta}


@dataclass(frozen=True)
class ConstantHazard(Hazard):
    """Constant failure rate ``rate0``; cumulative is ``rate0 * t``."""

    rate0: float

    def __post_init__(self):
        if not (np.isfinite(self.rate0) and self.rate0 > 0.0):
            raise DomainError(f"rate must be positive, got {self.rate0}")

    @property
    def is_nondecreasing(self) -> bool:
        return True

    def rate(self, t):
        arr = _nonnegative(t, "t")
        if arr.ndim:
            return np.full(arr.shape, self.rate0)
        return float(self.rate0)

    def rate_unchecked(self, ages):
        return np.full(ages.shape, self.rate0)

    def cumulative(self, t):
        arr = _nonnegative(t, "t")
        out = self.rate0 * arr
        return out if arr.ndim else float(out)

    def inverse_cumulative(self, u):
        arr = _nonnegative(u, "u")
        out = arr / self.rate0
        return out if arr.ndim else float(out)

    def scaled(self, factor):
        if not factor > 0.0:
            raise DomainError(f"scale factor must be positive, got {factor}")
        return ConstantHazard(self.rate0 * factor)

    def to_config(self):
        return {"family": "constant", "rate": self.rate0}


def hazard_from_config(cfg) -> Hazard:
    """Build a hazard from ``{"family": ..., ...}`` (see module families)."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError("hazard config must be an object with a 'family' key")
    family = cfg["family"]
    if family == "power_law":
        try:
            beta, eta = cfg["beta"], cfg["eta"]
        except KeyError as missing:
            raise ConfigError(f"power_law hazard needs key {missing}") from None
        return PowerLawHazard(config_number("hazard.beta", beta),
                              config_number("hazard.eta", eta),
                              allow_decreasing=bool(cfg.get("allow_decreasing", False)))
    if family == "constant":
        try:
            rate = cfg["rate"]
        except KeyError as missing:
            raise ConfigError(f"constant hazard needs key {missing}") from None
        return ConstantHazard(config_number("hazard.rate", rate))
    raise ConfigError(f"unknown hazard family {family!r}")
