"""Initial failure intensity families.

Two closed-form families cover the toolkit: a power-law intensity (Weibull
wear-out; for beta < 1 a falling rate, which ``is_nondecreasing`` flags and
every envelope refuses) and a constant one. Each exposes the rate, its
integral and the inverse of the integral, so every sampler built on top uses
exact inversion instead of root finding. ``scaled`` returns the same family
with the rate multiplied by a positive constant, which keeps thinned or split
subprocess intensities inside the closed-form world.

A family defines three trusted kernels, ``rate_unchecked``,
``cumulative_unchecked`` and ``inverse_cumulative_unchecked``. ``Hazard``
wraps each once as ``rate``, ``cumulative`` and ``inverse_cumulative``, which
refuse a negative or NaN argument with ``DomainError`` and return a ``float``
for a scalar, and otherwise the kernel's floats bit for bit. A kernel trusts
its caller for arguments >= 0 and, in ``rate_unchecked``, a nondecreasing
rate; only loops over ages the package produced itself call one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, DomainError, config_keys, config_number

__all__ = ["Hazard", "PowerLawHazard", "ConstantHazard", "hazard_from_config"]


def _checked(kernel, values, name):
    """``kernel`` over ``values`` as floats, refusing a negative or NaN one."""
    arr = np.asarray(values, dtype=float)
    low = float(arr) if arr.ndim == 0 else (float(arr.min()) if arr.size else 0.0)
    if not low >= 0.0:  # NaN fails the comparison too
        raise DomainError(f"{name} must be nonnegative, got {low}")
    out = kernel(arr)
    return out if arr.ndim else float(out)


@lru_cache(maxsize=128)
def _power_terms(beta, eta):
    """A power law's rate terms ``eta``, ``beta - 1`` and ``beta / eta`` as read-only 0-d arrays.

    A ufunc takes a 0-d array for less than a float, which it converts at
    every call; the values, and so the rates, are the floats' bit for bit.
    """
    terms = np.array(eta), np.array(beta - 1.0), np.array(beta / eta)
    for term in terms:
        term.flags.writeable = False
    return terms


class Hazard:
    """The validated public methods over a family's kernels.

    A family defines the three kernels, ``is_nondecreasing`` (true when the
    rate never decreases, which bound evaluation requires), ``scaled`` and
    ``to_config``, and may name its ``scale`` field, which a lock-step stack
    (``superpose``) holds as an array, one entry per stream.
    """
    scale = None

    def rate(self, t):
        with np.errstate(divide="ignore"):  # 0 ** negative is +inf for beta < 1
            return _checked(self.rate_unchecked, t, "t")

    def cumulative(self, t):
        return _checked(self.cumulative_unchecked, t, "t")

    def inverse_cumulative(self, u):
        return _checked(self.inverse_cumulative_unchecked, u, "u")


@dataclass(frozen=True)
class PowerLawHazard(Hazard):
    """rate(t) = (beta/eta) * (t/eta)**(beta - 1), cumulative (t/eta)**beta.

    beta >= 1 gives the nondecreasing rates that the masked-data bounds
    assume; beta < 1 gives a decreasing rate, which bound evaluation refuses.
    """

    beta: float
    eta: float
    scale = "eta"

    def __post_init__(self):
        if not (np.isfinite(self.beta) and self.beta > 0.0):
            raise DomainError(f"shape beta must be positive, got {self.beta}")
        if not (np.isfinite(self.eta) and self.eta > 0.0):
            raise DomainError(f"scale eta must be positive, got {self.eta}")

    @property
    def is_nondecreasing(self) -> bool:
        return self.beta >= 1.0

    def rate_unchecked(self, ages):
        # one temporary: the scaled ages, raised and multiplied in place
        eta, power, factor = _power_terms(self.beta, self.eta)
        x = np.asarray(ages / eta)
        np.power(x, power, out=x)
        x *= factor
        return x

    def cumulative_unchecked(self, ages):
        return np.power(ages / self.eta, self.beta)

    def inverse_cumulative_unchecked(self, u):
        return self.eta * np.power(u, 1.0 / self.beta)

    def scaled(self, factor):
        if not factor > 0.0:
            raise DomainError(f"scale factor must be positive, got {factor}")
        try:
            eta = self.eta * factor ** (-1.0 / self.beta)
        except OverflowError:  # a tiny factor, such as delta = 1e-100 with beta < 1
            raise DomainError(f"scale factor {factor} puts eta past the float range") from None
        return PowerLawHazard(self.beta, eta)

    def to_config(self):
        return {"family": "power_law", "beta": self.beta, "eta": self.eta}


@dataclass(frozen=True)
class ConstantHazard(Hazard):
    """Constant failure rate ``rate0``; cumulative is ``rate0 * t``."""

    rate0: float
    is_nondecreasing = True
    scale = "rate0"

    def __post_init__(self):
        if not (np.isfinite(self.rate0) and self.rate0 > 0.0):
            raise DomainError(f"rate must be positive, got {self.rate0}")

    def rate_unchecked(self, ages):
        return np.full(ages.shape, self.rate0)

    def cumulative_unchecked(self, ages):
        return self.rate0 * ages

    def inverse_cumulative_unchecked(self, u):
        return u / self.rate0

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
        beta, eta = config_keys(cfg, "power_law hazard", "beta", "eta")
        return PowerLawHazard(config_number("hazard.beta", beta),
                              config_number("hazard.eta", eta))
    if family == "constant":
        (rate,) = config_keys(cfg, "constant hazard", "rate")
        return ConstantHazard(config_number("hazard.rate", rate))
    raise ConfigError(f"unknown hazard family {family!r}")
