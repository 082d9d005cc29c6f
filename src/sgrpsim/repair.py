"""Repair-effectiveness models for a single repairable component.

The repair model reduces a failure history to an effective-age offset ``o``
such that the conditional intensity is ``rate(t - o)`` until the next failure.
Because the offset is constant between failures, sampling the next failure is
an exact shift-and-invert of the cumulative hazard, with no root finding.

``ARA(m, rho)`` is the only repair model: it subtracts a geometrically
weighted sum of the last ``m`` failure times from the age; ``rho = 1`` is
replacement, ``rho = 0`` leaves the age untouched. ``Perfect()``,
``Minimal()`` and ``Kijima1(a)`` are constructors of ``ARA(1, 1.0)``,
``ARA(1, 0.0)`` and ``ARA(1, 1 - a)``: Kijima type-I virtual age
``V_k = V_{k-1} + a * X_k`` over the inter-failure increments ``X_k`` is
one-step age reduction with ``rho = 1 - a``.

The offset is computed incrementally. ``offset_state()`` is the state of a
component with no failures (offset 0), its last ``m`` failure times, and
``offset_step(state, t)`` advances it by a failure at ``t`` in O(m),
returning the new state and the offset after that failure, which never
passes ``t``: every age the package forms is >= 0, as the trusted hazard
kernels assume. Samplers carry one state per component instead of
re-reading a growing history. ``offsets_after(times)`` is the same fold as
one numpy pass, giving the offset after each failure of a history; the
offset after a whole history is ``offsets_after(times[-m:])[-1]``, and 0
for no failures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, config_number, positive_int

__all__ = ["ARA", "Kijima1", "Perfect", "Minimal", "check_history",
           "next_failure_time", "repair_from_config"]


def check_history(times) -> np.ndarray:
    """Validate a failure history: nonnegative, strictly increasing."""
    arr = np.asarray(times, dtype=float)
    if arr.ndim != 1:
        raise DomainError("failure history must be one-dimensional")
    if arr.size:
        # written so that a NaN, which fails every comparison, is refused
        if not arr[0] >= 0.0:
            raise DomainError(f"failure times must be nonnegative, got {arr[0]}")
        if not (arr[1:] > arr[:-1]).all():
            raise DomainError("failure times must be strictly increasing")
    return arr


def next_failure_time(hazard, offset, last, exponential):
    """Inverse-transform kernel for the next failure after ``last``.

    ``offset`` is the component's effective-age offset after its failure at
    ``last`` (0 and 0 for a fresh component). Solves for the unique t past
    ``last`` whose integrated conditional intensity equals ``exponential``.
    Trusts its arguments and calls the hazard's kernels; public entry points
    validate, and an ``ARA`` offset never passes ``last``.
    """
    target = hazard.cumulative_unchecked(last - offset) + exponential
    t = offset + hazard.inverse_cumulative_unchecked(target)
    if t <= last:  # float underflow guard for tiny exponentials
        t = float(np.nextafter(last, np.inf))
    return float(t)


@dataclass(frozen=True)
class ARA:
    """Age reduction of memory order ``m`` and effectiveness ``rho``.

    After the N-th failure the offset is
    ``rho * sum_{j=0..min(m,N)-1} (1-rho)^j * T[N-j]``. ``rho < 0`` models a
    harmful repair: it is constructible but flagged not improving, and the
    bound/approximation operations refuse it.
    """

    m: int
    rho: float

    def __post_init__(self):
        object.__setattr__(self, "m", positive_int("memory order m", self.m))
        if not -np.inf < self.rho <= 1.0:
            raise DomainError(f"effectiveness rho must be finite and <= 1, got {self.rho}")

    @property
    def is_improving(self) -> bool:
        """True when every repair weakly rejuvenates the component."""
        return 0.0 <= self.rho <= 1.0

    def offset_state(self):
        """Offset state of a component with no failures: its last m failure times."""
        return ()  # oldest first

    def offset_step(self, state, t):
        """Advance ``state`` by a failure at ``t``: (new state, offset after it).

        For m >= 2 and rho near 1 the float sum can round an ulp past ``t``,
        so it is clamped to ``t``; for m = 1, ``fl(rho * t) <= t`` exactly.
        The sum starts from its first product, as :meth:`offsets_after`
        does, which saves the addition to ``0.0``: ``0.0 + x`` is x bit for
        bit unless x is -0.0, and ``rho * t`` with ``t > 0`` is -0.0 only by
        underflow under a harmful ``rho < 0``. ``t`` is a float, or an
        array with one entry per lock-step stream. For m = 1 the fold is
        its first product alone, ``rho * t``, returned without the loop.
        """
        if self.m == 1:
            return (t,), (self.rho * t if self.rho != 0.0 else 0.0)
        state = (state + (t,))[-self.m:]
        if self.rho == 0.0:
            return state, 0.0
        w = self.rho
        acc = w * t
        for s in reversed(state[:-1]):
            w *= 1.0 - self.rho
            acc += w * s
        if self.m > 1:
            acc = np.minimum(acc, t)
        return state, acc

    def offsets_after(self, times) -> np.ndarray:
        """The offset after each failure of ``times``, in one numpy pass.

        Entry k equals the fold of :meth:`offset_step` over
        ``times[:k + 1]`` bit for bit: the sum starts from the same first
        product, the products are added in the same order and clamped alike.
        """
        times = np.asarray(times, dtype=float)
        w = self.rho
        acc = w * times
        for j in range(1, min(self.m, times.size)):
            w *= 1.0 - self.rho
            acc[j:] += w * times[:times.size - j]
        if self.m > 1:
            np.minimum(acc, times, out=acc)
        return acc

    def to_config(self) -> dict:
        return {"model": "ara", "m": self.m, "rho": self.rho}

    def conditional_intensity(self, hazard, times, t):
        """Failure intensity at ``t`` given the component's own history."""
        times = check_history(times)
        last = float(times[-1]) if times.size else 0.0
        t_arr = np.asarray(t, dtype=float)
        if t_arr.size and float(t_arr.min()) < last:
            raise DomainError(f"t must not precede the last failure at {last}")
        offset = self.offsets_after(times[-self.m:])[-1] if times.size else 0.0
        out = hazard.rate(t_arr - offset)
        return out if t_arr.ndim else float(out)


def Perfect() -> ARA:
    """Replacement (as good as new): the clock restarts at the latest failure."""
    return ARA(1, 1.0)


def Minimal() -> ARA:
    """As bad as old: the initial rate continues through failures."""
    return ARA(1, 0.0)


def Kijima1(a) -> ARA:
    """Kijima type-I virtual age ``V_k = V_{k-1} + a * X_k``, i.e. ``ARA(1, 1 - a)``.

    ``a`` must be finite and >= 0; ``a > 1`` is a harmful repair.
    """
    if not (np.isfinite(a) and a >= 0.0):
        raise DomainError(f"age accumulation factor a must be finite and >= 0, got {a}")
    return ARA(1, 1.0 - a)


def repair_from_config(cfg) -> ARA:
    """Build a repair model from ``{"model": ..., ...}``."""
    if not isinstance(cfg, dict) or "model" not in cfg:
        raise ConfigError("repair config must be an object with a 'model' key")
    kind = cfg["model"]
    if kind == "ara":
        try:
            m, rho = cfg["m"], cfg["rho"]
        except KeyError as missing:
            raise ConfigError(f"ara repair needs key {missing}") from None
        return ARA(config_number("repair.m", m, int), config_number("repair.rho", rho))
    if kind == "kijima1":
        try:
            a = cfg["a"]
        except KeyError as missing:
            raise ConfigError(f"kijima1 repair needs key {missing}") from None
        return Kijima1(config_number("repair.a", a))
    if kind == "perfect":
        return Perfect()
    if kind == "minimal":
        return Minimal()
    raise ConfigError(f"unknown repair model {kind!r}")
