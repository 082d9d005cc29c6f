"""Weighted combination of the masked-data intensity envelopes.

The model interpolates between the lower and upper envelope with a weight
``delta`` in [0, 1]: ``delta = 1`` follows the lower-envelope (most
reliable) attribution, ``delta = 0`` the single-component (least reliable)
one. A normalization switch decides whether the configured hazard is each
component's own rate (``COMPONENT``) or the whole-system rate split evenly so
that each component carries rate/n (``SYSTEM_SPLIT``, the convention the
stream samplers use). Under ``SYSTEM_SPLIT`` a constant hazard makes the
model intensity exactly the constant, for every history and delta.

The model intensity is mixed in one place, ``ApproxModel._intensity``, from
one offset row of the envelopes (the n lags, then the fresh component's 0);
``approx_intensity`` and the thinning sampler both call it. The model's
repair form and component hazard are checked once per model. Both envelopes
read the single-component offsets ``W`` of the masked prefixes (see
``bounds``), so for m >= 2 the lower side is the provable ``W`` bound
rather than the paper's round robin.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from .bounds import _eval_time, _require_envelope, envelope_offset_row, envelope_rates
from .errors import DomainError, positive_int
from .hazards import Hazard
from .repair import ARA
from .superpose import MaskedHistory

__all__ = ["Normalization", "ApproxModel", "approx_intensity"]


class Normalization(enum.Enum):
    """How the configured hazard maps onto one component."""

    COMPONENT = "component"
    SYSTEM_SPLIT = "system_split"


@dataclass(frozen=True)
class ApproxModel:
    """(n, delta, hazard, repair, normalization) defining the model intensity."""

    n: int
    delta: float
    hazard: Hazard
    repair: ARA
    normalization: Normalization = Normalization.SYSTEM_SPLIT

    def __post_init__(self):
        object.__setattr__(self, "n", positive_int("n", self.n))
        if not 0.0 <= self.delta <= 1.0:
            raise DomainError(f"delta must lie in [0, 1], got {self.delta}")

    def component_hazard(self) -> Hazard:
        """The per-component hazard implied by the normalization."""
        if self.normalization is Normalization.SYSTEM_SPLIT:
            return self.hazard.scaled(1.0 / self.n)
        return self.hazard

    @cached_property
    def _envelope_hazard(self):
        """The component hazard, passed with the repair through the envelope gate.

        Resolved on first use and kept; a model the gate refuses raises at
        every evaluation instead.
        """
        hc = self.component_hazard()
        _require_envelope(self.repair, hc)
        return hc

    def _intensity(self, t, row):
        """delta * lower + (1 - delta) * upper at ``t`` over the offset ``row``.

        ``row`` is the n lags, then the fresh component's offset 0. A float
        ``t`` gives a float and a list of floats a list, both mixed on Python
        floats (see ``envelope_rates``); an array of times gives an array of
        the same shape. Trusted: ``t`` must not precede the history the lags
        come from.
        """
        lower, upper = envelope_rates(self._envelope_hazard, t, row)
        d, e = self.delta, 1.0 - self.delta
        if isinstance(t, list):
            return [d * lo + e * up for lo, up in zip(lower, upper)]
        return d * lower + e * upper


def _check_history_n(am, mh):
    if isinstance(mh, MaskedHistory) and mh.n != am.n:
        raise DomainError(f"masked history has n={mh.n}, model has n={am.n}")


def approx_intensity(am: ApproxModel, mh: MaskedHistory, t):
    """delta * lower + (1 - delta) * upper at the left limit ``t``.

    A scalar ``t`` gives a float. An array of times, none before the last
    masked failure, gives an array of the same shape, equal bit for bit to
    the scalar calls.
    """
    _check_history_n(am, mh)
    return am._intensity(_eval_time(mh, t), envelope_offset_row(mh.times, mh.n, am.repair))
