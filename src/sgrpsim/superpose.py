"""Exact simulation of a series system of identical repairable components.

The system fails whenever any component fails; the failed component is
repaired in negligible time and operation resumes. Simulation is event-driven
competing risks: each component holds one candidate next-failure time, the
smallest candidate is committed, and only that component is resampled. This
is exact because components fail independently, and costs O(log n) per event
through a heap plus one incremental offset step of the failing component.
Simultaneous float candidates (probability zero) resolve to the lowest
component index.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .repair import check_history, next_failure_time
from .rng import stream_rng

__all__ = ["FullHistory", "MaskedHistory", "simulate_sgrp", "mask",
           "true_system_intensity", "true_intensity_at_events"]

#: Events per block of the batched trajectory evaluations; a block holds
#: a few arrays of ``BLOCK_ROWS`` x n floats.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class MaskedHistory:
    """System failure times with the failing component's identity removed.

    ``times`` is a read-only copy of the times handed in, so the envelope
    offsets of the history can be computed once per repair model and reused
    by every evaluation on it (:meth:`envelope_offsets`). They come from the
    last n + m - 1 times alone, so each model keeps O(n + m) floats.
    """

    times: np.ndarray
    n: int
    t_obs: float
    _offsets: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        times = check_history(np.array(self.times, dtype=float))
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        if self.n < 1:
            raise DomainError("component count n must be >= 1")
        last = float(self.times[-1]) if self.times.size else 0.0
        if not self.t_obs >= last:
            raise DomainError("observation horizon precedes the last failure")
        object.__setattr__(self, "t_obs", float(self.t_obs))

    def __len__(self):
        return int(self.times.size)

    def envelope_offsets(self, ara):
        """``bounds.envelope_offsets(times, n, ara)``, computed once per ``ara``."""
        try:
            return self._offsets[ara]
        except KeyError:
            from .bounds import envelope_offsets  # bounds imports this module

            offsets = self._offsets[ara] = envelope_offsets(self.times, self.n, ara)
            return offsets


@dataclass(frozen=True)
class FullHistory:
    """Labeled per-component failure times plus the merged system view.

    ``labels`` are 1-based component indices aligned with ``times``.
    """

    n: int
    per_component: tuple
    times: np.ndarray
    labels: np.ndarray
    horizon: float

    def __len__(self):
        return int(self.times.size)

    def counts(self):
        """Events per component, in component order."""
        return np.array([arr.size for arr in self.per_component], dtype=int)


def simulate_sgrp(n, model, hazard, *, n_events=None, horizon=None,
                  seed=None, rng=None) -> FullHistory:
    """Simulate the superposed failure process of ``n`` identical components.

    Exactly one stopping rule is required: a total event count or a time
    horizon. Output is reproducible given ``(seed, n, model, hazard, stop)``.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    if (n_events is None) == (horizon is None):
        raise ValueError("provide exactly one of n_events or horizon")
    if n_events is not None and n_events < 1:
        raise DomainError("n_events must be >= 1")
    if horizon is not None and not horizon > 0.0:
        raise DomainError("horizon must be positive")
    if rng is None:
        if seed is None:
            raise ValueError("provide seed or rng")
        rng = stream_rng(seed)

    comp_times = [[] for _ in range(n)]
    states = [model.offset_state()] * n
    heap = [(next_failure_time(hazard, 0.0, 0.0, float(rng.exponential())), c)
            for c in range(n)]
    heapq.heapify(heap)

    sys_times, sys_labels = [], []
    while True:
        t, c = heap[0]
        if horizon is not None and t > horizon:
            break
        heapq.heappop(heap)
        comp_times[c].append(t)
        sys_times.append(t)
        sys_labels.append(c + 1)
        if n_events is not None and len(sys_times) >= n_events:
            break
        states[c], offset = model.offset_step(states[c], t)
        nxt = next_failure_time(hazard, offset, t, float(rng.exponential()))
        heapq.heappush(heap, (nxt, c))

    end = horizon if horizon is not None else (sys_times[-1] if sys_times else 0.0)
    return FullHistory(
        n=n,
        per_component=tuple(np.asarray(ts, dtype=float) for ts in comp_times),
        times=np.asarray(sys_times, dtype=float),
        labels=np.asarray(sys_labels, dtype=int),
        horizon=float(end),
    )


def mask(full: FullHistory) -> MaskedHistory:
    """Drop the component labels, keeping the merged times and ``n``."""
    return MaskedHistory(times=full.times, n=full.n, t_obs=full.horizon)


def true_system_intensity(full, model, hazard, t) -> float:
    """System intensity at ``t`` given each component's failures strictly before ``t``.

    The left-limit convention: an event exactly at ``t`` is excluded from the
    conditioning history.
    """
    t = float(t)
    if t < 0.0:
        raise DomainError("t must be nonnegative")
    if t > full.horizon:
        raise DomainError(f"t={t} is beyond the simulated horizon {full.horizon}")
    offsets = np.array([
        model.effective_age_offset(comp[:int(np.searchsorted(comp, t, side="left"))])
        for comp in full.per_component])
    return float(np.sum(hazard.rate(t - offsets)))


def true_intensity_at_events(full, model, hazard) -> np.ndarray:
    """Left-limit system intensity at every system event time, in order.

    Equal, bit for bit, to calling :func:`true_system_intensity` at each
    event. Each component's offsets after its failures come from one
    ``ARA.offsets_after`` pass over its failure times, in memory linear in
    the history ``full`` holds. The rates are evaluated in blocks of at most
    ``BLOCK_ROWS`` events.
    """
    n = full.n
    out = np.empty(full.times.size)
    post = np.empty(out.size)  # offset of the failing component after each event
    post[np.argsort(full.labels, kind="stable")] = np.concatenate(
        [model.offsets_after(comp) for comp in full.per_component])
    offsets = np.zeros(n)  # each component's offset before the block
    for k0 in range(0, out.size, BLOCK_ROWS):
        times = full.times[k0:k0 + BLOCK_ROWS]
        comps = full.labels[k0:k0 + BLOCK_ROWS] - 1
        b = times.size
        # row r holds, per component, the index of its last event before
        # event r of the block (-1: none in the block)
        last = np.full((b + 1, n), -1)
        last[np.arange(1, b + 1), comps] = np.arange(k0, k0 + b)
        np.maximum.accumulate(last, axis=0, out=last)
        rows = np.where(last >= 0, post[np.maximum(last, 0)], offsets)
        out[k0:k0 + b] = hazard.rate(times[:, None] - rows[:b]).sum(axis=1)
        offsets = rows[b]
    return out
