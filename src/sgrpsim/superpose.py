"""Exact simulation of a series system of identical repairable components.

The system fails whenever any component fails; the failed component is
repaired in negligible time and operation resumes. Components fail
independently, so each one is drawn from its own random stream under its
own repair rule, and the system's failures are the merged component times.
The n streams advance together, one vector step per failure of each, in
blocks that run until every stream has passed the last system time needed
(the ``n_events``-th smallest, or the horizon); one stable sort then merges
them. Simultaneous float times (probability zero) resolve to the lowest
component index. The same engine drives the stream sampler of
``simulate.simulate_algorithm1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .repair import check_history, next_failure_time
from .rng import stream_rngs

__all__ = ["FullHistory", "MaskedHistory", "simulate_sgrp", "mask",
           "true_system_intensity", "true_intensity_at_events"]

#: Events per block of the batched trajectory evaluations; a block holds
#: a few arrays of ``BLOCK_ROWS`` x n floats.
BLOCK_ROWS = 4096


@dataclass(frozen=True)
class MaskedHistory:
    """System failure times with the failing component's identity removed.

    ``times`` is a read-only copy of the times handed in.
    """

    times: np.ndarray
    n: int
    t_obs: float

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


def _rejuvenating_streams(model, hazard, rngs):
    """Rejuvenating streams sharing ``hazard``, advanced in lock step.

    A generator: each ``send(k)`` returns the next ``k`` failure times of
    every stream as a ``(k, len(rngs))`` array, column i drawn from
    ``rngs[i]``. A step is ``next_failure_time`` and ``ARA.offset_step``
    applied elementwise, and a block draw from a generator equals that many
    scalar draws, so each column is bit for bit the stream drawn one failure
    at a time.
    """
    k = yield
    if len(rngs) <= 2:
        # one or two streams step column by column on Python floats, which
        # cost less than 1- or 2-element arrays (at five streams the arrays
        # are the cheaper)
        columns = [(model.offset_state(), 0.0, 0.0) for _ in rngs]
        while True:
            block = np.empty((k, len(rngs)))
            for i, rng in enumerate(rngs):
                state, offset, t = columns[i]
                times = []
                for e in rng.exponential(size=k).tolist():
                    t = next_failure_time(hazard, offset, t, e)
                    state, offset = model.offset_step(state, t)
                    times.append(t)
                block[:, i] = times
                columns[i] = state, offset, t
            k = yield block
    state, offset, t = model.offset_state(), 0.0, 0.0
    while True:
        block = np.column_stack([rng.exponential(size=k) for rng in rngs])
        for j in range(k):
            # next_failure_time's guard: a time not past the last failure
            # becomes the next float up
            target = hazard.cumulative_unchecked(t - offset) + block[j]
            t = np.maximum(offset + hazard.inverse_cumulative_unchecked(target),
                           np.nextafter(t, np.inf))
            state, offset = model.offset_step(state, t)
            block[j] = t
        k = yield block


def _advance_streams(groups, *, count=None, horizon=None):
    """Advance groups of lock-step streams until every stream passes the cut.

    ``groups`` holds ``(streams, share)`` pairs: a stream generator such as
    ``_rejuvenating_streams``, not yet started, and each of its streams'
    share of the initial event rate (the shares of all streams sum to 1).
    The cut is the ``count``-th smallest time generated (count mode) or the
    ``horizon``. Returns, per group, its stream times as one
    ``(steps, streams)`` array; every time up to the cut is in them.

    In count mode the first blocks hold at least ``count`` times; in horizon
    mode they are one step. Later blocks take as many steps again as the
    group's slowest stream's pace extrapolates to the cut, at most as many as
    the group has taken, so a block at most doubles a stream. A stream
    holding ``count`` times has reached the ``count``-th smallest, so in
    count mode a stream takes fewer than ``2 * count`` steps. The result does
    not depend on the block sizes.
    """
    if count is not None:
        steps = [math.ceil(count * share) for _, share in groups]
    else:
        steps = [1] * len(groups)
    blocks = [[] for _ in groups]
    for streams, _ in groups:
        next(streams)  # run each generator to its first send
    cut = horizon
    pending = range(len(groups))
    while pending:
        for g in pending:
            blocks[g].append(groups[g][0].send(steps[g]))
        if count is not None:
            times = np.concatenate([b.ravel() for bs in blocks for b in bs])
            # a generator may hand back fewer steps than asked for
            cut = np.partition(times, count - 1)[count - 1] if times.size >= count else np.inf
        slowest = [bs[-1][-1].min() for bs in blocks]  # each group's earliest last time
        pending = [g for g, t in enumerate(slowest) if t < cut]
        for g in pending:
            done = sum(len(b) for b in blocks[g])
            steps[g] = math.ceil(min(done * (cut / slowest[g] - 1.0), done - 1)) + 1
    return [np.concatenate(bs) for bs in blocks]


def _check_stop(n_events, horizon):
    """The samplers' stop rule: exactly one of ``n_events`` >= 1 or ``horizon`` > 0."""
    if (n_events is None) == (horizon is None):
        raise ValueError("provide exactly one of n_events or horizon")
    if n_events is not None and n_events < 1:
        raise DomainError("n_events must be >= 1")
    if horizon is not None and not horizon > 0.0:
        raise DomainError("horizon must be positive")


def simulate_sgrp(n, model, hazard, *, n_events=None, horizon=None, seed) -> FullHistory:
    """Simulate the superposed failure process of ``n`` identical components.

    Exactly one stopping rule is required: a total event count or a time
    horizon. Component c draws from ``stream_rng(seed, c)``, and the n
    components advance in lock step (:func:`_advance_streams`). Output is
    reproducible given ``(seed, n, model, hazard, stop)``.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    _check_stop(n_events, horizon)

    streams = _rejuvenating_streams(model, hazard, stream_rngs(seed, n))
    (block,) = _advance_streams([(streams, 1.0 / n)], count=n_events, horizon=horizon)
    columns = np.ascontiguousarray(block.T)
    flat = columns.ravel()
    # component-major, so the stable sort puts the lowest component first
    # among equal times
    order = np.argsort(flat, kind="stable")
    if n_events is None:
        order = order[:np.searchsorted(flat[order], horizon, side="right")]
    else:
        order = order[:n_events]
    times = flat[order]
    comps = order // columns.shape[1]
    counts = np.bincount(comps, minlength=n)

    return FullHistory(
        n=n,
        per_component=tuple(columns[c, :k].copy() for c, k in enumerate(counts)),
        times=times,
        labels=comps + 1,
        horizon=float(times[-1] if horizon is None else horizon),
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
