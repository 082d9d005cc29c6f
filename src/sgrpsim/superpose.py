"""Exact simulation of a series system of identical repairable components.

The system fails whenever any component fails; the failed component is
repaired in negligible time and operation resumes. Components fail
independently, so each one takes its own unit exponentials (component c's
j-th failure takes draw number ``j * n + c`` of one counter-based generator)
under its own repair rule, and the system's failures are the merged
component times.
The n streams advance together, one vector step per failure of each, in
blocks that run until every stream has passed the last system time needed
(the ``n_events``-th smallest, or the horizon). The first block is sized for
the slowest stream and later ones extrapolate from the frontier, so a
typical run takes one block; block sizes never change the output. Three or
more streams step a block without the next-failure underflow guard and check
it once, re-stepping it with the guard only where the guard would act. One
sort then merges the streams, the default argsort unless the times hold an
exact tie, when the stable one runs: simultaneous float times (probability
zero) resolve to the lowest component index. The same engine drives the
stream sampler of ``simulate.simulate_algorithm1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, positive_int
from .repair import check_history, next_failure_time
from .rng import stream_rng

__all__ = ["FullHistory", "MaskedHistory", "simulate_sgrp", "mask",
           "true_system_intensity", "true_intensity_at_events"]

#: Events per block of the batched trajectory evaluations; a block holds
#: a few arrays of ``BLOCK_ROWS`` x n floats.
BLOCK_ROWS = 4096

#: Most times a lock-step group's first block holds in horizon mode (8 MB).
FIRST_BLOCK_TIMES = 1 << 20

#: Role ids of the generators ``stream_rng(seed, role)`` the lock-step groups
#: draw from: the n components of ``simulate_sgrp``, which the stream
#: sampler's component group shares so that delta = 1 is the exact
#: superposition, then the stream sampler's Poisson and single-component
#: streams. ``simulate_thinning`` draws from ``stream_rng(seed)``.
COMPONENTS, POISSON, SINGLE = 0, 1, 2


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
        object.__setattr__(self, "n", positive_int("component count n", self.n))
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


def _rejuvenating_streams(model, hazard, rng, width):
    """``width`` rejuvenating streams sharing ``hazard``, advanced in lock step.

    A generator: each ``send(k)`` returns the next ``k`` failure times of
    every stream as a ``(k, width)`` array. Its unit exponentials are one
    row-major ``(k, width)`` draw from ``rng``, so stream i's j-th failure
    takes the generator's draw number ``j * width + i`` however the steps
    are blocked. A step is ``next_failure_time`` and ``ARA.offset_step``
    applied elementwise, so each column is bit for bit the stream stepped one
    failure at a time on those draws.

    Three or more streams step their block without ``next_failure_time``'s
    guard and check it once: when every time is above the one before it in
    its stream (the first row above the last block's last), the guard,
    ``max(x, nextafter(t))``, is x at every step, so the block is the
    guarded one bit for bit. Otherwise a step landed on its predecessor or
    a time is NaN: the group goes back to where the block began (generator,
    offset state and last times), re-draws the block into place and steps
    it again with the guard.

    Each step overwrites its row of draws with its times (``out=``), so
    ``state`` holds views of earlier rows, of this block or earlier ones;
    that is safe because a re-step restores the state of the block's start,
    which holds rows of earlier blocks only, and no block changes after it
    is yielded.
    """
    k = yield
    if width <= 2:
        # one or two streams step column by column on Python floats, which
        # cost less than 1- or 2-element arrays (at five streams the arrays
        # are the cheaper)
        columns = [(model.offset_state(), 0.0, 0.0) for _ in range(width)]
        while True:
            block = rng.standard_exponential(size=(k, width))
            for i in range(width):
                state, offset, t = columns[i]
                times = []
                for e in block[:, i].tolist():
                    t = next_failure_time(hazard, offset, t, e)
                    state, offset = model.offset_step(state, t)
                    times.append(t)
                block[:, i] = times
                columns[i] = state, offset, t
            k = yield block
    state, offset, t = model.offset_state(), 0.0, 0.0
    while True:
        start, bits = (state, offset, t), rng.bit_generator.state
        block = rng.standard_exponential(size=(k, width))
        for guard in (False, True):
            state, offset, t = start
            for row in block:
                target = hazard.cumulative_unchecked(t - offset) + row
                np.add(offset, hazard.inverse_cumulative_unchecked(target), out=row)
                if guard:
                    # next_failure_time's guard: a time not past the last
                    # failure becomes the next float up
                    np.maximum(row, np.nextafter(t, np.inf), out=row)
                t = row
                state, offset = model.offset_step(state, t)
            # every time past the one before it: no guard would have fired
            if guard or (block[0] > start[2]).all() and (block[1:] > block[:-1]).all():
                break
            rng.bit_generator.state = bits
            rng.standard_exponential(out=block)
        k = yield block


def _advance_streams(groups, *, count=None, horizon=None):
    """Advance groups of lock-step streams until every stream passes the cut.

    ``groups`` holds ``(streams, width, share, hazard)``: a stream generator
    such as ``_rejuvenating_streams``, not yet started, its number of
    streams, each of its streams' share of the initial event rate (the
    shares of all streams sum to 1) and the hazard its streams share. The
    cut is the ``count``-th smallest time generated (count mode) or the
    ``horizon``. Returns the cut and, per group, its stream times as one
    ``(steps, width)`` array; every time up to the cut is in them.

    A block costs one draw call and a step one vector step, so blocks aim to
    end at the cut. A group's first block is sized for its slowest stream:
    ``mu + 3 sqrt(mu)`` steps for a stream's expected count ``mu`` up to the
    cut, the extra capped at ``width / 4`` (a second block costs a narrow
    group little). In count mode ``mu = count * share`` and the block is
    capped at ``count`` (a stream holding ``count`` times has reached the
    cut). In horizon mode ``mu`` is ``hazard.cumulative(horizon)``, which
    bounds the expected count from above while every age stays at or below
    the clock (a nondecreasing hazard under an improving repair), and the
    block holds at most ``FIRST_BLOCK_TIMES`` times. Later blocks aim at the
    horizon, or in count mode at the frontier, the earliest last time over
    all groups, scaled by ``count`` over the times up to it: every time
    below the frontier is drawn, so this estimates the ``count``-th time,
    while the ``count``-th smallest of the times drawn so far only bounds it
    from above and decides which groups go on. A later block takes the
    steps its group's slowest stream's pace extrapolates to the aim, at
    least one and at most as many as the group has taken.

    The result does not depend on the block sizes: each stream's times are
    its draws in order however they are blocked, and the cut is the
    ``count``-th smallest time or the horizon however far past it the
    streams ran.
    """
    steps = []
    for _, width, share, hazard in groups:
        if count is not None:
            mu, cap = count * share, count
        else:
            cap = max(FIRST_BLOCK_TIMES // width, 1)
            mu = min(float(hazard.cumulative(horizon)), cap)
        # at least one step: the cumulative hazard underflows to 0 at a tiny horizon
        steps.append(max(1, min(cap, math.ceil(mu + min(3.0 * math.sqrt(mu), width / 4.0)))))
    blocks = [[] for _ in groups]
    for streams, *_ in groups:
        next(streams)  # run each generator to its first send
    cut = target = horizon
    pending = range(len(groups))
    while pending:
        for g in pending:
            blocks[g].append(groups[g][0].send(steps[g]))
        slowest = [bs[-1][-1].min() for bs in blocks]  # each group's earliest last time
        if count is not None:
            times = np.concatenate([b.ravel() for bs in blocks for b in bs])
            # a generator may hand back fewer steps than asked for
            cut = np.partition(times, count - 1)[count - 1] if times.size >= count else np.inf
            frontier = min(slowest)
            drawn = np.count_nonzero(times <= frontier)  # none when it is NaN
            target = min(cut, frontier * (count / drawn)) if drawn else cut
        pending = [g for g, t in enumerate(slowest) if t < cut]
        for g in pending:
            done = sum(len(b) for b in blocks[g])
            ahead = max(done * (target / slowest[g] - 1.0), 0.0)
            steps[g] = math.ceil(min(ahead, done - 1)) + 1
    return [np.concatenate(bs) for bs in blocks], cut


def _stable_order(values):
    """``np.argsort(values, kind="stable")`` for NaN-free ``values``.

    Without exact ties every sort gives the same order, so the default
    (vectorised) kind is used, and the stable one only when the sorted
    values hold a tie (``0.0 == -0.0`` is one).
    """
    order = np.argsort(values)
    ranked = values[order]
    if np.any(ranked[1:] == ranked[:-1]):
        return np.argsort(values, kind="stable")
    return order


def _check_stop(n_events, horizon):
    """The stop rule: ``n_events`` >= 1, returned as an int, or a finite ``horizon`` > 0."""
    if (n_events is None) == (horizon is None):
        raise ValueError("provide exactly one of n_events or horizon")
    if horizon is not None and not 0.0 < horizon < math.inf:
        raise DomainError("horizon must be positive and finite")
    return None if n_events is None else positive_int("n_events", n_events)


def simulate_sgrp(n, model, hazard, *, n_events=None, horizon=None, seed) -> FullHistory:
    """Simulate the superposed failure process of ``n`` identical components.

    Exactly one stopping rule is required: a total event count or a time
    horizon. The n components advance in lock step
    (:func:`_advance_streams`) on one generator, ``stream_rng(seed,
    COMPONENTS)``: component c's j-th failure takes its draw number
    ``j * n + c``. Output is reproducible given ``(seed, n, model, hazard,
    stop)``.
    """
    n = positive_int("n", n)
    n_events = _check_stop(n_events, horizon)

    streams = _rejuvenating_streams(model, hazard, stream_rng(seed, COMPONENTS), n)
    # a harmful repair (rho < 0) can push an age past the float range. A
    # stream's times stay inf or NaN from then on and stop the blocks, so
    # the last step shows it, and the run raises instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        (block,), cut = _advance_streams([(streams, n, 1.0 / n, hazard)], count=n_events,
                                         horizon=horizon)
    if not np.isfinite(block[-1]).all():
        raise DomainError("a component's age left the float range (harmful repair)")
    columns = np.ascontiguousarray(block.T)
    flat = columns.ravel()
    # component-major, so the stable order puts the lowest component first
    # among equal times; only the times up to the cut are sorted
    kept = np.flatnonzero(flat <= cut)
    order = kept[_stable_order(flat[kept])][:n_events]
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
    offsets = np.zeros(full.n)
    for c, comp in enumerate(full.per_component):
        k = int(np.searchsorted(comp, t, side="left"))
        if k:
            offsets[c] = model.offsets_after(comp[max(k - model.m, 0):k])[-1]
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
