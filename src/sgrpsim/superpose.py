"""Exact simulation of a series system of identical repairable components.

The system fails whenever any component fails; the failed component is
repaired in negligible time and operation resumes. Components fail
independently, so each one takes its own unit exponentials (component c's
j-th failure takes draw number ``j * n + c`` of one counter-based generator)
under its own repair rule, and the system's failures are the merged
component times.
One lock-step engine advances runs (a sampler call's groups of streams and
its stop): every rejuvenating stream of every run whose hazard and repair
differ only in scale and ``rho`` moves in one vector step per failure row,
in blocks that run until each stream has passed its run's last time needed
(the ``n_events``-th smallest, or the horizon). A solo ``simulate_sgrp`` or
``simulate.simulate_algorithm1`` is a batch of one run, the CLI's ``figures``
a batch of all its curves; neither blocks nor other runs change an output.
Three or more streams step a block without the next-failure underflow guard
and check it once, re-stepping it with the guard only where it would act.
One sort then merges the streams, the stable one where the times hold an
exact tie: simultaneous float times resolve to the lowest component index,
and each later member of a tie moves to the next float up, as the stream
sampler's merge moves it, in its component's times too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, positive_int
from .repair import check_history, next_failure_time
from .rng import stream_rng

__all__ = ["FullHistory", "MaskedHistory", "simulate_sgrp", "mask",
           "true_system_intensity", "true_intensity_at_events"]

#: Events per block of the batched trajectory evaluations; a block holds
#: a few arrays of ``BLOCK_ROWS`` x n floats.
BLOCK_ROWS = 4096

#: Most times one lock-step block holds (8 MB).
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


def _per_column(objects, field, widths):
    """``objects[0]``'s dataclass fields alone (no cached value), ``field`` the array of each
    one's value over its ``widths`` columns."""
    out = object.__new__(type(objects[0]))
    for f in fields(out):
        object.__setattr__(out, f.name, getattr(objects[0], f.name))
    object.__setattr__(out, field, np.repeat([getattr(x, field) for x in objects], widths))
    return out


def _poisson_stream(groups):
    """An inhomogeneous Poisson stream, the stack of one group ``(None, hazard, rng, 1, share)``.

    Sent ``k`` as :func:`_rejuvenating_streams` is. The unit exponentials
    accumulate left to right from the last one, as a running sum drawn one
    at a time does, into the inverse cumulative hazard.
    """
    ((_, hazard, rng, *_),) = groups
    tau = np.zeros(1)
    k = yield
    while True:
        taus = np.cumsum(np.concatenate((tau, rng.exponential(size=k))))
        tau = taus[-1:]
        k = yield hazard.inverse_cumulative_unchecked(taus[1:])[:, None]


def _rejuvenating_streams(groups):
    """The streams of rejuvenating ``groups``, of any runs, advanced in lock step as one stack.

    ``groups`` holds ``(model, hazard, rng, width, share)``: hazards that
    differ at most in their ``scale``, repairs that share m. A generator:
    each ``send(k)`` returns the next ``k`` failure times of every stream of
    every group as one ``(k, width)`` array, the groups side by side. A
    group's exponentials are one row-major ``(k, width)`` draw from its own
    ``rng``: its stream i's j-th failure takes draw ``j * width + i``
    however the steps are blocked or stacked. A step is ``next_failure_time``
    and ``ARA.offset_step`` elementwise, on per-column ``rho`` and scale
    for a stack of several groups: each column is its stream stepped alone.

    Three or more streams step a block without ``next_failure_time``'s guard
    and check it once: if every time is above the one before it in its
    stream, the guard, ``max(x, nextafter(t))``, is x at every step. If not,
    the generators and the offset state go back to the block's start and the
    re-drawn block is stepped with the guard; that state holds views of rows
    of earlier blocks only (each step overwrites its row of draws), which
    never change.
    """
    widths = [g[3] for g in groups]

    def draw():  # a row-major (k, width) draw from each group's generator, side by side
        draws = [rng.standard_exponential(size=(k, width)) for _, _, rng, width, _ in groups]
        return draws[0] if len(draws) == 1 else np.hstack(draws)

    k = yield
    if sum(widths) <= 2:
        # one or two streams step on Python floats, which cost less than 1-
        # or 2-element arrays (at five streams the arrays are the cheaper)
        columns = [(model, hazard, model.offset_state(), 0.0, 0.0)
                   for model, hazard, _, width, _ in groups for _ in range(width)]
        while True:
            block = draw()
            for i, (model, hazard, state, offset, t) in enumerate(columns):
                times = []
                for e in block[:, i].tolist():
                    t = next_failure_time(hazard, offset, t, e)
                    state, offset = model.offset_step(state, t)
                    times.append(t)
                block[:, i] = times
                columns[i] = model, hazard, state, offset, t
            k = yield block
    model, hazard = groups[0][:2]
    if len(groups) > 1:  # one vector step for groups of different scales and rho
        model = _per_column([grp[0] for grp in groups], "rho", widths)
        hazard = _per_column([grp[1] for grp in groups], hazard.scale, widths)
    state, offset, t = model.offset_state(), 0.0, 0.0
    while True:
        start, bits = (state, offset, t), [grp[2].bit_generator.state for grp in groups]
        block = draw()
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
            for grp, b in zip(groups, bits):
                grp[2].bit_generator.state = b
            block = draw()
        k = yield block


# a harmful repair (rho < 0) can push an age past the float range; a stream's
# times stay inf or NaN from then on, and its sampler raises instead of warning
@np.errstate(over="ignore", invalid="ignore")
def _advance_streams(runs):
    """Advance the lock-step groups of every run until each stream passes its run's cut.

    A run is ``(groups, count, horizon)``, one stop None; a group is
    ``(model, hazard, rng, width, share)``: ``width`` streams under repair
    ``model`` (None: a Poisson stream) drawing from the generator ``rng``,
    and each stream's share of its run's initial rate. Each group is in one
    stack, a generator sent ``k`` for its groups' next ``k`` rows: the
    rejuvenating groups of all runs whose hazards share the family and every
    dataclass field but ``scale``, under one m (:func:`_rejuvenating_streams`);
    any other group alone. The cut is the ``count``-th smallest time of the
    run's streams, or its horizon. Returns per run its times per group as
    one ``(steps, width)`` array, every time up to the cut in them, and the
    cut.

    Blocks aim to end at the cut. A group's first block is sized for its
    slowest stream, ``mu + 3 sqrt(mu)`` steps (the extra at most ``width /
    4``) for an expected count ``mu``: ``count * share``, at most ``count``
    steps, or ``hazard.cumulative(horizon)``, an upper bound while every age
    stays at or below the clock. Later blocks extrapolate the slowest
    stream's pace to the horizon, or to the frontier (the run's earliest
    last time) scaled by ``count`` over the times up to it, which estimates
    the ``count``-th time: at least one step, at most the group's steps so
    far. A stack's block takes the most steps any of its groups short of
    its run's cut plans, at most ``FIRST_BLOCK_TIMES`` times; all its groups
    step it, the rows of those past their cut dropped. Each stream's times
    are its draws in order, so neither blocks nor other runs change a result.
    """
    plans, stacks = [], {}
    for r, (groups, count, horizon) in enumerate(runs):
        steps = []
        for g, (model, hazard, _, width, share) in enumerate(groups):
            mu = min(count * share if horizon is None else float(hazard.cumulative(horizon)),
                     FIRST_BLOCK_TIMES)
            # at least one step: the cumulative hazard underflows to 0 at a tiny horizon
            steps.append(max(1, min(count or FIRST_BLOCK_TIMES,
                                    math.ceil(mu + min(3.0 * math.sqrt(mu), width / 4.0)))))
            # a Poisson group, or a hazard with no per-column form, is a stack alone
            key = (r, g) if not model or hazard.scale is None else (type(hazard), model.m, *(
                getattr(hazard, f.name) for f in fields(hazard) if f.name != hazard.scale))
            stacks.setdefault(key, []).append((r, g))
        plans.append((steps, [[] for _ in groups], list(range(len(groups)))))
    engines = []
    for members in stacks.values():
        groups = [runs[r][0][g] for r, g in members]
        streams = (_rejuvenating_streams if groups[0][0] else _poisson_stream)(groups)
        next(streams)
        engines.append((members, np.cumsum([0, *(grp[3] for grp in groups)]).tolist(), streams))
    cuts = [horizon for *_, horizon in runs]
    while any(pending for *_, pending in plans):
        for members, edges, streams in engines:
            short = [plans[r][0][g] for r, g in members if g in plans[r][2]]
            if short:
                block = streams.send(min(max(short), max(FIRST_BLOCK_TIMES // edges[-1], 1)))
                for (r, g), lo, hi in zip(members, edges, edges[1:]):
                    if g in plans[r][2]:
                        plans[r][1][g].append(block[:, lo:hi])
        for r, ((_, count, _), (steps, blocks, pending)) in enumerate(zip(runs, plans)):
            if not pending:
                continue
            slowest = [bs[-1][-1].min() for bs in blocks]  # each group's earliest last time
            target = cuts[r]
            if count is not None:
                times = np.concatenate([b for bs in blocks for b in bs], axis=None)
                # a generator may hand back fewer steps than asked for
                cuts[r] = (np.partition(times, count - 1)[count - 1] if times.size >= count
                           else np.inf)
                frontier = min(slowest)
                drawn = np.count_nonzero(times <= frontier)  # none when it is NaN
                target = min(cuts[r], frontier * (count / drawn)) if drawn else cuts[r]
            pending[:] = [g for g, t in enumerate(slowest) if t < cuts[r]]
            for g in pending:
                done = sum(len(b) for b in blocks[g])
                ahead = max(done * (target / slowest[g] - 1.0), 0.0)
                steps[g] = math.ceil(min(ahead, done - 1)) + 1
    # a group of one block keeps its view: no copy while the stacked blocks live
    return [([bs[0] if len(bs) == 1 else np.concatenate(bs) for bs in blocks], cut)
            for (_, blocks, _), cut in zip(plans, cuts)]


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


def _nudge_ties(times, horizon=None):
    """Nudge the ties of the sorted ``times`` apart in place; how many to keep.

    Equal times are interchangeable, so only their values change, not their
    order. A time not above the one before it (or not above 0 for the first)
    becomes the next float up, sequentially from the first such tie. A nudge
    can pass ``horizon``: the count kept is of the times at or before it, or
    all of them when there is no horizon.
    """
    ties = np.flatnonzero(times <= np.concatenate(([0.0], times[:-1])))
    for k in range(ties[0] if ties.size else times.size, times.size):
        prev = times[k - 1] if k else 0.0
        if times[k] <= prev:  # float coincidence across streams
            times[k] = np.nextafter(prev, np.inf)
    return times.size if horizon is None else int(np.searchsorted(times, horizon, side="right"))


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
    ``j * n + c``. Exact ties across components are nudged apart
    (:func:`_nudge_ties`), so the times are strictly increasing. Output is
    reproducible given ``(seed, n, model, hazard, stop)``.
    """
    run, finish = _sgrp_run(n, model, hazard, n_events, horizon, seed)
    return finish(*_advance_streams([run])[0])


def _sgrp_run(n, model, hazard, n_events, horizon, seed):
    """``simulate_sgrp``'s checked run, and its history from ``(blocks, cut)``."""
    n = positive_int("n", n)
    n_events = _check_stop(n_events, horizon)

    def finish(blocks, cut):
        (block,) = blocks
        if not np.isfinite(block[-1]).all():
            raise DomainError("a component's age left the float range (harmful repair)")
        columns = np.ascontiguousarray(block.T)
        flat = columns.ravel()
        # component-major, so the stable order puts the lowest component first
        # among equal times; only the times up to the cut are sorted
        kept = np.flatnonzero(flat <= cut)
        order = kept[_stable_order(flat[kept])][:n_events]
        times = flat[order]
        count = _nudge_ties(times, horizon)
        order, times = order[:count], times[:count]
        flat[order] = times  # each component carries its nudged times
        comps = order // columns.shape[1]
        counts = np.bincount(comps, minlength=n)
        per_component = tuple(columns[c, :k].copy() for c, k in enumerate(counts))
        return FullHistory(n=n, per_component=per_component, times=times, labels=comps + 1,
                           horizon=float(times[-1] if horizon is None else horizon))

    return ([(model, hazard, stream_rng(seed, COMPONENTS), n, 1.0 / n)], n_events, horizon), finish


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
    offsets = np.array([model.offset_after(comp[:np.searchsorted(comp, t, side="left")])
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
