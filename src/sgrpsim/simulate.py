"""Samplers for the combined-envelope intensity model.

Two independent routes generate masked trajectories whose target intensity is
the weighted envelope combination:

* ``simulate_algorithm1`` decomposes the model into subprocess streams — n
  rejuvenating component streams carrying the weighted lower-envelope mass,
  one inhomogeneous Poisson stream carrying the fresh-component mass, and one
  extra rejuvenating stream for the single-component term — then emits the
  earliest times across streams. Each group of streams sharing a hazard
  draws from its own derived generator, and its rejuvenating streams advance
  in the lock-step engine of ``superpose``, stacked with those of any other
  run they share a vector step with; the result depends neither on the
  block sizes nor on the other runs, and memory is O(n_events + n) at a
  steady pace.
* ``simulate_thinning`` samples directly from the exact model intensity by
  window thinning and serves as the oracle for the stream decomposition,
  whose faithfulness to the model is reported rather than assumed.

Each stream of the decomposition restarts its own clock at its own failures;
whether the single-component stream should instead restart at system
failures is left open by the decomposition itself, and the pre-generated
reading is used here.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from math import inf

import numpy as np

from .approx import ApproxModel
from .errors import DomainError, positive_int
from .rng import stream_rng
from .superpose import (COMPONENTS, POISSON, SINGLE, MaskedHistory, _advance_streams, _check_stop,
                        _nudge_ties)

__all__ = ["nhpp_sample", "simulate_algorithm1", "simulate_thinning"]

#: Window ends one rate call of the thinning sampler evaluates past the
#: window's start: the window and the two that misses double it into.
CHAIN_ENDS = 3


def nhpp_sample(hazard, count, rng) -> np.ndarray:
    """The first ``count`` times of an inhomogeneous Poisson process.

    One block of the stream sampler's Poisson stream: running sums tau_k of
    unit exponentials from ``rng``, mapped through the inverse cumulative
    hazard, t_k = inf{v : cumulative(v) >= tau_k}.
    """
    stream = _poisson_stream(hazard, rng)
    next(stream)
    return stream.send(positive_int("count", count))[:, 0]


def _poisson_stream(hazard, rng):
    """An inhomogeneous Poisson stream, extended a block at a time.

    A generator like ``superpose._rejuvenating_streams``, with one column.
    The unit exponentials accumulate left to right from the last one, as a
    running sum drawn one at a time does.
    """
    tau = np.zeros(1)
    k = yield
    while True:
        taus = np.cumsum(np.concatenate((tau, rng.exponential(size=k))))
        tau = taus[-1:]
        k = yield hazard.inverse_cumulative_unchecked(taus[1:])[:, None]


def simulate_algorithm1(am: ApproxModel, n_events=None, seed=None, *,
                        horizon=None) -> MaskedHistory:
    """Stream-decomposition sampler: the earliest times of all streams.

    Exactly one stopping rule is required: the ``n_events`` earliest times, or
    every time up to ``horizon``. Streams and their initial intensities
    (with ``base`` the per-component hazard under the model normalization):

    * n rejuvenating streams at ``delta * base`` under the model's repair rule
      (absent when delta = 0),
    * one Poisson stream with cumulative ``(1-delta) * (n-1) * base``
      cumulative hazard (absent when it vanishes),
    * one rejuvenating stream at ``(1-delta) * base`` (absent when delta = 1).

    Deterministic given ``seed``: each group draws from its own generator
    ``stream_rng(seed, role)``, role ``superpose.COMPONENTS`` (as
    ``simulate_sgrp`` keys its components, so delta = 1 is the exact
    superposition), ``POISSON`` or ``SINGLE``; stream i of the n component
    streams takes its group's draws ``i, n + i, 2n + i, ...``. The groups
    advance in blocks until every stream has passed the last time needed
    (``superpose._advance_streams``): memory is O(n_events + n) at a steady
    pace and O(n_events * n) at worst.
    """
    run, finish = _algorithm1_run(am, n_events, seed, horizon)
    return finish(*_advance_streams([run])[0])


def _algorithm1_run(am, n_events, seed, horizon):
    """``simulate_algorithm1``'s checked run, and its history from ``(blocks, cut)``."""
    n_events = _check_stop(n_events, horizon)
    if seed is None:
        raise ValueError("provide seed")
    if not am.repair.is_improving:
        raise DomainError("stream sampler requires repair effectiveness in [0, 1]")
    n, d = am.n, am.delta
    base = am.component_hazard()

    # (repair or None, hazard, generator or stream generator, how many
    # streams, each stream's share of the initial system rate)
    groups = []
    if d > 0.0:
        groups.append((am.repair, base.scaled(d), stream_rng(seed, COMPONENTS), n, d / n))
    share = (1.0 - d) * (n - 1)
    if share > 0.0:
        hazard = base.scaled(share)
        groups.append((None, hazard, _poisson_stream(hazard, stream_rng(seed, POISSON)), 1,
                       share / n))
    if d < 1.0:
        groups.append((am.repair, base.scaled(1.0 - d), stream_rng(seed, SINGLE), 1,
                       (1.0 - d) / n))

    def finish(blocks, cut):
        if not cut < inf:  # fewer than n_events finite times (NaN fails too)
            raise DomainError("a stream's time left the float range")
        times = np.concatenate(blocks, axis=None)
        # equal times are interchangeable, so the sorted order is a heap
        # merge's that breaks ties by stream index; ties nudged as in simulate_sgrp
        out = np.sort(times[times <= cut])[:n_events]
        out = out[:_nudge_ties(out, horizon)]
        return MaskedHistory(times=out, n=n, t_obs=float(out[-1] if horizon is None else horizon))

    return (groups, n_events, horizon), finish


def _squeeze(n):
    """``1 - kappa`` with ``kappa = 4 (n + 8) eps``; see :func:`simulate_thinning`."""
    return 1.0 - 4 * (n + 8) * np.finfo(float).eps


@np.errstate(over="ignore", invalid="ignore")  # refused below, with no warning
def simulate_thinning(am: ApproxModel, *, n_events=None, horizon=None,
                      seed=None, rng=None) -> MaskedHistory:
    """Window thinning driven by the exact model intensity.

    Between events the intensity is nondecreasing in t (fixed offsets, rising
    rate), so its value at the end of a lookahead window dominates the window
    and candidates from that homogeneous rate can be accepted with probability
    intensity/majorant (Ogata, 1981). The window starts at
    ``inverse_cumulative(1)/n``, doubles whenever a window stays empty, and
    tracks the median of the last 64 inter-event spacings once events accrue;
    correctness is independent of the window choice. The intensity is
    ``ApproxModel._intensity``, so the model's hazard and repair are checked
    once, at its first evaluation.

    One rate call serves a window and the misses after it: it evaluates the
    window's start and the ``CHAIN_ENDS`` window ends that the doubling rule
    reaches from there, each end computed with the loop's own float steps
    and horizon clip, so every majorant is the float a call at that end
    alone gives. A candidate is accepted without evaluating the intensity
    when ``U * majorant <= (1 - kappa) * L`` (Marsaglia's squeeze), where L
    is the intensity already computed at the window's start over the same
    lags: the event time, a missed window's end or a rejected candidate.

    The squeeze decides only what the evaluation would: for s <= t and
    nonnegative ages, ``fl((1 - kappa) * L(s)) <= L(t)`` with
    ``kappa = 4 (n + 8) eps``. Rounding keeps order, so every age at t is
    at least its age at s. A rate kernel within 3u (u = eps / 2) of a
    nondecreasing function of its float age, as the power law's pow within
    1 ulp and one product is, keeps ``rate(t) >= (1 - 6u) rate(s)``. A sum
    of n nonnegative terms is within a factor 1 +- (n - 1) u of exact, which
    costs the lower envelope (2n + 4) u in all; the upper envelope costs
    10u, the mix 4u more and the product with ``1 - kappa`` u: at most
    (2n + 15) u, and kappa is four times that. So every draw, decision and
    output bit is the evaluation's, at every window start: no offset passes
    its failure (``ARA.offset_step``), so no age is negative. A majorant or
    clock past the float range, as a very steep hazard gives, is refused.
    """
    n_events = _check_stop(n_events, horizon)
    if rng is None:
        if seed is None:
            raise ValueError("provide seed or rng")
        rng = stream_rng(seed)
    n = am.n
    cap = inf if horizon is None else float(horizon)
    squeeze = _squeeze(n)
    intensity, step = am._intensity, am.repair.offset_step
    exponential, uniform = rng.exponential, rng.random

    times = []
    # the median of the latest 64 inter-event gaps sets the window: the gaps
    # in arrival order, and the same gaps kept sorted
    gaps, ranked = deque(), []
    # offsets are fixed between events: the offset row holds the n lags,
    # newest first, then the fresh component's 0. Each accepted event shifts
    # the lags one place back, dropping the oldest, and puts its
    # single-component offset W(N) in front
    state, offsets = am.repair.offset_state(), np.zeros(n + 1)
    newer, older = offsets[1:n], offsets[:n - 1]
    t = 0.0
    window = float(am.hazard.inverse_cumulative(1.0)) / n
    # one rate call evaluates ``rows``: the window's start, then the window
    # ends still to come; ``i`` indexes the next end
    rows, i = [], 0
    while True:
        if n_events is not None and len(times) >= n_events:
            break
        if not t < cap:  # the horizon, or a clock past the float range (refused below)
            break
        if i == len(rows):
            rows, end, w = [t], t, window
            for _ in range(CHAIN_ENDS):
                end = end + w
                if end >= cap:
                    rows.append(cap)
                    break
                rows.append(end)
                w *= 2.0
            lam = intensity(rows, offsets)
            floor = squeeze * lam[0]
            if not floor < inf:  # NaN fails too
                raise DomainError("the model intensity left the float range")
            i = 1
        w_end, majorant = rows[i], lam[i]
        i += 1
        # the rate vanishes only at the very origin of a power law: no draw
        gap = inf if majorant <= 0.0 else float(exponential()) / majorant
        if t + gap >= w_end:
            # the window stayed empty: its end starts the next, twice as long
            t = w_end
            window *= 2.0
            floor = squeeze * majorant
            continue
        t = t + gap
        rows, i = [], 0  # the next window starts at t
        accept = uniform() * majorant
        if accept <= floor or accept <= intensity(t, offsets):
            if times:
                spacing = t - times[-1]
                gaps.append(spacing)
                insort(ranked, spacing)
                if len(gaps) > 64:
                    del ranked[bisect_left(ranked, gaps.popleft())]
                # the middle gap, or the mean of the two middle ones: np.median's float
                k = len(ranked) // 2
                window = ranked[k] if len(ranked) % 2 else (ranked[k - 1] + ranked[k]) / 2
            times.append(t)
            state, offset = step(state, t)
            newer[:] = older
            offsets[0] = offset
        elif not accept < inf:  # a majorant past the float range (NaN fails too)
            raise DomainError("the model intensity left the float range")

    if not t < inf:  # NaN fails too
        raise DomainError("the thinning clock left the float range")
    times = np.asarray(times, dtype=float)
    return MaskedHistory(times=times, n=n, t_obs=float(times[-1] if horizon is None else horizon))
