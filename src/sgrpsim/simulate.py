"""Samplers for the combined-envelope intensity model.

Two independent routes generate masked trajectories whose target intensity is
the weighted envelope combination:

* ``simulate_algorithm1`` decomposes the model into subprocess streams — n
  rejuvenating component streams carrying the weighted round-robin mass, one
  inhomogeneous Poisson stream carrying the fresh-component mass, and one
  extra rejuvenating stream for the single-component term — then emits the
  earliest times across streams. Every stream draws from its own derived
  seed, so streams sharing a hazard advance together, block by block, one
  vector step per failure of each; the result does not depend on the block
  sizes, and memory is O(count + n) at a steady pace.
* ``simulate_thinning`` samples directly from the exact model intensity by
  window thinning and serves as the oracle for the stream decomposition,
  whose faithfulness to the model is reported rather than assumed.

Each stream of the decomposition restarts its own clock at its own failures;
whether the single-component stream should instead restart at system
failures is left open by the decomposition itself, and the pre-generated
reading is used here.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from .approx import ApproxModel
from .bounds import envelope_offsets, envelope_rates
from .errors import DomainError
from .rng import stream_rng
from .superpose import MaskedHistory

__all__ = ["nhpp_sample", "simulate_algorithm1", "simulate_thinning"]


def nhpp_sample(hazard, count, rng=None, *, uniforms=None) -> np.ndarray:
    """Inversion sampling of an inhomogeneous Poisson process.

    Accumulates unit exponentials tau_k and maps them through the inverse
    cumulative hazard: t_k = inf{v : cumulative(v) >= tau_k}. ``uniforms``
    forces the driving U(0,1) draws for deterministic tests.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if uniforms is None:
        if rng is None:
            raise ValueError("either rng or forced uniforms are required")
        uniforms = rng.random(int(count))
    u = np.asarray(uniforms, dtype=float)
    if u.size != count:
        raise ValueError(f"need exactly {count} uniforms, got {u.size}")
    if np.any(u <= 0.0) or np.any(u > 1.0):
        raise DomainError("uniform draws must lie in (0, 1]")
    taus = np.cumsum(-np.log(u))
    return np.asarray(hazard.inverse_cumulative(taus), dtype=float)


def _rejuvenating_streams(model, hazard, rngs):
    """Rejuvenating streams sharing ``hazard``, advanced in lock step.

    A generator: each ``send(k)`` returns the next ``k`` failure times of
    every stream as a ``(k, len(rngs))`` array, column i drawn from
    ``rngs[i]``. A step is ``next_failure_time`` and ``ARA.offset_step``
    applied elementwise, and a block draw from a generator equals that many
    scalar draws, so each column is bit for bit the stream drawn one failure
    at a time.
    """
    state, offset, t = model.offset_state(), 0.0, 0.0
    k = yield
    while True:
        block = np.column_stack([rng.exponential(size=k) for rng in rngs])
        # a lone stream steps on scalars, which cost less than 1-element arrays
        rows = block[:, 0] if len(rngs) == 1 else block
        for j in range(k):
            # next_failure_time's guards: the age clamped at 0, and a time not
            # past the last failure becomes the next float up
            target = hazard.cumulative_unchecked(np.maximum(t - offset, 0.0)) + rows[j]
            t = np.maximum(offset + hazard.inverse_cumulative_unchecked(target),
                           np.nextafter(t, np.inf))
            state, offset = model.offset_step(state, t)
            rows[j] = t
        k = yield block


def _poisson_stream(hazard, rng):
    """An inhomogeneous Poisson stream, extended a block at a time.

    A generator like ``_rejuvenating_streams``, with one column. The unit
    exponentials accumulate left to right from the last one, as a running sum
    drawn one at a time does.
    """
    tau = np.zeros(1)
    k = yield
    while True:
        taus = np.cumsum(np.concatenate((tau, rng.exponential(size=k))))
        tau = taus[-1:]
        k = yield hazard.inverse_cumulative_unchecked(taus[1:])[:, None]


def _merge(times, count):
    """The ``count`` smallest ``times`` in increasing order, ties nudged apart.

    Equal times are interchangeable, so the order of a heap merge that breaks
    ties by stream index is the sorted order. A time not above the one before
    it (or not above 0 for the first) becomes the next float up, sequentially
    from the first such tie.
    """
    out = np.sort(times)[:count]
    ties = np.flatnonzero(out <= np.concatenate(([0.0], out[:-1])))
    for k in range(ties[0] if ties.size else count, count):
        prev = out[k - 1] if k else 0.0
        if out[k] <= prev:  # float coincidence across streams
            out[k] = np.nextafter(prev, np.inf)
    return out


def simulate_algorithm1(am: ApproxModel, count, seed) -> MaskedHistory:
    """Stream-decomposition sampler: the ``count`` earliest times of all streams.

    Streams and their initial intensities (with ``base`` the per-component
    hazard under the model normalization):

    * n rejuvenating streams at ``delta * base`` under the model's repair rule
      (absent when delta = 0),
    * one Poisson stream with cumulative ``(1-delta) * (n-1) * base``
      cumulative hazard (absent when it vanishes),
    * one rejuvenating stream at ``(1-delta) * base`` (absent when delta = 1).

    Deterministic given ``seed``: every stream draws from its own derived
    generator keyed by (seed, stream-index). Streams sharing a hazard advance
    together in blocks until every stream has reached the ``count``-th
    smallest time generated, so no later time can enter the merge. A block is
    at most ``count`` steps, and a stream holding ``count`` times has reached
    that time, so a stream takes fewer than ``2 * count`` steps: memory is
    O(count + n) at a steady pace and O(count * n) at worst.
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if not am.repair.is_improving:
        raise DomainError("stream sampler requires repair effectiveness in [0, 1]")
    n, d, count = am.n, am.delta, int(count)
    if d == 1.0 and n == 1:
        raise DomainError("delta=1 with n=1 is degenerate (a single bare stream)")
    base = am.component_hazard()

    # (lock-step streams, each stream's share of the initial system rate)
    groups = []
    if d > 0.0:
        rngs = [stream_rng(seed, i) for i in range(n)]
        groups.append((_rejuvenating_streams(am.repair, base.scaled(d), rngs), d / n))
    if (1.0 - d) * (n - 1) > 0.0:
        share = (1.0 - d) * (n - 1)
        groups.append((_poisson_stream(base.scaled(share), stream_rng(seed, n)), share / n))
    if d < 1.0:
        rngs = [stream_rng(seed, n + 1)]
        groups.append((_rejuvenating_streams(am.repair, base.scaled(1.0 - d), rngs),
                       (1.0 - d) / n))

    # the first blocks hold at least count times, since the shares sum to 1
    steps = [math.ceil(count * share) for _, share in groups]
    blocks = [[] for _ in groups]
    for streams, _ in groups:
        next(streams)  # run each generator to its first send
    pending = range(len(groups))
    while pending:
        for g in pending:
            blocks[g].append(groups[g][0].send(steps[g]))
        times = np.concatenate([b.ravel() for bs in blocks for b in bs])
        t_star = np.partition(times, count - 1)[count - 1]
        slowest = [bs[-1][-1].min() for bs in blocks]  # each group's earliest last time
        pending = [g for g, t in enumerate(slowest) if t < t_star]
        for g in pending:
            # as many steps again as the slowest stream's pace extrapolates to
            # t_star, at most count: a stream holding count times has reached it
            done = sum(len(b) for b in blocks[g])
            steps[g] = math.ceil(min(done * (t_star / slowest[g] - 1.0), count - 1)) + 1
    out = _merge(times, count)
    return MaskedHistory(times=out, n=n, t_obs=float(out[-1]))


def _median(values):
    """Median of floats: the middle value, or the mean of the two middle ones.

    The same float as ``np.median``, without its array overhead.
    """
    s = sorted(values)
    k = len(s) // 2
    return s[k] if len(s) % 2 else (s[k - 1] + s[k]) / 2


def simulate_thinning(am: ApproxModel, *, n_events=None, horizon=None,
                      seed=None, rng=None) -> MaskedHistory:
    """Window thinning driven by the exact model intensity.

    Between events the intensity is nondecreasing in t (fixed offsets, rising
    rate), so its value at the end of a lookahead window dominates the window
    and candidates from that homogeneous rate can be accepted with probability
    intensity/majorant. The window starts at ``inverse_cumulative(1)/n``,
    doubles whenever a window stays empty, and tracks the median of the last
    64 inter-event spacings once events accrue; correctness is independent of
    the window choice.
    """
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
    hc = am.component_hazard()
    if not hc.is_nondecreasing:
        raise DomainError("thinning requires a nondecreasing hazard (window majorant)")
    if not am.repair.is_improving:
        raise DomainError("thinning requires repair effectiveness in [0, 1]")
    n, d = am.n, am.delta
    # the lag offsets read at most the last n*m times, the single-component
    # offset the last m, so the offsets of that tail are those of the history
    tail = n * am.repair.m

    times = []
    gaps = deque(maxlen=64)  # the latest inter-event gaps set the window
    # offsets are fixed between events, so cache them per accepted event
    offsets = envelope_offsets(times, n, am.repair)

    def lam(t):
        lower, upper = envelope_rates(hc, t, *offsets)
        return float(d * lower + (1.0 - d) * upper)

    t = 0.0
    window = float(am.hazard.inverse_cumulative(1.0)) / n
    while True:
        if n_events is not None and len(times) >= n_events:
            break
        if horizon is not None and t >= horizon:
            break
        w_end = t + window
        if horizon is not None:
            w_end = min(w_end, float(horizon))
        majorant = lam(w_end)
        if majorant <= 0.0:
            # rate can vanish only at the very origin of a power law
            t = w_end
            window *= 2.0
            continue
        gap = float(rng.exponential()) / majorant
        if t + gap >= w_end:
            t = w_end
            window *= 2.0
            continue
        t = t + gap
        if rng.random() * majorant <= lam(t):
            if times:
                gaps.append(t - times[-1])
            times.append(t)
            offsets = envelope_offsets(times[-tail:], n, am.repair)
            if gaps:
                window = _median(gaps)

    times = np.asarray(times, dtype=float)
    t_obs = float(horizon) if horizon is not None else (float(times[-1]) if times.size else 0.0)
    return MaskedHistory(times=times, n=n, t_obs=t_obs)
