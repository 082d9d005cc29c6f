"""Samplers for the combined-envelope intensity model.

Two independent routes generate masked trajectories whose target intensity is
the weighted envelope combination:

* ``simulate_algorithm1`` decomposes the model into subprocess streams — n
  rejuvenating component streams carrying the weighted round-robin mass, one
  inhomogeneous Poisson stream carrying the fresh-component mass, and one
  extra rejuvenating stream for the single-component term — then emits the
  running minimum across streams. Streams are generated lazily with derived
  seeds, so the merge is deterministic and needs O(1) memory per stream.
* ``simulate_thinning`` samples directly from the exact model intensity by
  window thinning and serves as the oracle for the stream decomposition,
  whose faithfulness to the model is reported rather than assumed.

Each stream of the decomposition restarts its own clock at its own failures;
whether the single-component stream should instead restart at system
failures is left open by the decomposition itself, and the pre-generated
reading is used here.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from .approx import ApproxModel
from .bounds import envelope_offsets, envelope_rates
from .errors import DomainError
from .repair import next_failure_time
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


def _grp_stream(model, hazard, rng):
    state, offset, t = model.offset_state(), 0.0, 0.0
    while True:
        t = next_failure_time(hazard, offset, t, float(rng.exponential()))
        state, offset = model.offset_step(state, t)
        yield t


def _nhpp_stream(hazard, rng):
    tau = 0.0
    while True:
        tau += float(rng.exponential())
        yield float(hazard.inverse_cumulative(tau))


def simulate_algorithm1(am: ApproxModel, count, seed) -> MaskedHistory:
    """Stream-decomposition sampler: merge subprocess streams smallest-first.

    Streams and their initial intensities (with ``base`` the per-component
    hazard under the model normalization):

    * n rejuvenating streams at ``delta * base`` under the model's repair rule
      (absent when delta = 0),
    * one Poisson stream with cumulative ``(1-delta) * (n-1) * base``
      cumulative hazard (absent when it vanishes),
    * one rejuvenating stream at ``(1-delta) * base`` (absent when delta = 1).

    Deterministic given ``seed``: every stream draws from its own derived
    generator keyed by (seed, stream-index).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if not am.repair.is_improving:
        raise DomainError("stream sampler requires repair effectiveness in [0, 1]")
    n, d = am.n, am.delta
    if d == 1.0 and n == 1:
        raise DomainError("delta=1 with n=1 is degenerate (a single bare stream)")
    base = am.component_hazard()

    streams = []
    if d > 0.0:
        for i in range(n):
            streams.append(_grp_stream(am.repair, base.scaled(d), stream_rng(seed, i)))
    if (1.0 - d) * (n - 1) > 0.0:
        streams.append(_nhpp_stream(base.scaled((1.0 - d) * (n - 1)), stream_rng(seed, n)))
    if d < 1.0:
        streams.append(_grp_stream(am.repair, base.scaled(1.0 - d), stream_rng(seed, n + 1)))

    heap = [(next(s), i, s) for i, s in enumerate(streams)]
    heapq.heapify(heap)
    out = np.empty(int(count))
    prev = 0.0
    for k in range(int(count)):
        t, i, s = heapq.heappop(heap)
        if t <= prev:  # float coincidence across streams
            t = float(np.nextafter(prev, np.inf))
        out[k] = t
        prev = t
        heapq.heappush(heap, (next(s), i, s))
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
