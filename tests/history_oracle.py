"""Reference implementations that recompute repair offsets from whole histories.

These are the O(history) loops the package used before its offsets became
incremental: every offset is rebuilt from a component's full failure history
at every event. The thinning loop likewise rebuilds its envelope offsets from
the whole masked history after every accepted event, one prefix at a time,
and evaluates each envelope term with its own rate call. The references for
the stream sampler and the exact superposition step one failure at a time,
each stream reading its own scalar draws of its group's generator
(``group_draws``), and merge the streams through a heap. The tests compare
the package's incremental and lock-step paths to them bit for bit.

``offset_step_fold`` is ``ARA.offset_step``'s fold over the last m failure
times at every memory order, without its shortcut for m = 1.

``approx_intensity_ara`` writes the model intensity out in closed form, as a
second arithmetic path for the envelope assembly. ``envelope_rates_columns``,
``envelope_cumulative_columns`` and ``model_intensity_columns`` are the
envelope route the package used before its offset rows carried the fresh
component's zero: the n lag ages written into an empty block, the fresh age
copied in as a last column, the power-law rate in three temporaries and the
sums on 0-d arrays for a float time. ``RampHazard`` is a hazard family
outside the shipped ones.
"""

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from sgrpsim import DomainError, MaskedHistory, stream_rng
from sgrpsim.approx import _check_history_n
from sgrpsim.bounds import _eval_time
from sgrpsim.hazards import Hazard, PowerLawHazard
from sgrpsim.repair import next_failure_time
from sgrpsim.superpose import COMPONENTS, POISSON, SINGLE


def offset_from_history(model, times):
    """ARA effective-age offset after the failures ``times`` of one component.

    The geometric sum, taken no further than the last failure: for m >= 2 it
    can round past it by an ulp (for m = 1 the minimum is the sum itself).
    """
    n_fail = len(times)
    if n_fail == 0 or model.rho == 0.0:
        return 0.0
    acc = 0.0
    w = model.rho
    for j in range(min(model.m, n_fail)):
        acc += w * float(times[n_fail - 1 - j])
        w *= 1.0 - model.rho
    return min(acc, float(times[n_fail - 1]))


def offset_step_fold(model, state, t):
    """``ARA.offset_step`` as the general fold: (new state, offset after ``t``).

    The sum starts from its first product and adds the older times' products
    newest first; for m >= 2 it is clamped to ``t``.
    """
    state = (state + (t,))[-model.m:]
    w = model.rho
    acc = w * t
    for s in reversed(state[:-1]):
        w *= 1.0 - model.rho
        acc += w * s
    if model.m > 1:
        acc = np.minimum(acc, t)
    return state, acc


def next_failure_from_history(model, hazard, times, exponential):
    """Inverse-transform draw of the next failure after the history ``times``."""
    offset = offset_from_history(model, times)
    last = float(times[-1]) if len(times) else 0.0
    target = hazard.cumulative(last - offset) + exponential
    t = offset + hazard.inverse_cumulative(target)
    if t <= last:
        t = float(np.nextafter(last, np.inf))
    return float(t)


def group_draws(rng, width):
    """Per-stream iterators over ``rng``'s scalar unit exponentials.

    The draws are taken one scalar at a time in (step, stream) order: step
    j's ``width`` draws, stream 0 first, when a stream first asks for its
    j-th. So stream i's j-th draw is the generator's draw number
    ``j * width + i``, in whatever order the streams are read.
    """
    rows = []

    def column(i):
        for j in itertools.count():
            if j == len(rows):
                rows.append([float(rng.standard_exponential()) for _ in range(width)])
            yield rows[j][i]

    return [column(i) for i in range(width)]


def simulate_sgrp_from_history(n, model, hazard, *, n_events=None, horizon=None, seed):
    """The exact superposition, merged one event at a time through a heap.

    Component c reads its draws from ``group_draws(stream_rng(seed,
    COMPONENTS), n)`` and re-reads its whole history per failure; equal
    times go to the lower component index. Returns the merged times, their
    1-based labels and the per-component times.
    """
    draws = group_draws(stream_rng(seed, COMPONENTS), n)
    comp_times = [[] for _ in range(n)]
    heap = [(next_failure_from_history(model, hazard, comp_times[c], next(draws[c])), c)
            for c in range(n)]
    heapq.heapify(heap)
    times, labels = [], []
    while True:
        t, c = heap[0]
        if horizon is not None and t > horizon:
            break
        heapq.heappop(heap)
        comp_times[c].append(t)
        times.append(t)
        labels.append(c + 1)
        if n_events is not None and len(times) >= n_events:
            break
        nxt = next_failure_from_history(model, hazard, comp_times[c], next(draws[c]))
        heapq.heappush(heap, (nxt, c))
    return (np.asarray(times, dtype=float), np.asarray(labels, dtype=int),
            [np.asarray(ts, dtype=float) for ts in comp_times])


def grp_stream_from_history(model, hazard, draws):
    """A rejuvenating stream that re-reads its whole history at every event.

    Its failures take the unit exponentials ``draws`` in order.
    """
    times = []
    for e in draws:
        t = next_failure_from_history(model, hazard, times, e)
        times.append(t)
        yield t


def grp_stream(model, hazard, draws):
    """A rejuvenating stream stepped one failure at a time, its offset stepped.

    Its failures take the unit exponentials ``draws`` in order.
    """
    state, offset, t = model.offset_state(), 0.0, 0.0
    for e in draws:
        t = next_failure_time(hazard, offset, t, e)
        state, offset = model.offset_step(state, t)
        yield t


def nhpp_stream(hazard, rng):
    """An inhomogeneous Poisson stream drawn one event at a time."""
    tau = 0.0
    while True:
        tau += float(rng.exponential())
        yield float(hazard.inverse_cumulative(tau))


def heap_merge(streams, count):
    """The first ``count`` times of the streams, merged smallest-first by a heap.

    Ties go to the lower stream index; a time not above the one emitted
    before it becomes the next float up.
    """
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
    return out


def simulate_algorithm1_heap(am, count, seed, grp=grp_stream):
    """The stream sampler stepped one failure at a time, merged by a heap.

    Each group reads its generator ``stream_rng(seed, role)`` through
    ``group_draws``; ``grp`` builds each rejuvenating stream from (model,
    hazard, draws).
    """
    if count < 1:
        raise DomainError("count must be >= 1")
    if not am.repair.is_improving:
        raise DomainError("stream sampler requires repair effectiveness in [0, 1]")
    n, d = am.n, am.delta
    base = am.component_hazard()

    streams = []
    if d > 0.0:
        for draws in group_draws(stream_rng(seed, COMPONENTS), n):
            streams.append(grp(am.repair, base.scaled(d), draws))
    if (1.0 - d) * (n - 1) > 0.0:
        streams.append(nhpp_stream(base.scaled((1.0 - d) * (n - 1)),
                                   stream_rng(seed, POISSON)))
    if d < 1.0:
        (draws,) = group_draws(stream_rng(seed, SINGLE), 1)
        streams.append(grp(am.repair, base.scaled(1.0 - d), draws))
    out = heap_merge(streams, count)
    return MaskedHistory(times=out, n=n, t_obs=float(out[-1]))


def envelope_offsets_from_history(model, hist, n):
    """The n envelope lag offsets after ``hist``, prefix by prefix.

    Lag i is the offset of one component that failed at every time of the
    prefix ``hist[:N - i]`` (0 once that prefix is empty), newest first; the
    upper envelope's single-component offset is lag 0.
    """
    return np.array([offset_from_history(model, hist[:max(len(hist) - i, 0)])
                     for i in range(n)])


def simulate_thinning_from_history(am, *, n_events=None, horizon=None, seed):
    """Window thinning that re-reads the whole masked history per accepted event."""
    rng = stream_rng(seed)
    hc = am.component_hazard()
    n, d = am.n, am.delta
    hist = np.empty(0)
    lags = envelope_offsets_from_history(am.repair, hist, n)

    def lam(t):
        lower = float(np.sum(hc.rate(t - lags)))
        upper = float((n - 1) * hc.rate(t) + hc.rate(t - lags[0]))
        return float(d * lower + (1.0 - d) * upper)

    t = 0.0
    window = float(am.hazard.inverse_cumulative(1.0)) / n
    while True:
        if n_events is not None and hist.size >= n_events:
            break
        if horizon is not None and t >= horizon:
            break
        w_end = t + window
        if horizon is not None:
            w_end = min(w_end, float(horizon))
        majorant = lam(w_end)
        if majorant <= 0.0:
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
            hist = np.append(hist, t)
            lags = envelope_offsets_from_history(am.repair, hist, n)
            if hist.size >= 2:
                window = float(np.median(np.diff(hist[-65:])))
    t_obs = float(horizon) if horizon is not None else (float(hist[-1]) if hist.size else 0.0)
    return MaskedHistory(times=hist, n=n, t_obs=t_obs)


def approx_intensity_ara(am, mh, t):
    """The model intensity in closed form, regime by regime.

    With N masked times: N = 0 is a fresh system, n rates at t. For N >= 1
    the lower envelope has min(N, n) lags, lag i at the offset
    ``W(N - i) = rho * sum_{j < min(m, N - i)} (1 - rho)^j * T[N - i - j]``,
    and n - min(N, n) fresh components; the upper envelope's one component
    carries ``W(N)``. Checks its arguments as ``approx_intensity`` does.
    """
    _check_history_n(am, mh)
    hc = am._envelope_hazard
    t = _eval_time(mh, t)
    times = mh.times
    big_n = int(times.size)
    n, d = am.n, am.delta
    m, rho = am.repair.m, am.repair.rho
    lam = hc.rate

    if big_n == 0:
        return float(n * lam(t))

    def w(length):
        j = np.arange(min(m, length))
        return float(np.sum(rho * np.power(1.0 - rho, j) * times[length - 1 - j]))

    lags = min(big_n, n)
    offs = np.array([w(big_n - i) for i in range(lags)])
    head = ((n - lags) * d + (n - 1) * (1.0 - d)) * lam(t)
    tail = d * float(np.sum(lam(t - offs)))
    return float(head + (1.0 - d) * lam(t - w(big_n)) + tail)


def _envelope_ages(t, lags):
    """Columns: the n lag ages, then the fresh age; one row per element of ``t``."""
    t = np.asarray(t, dtype=float)
    n = lags.shape[-1]
    ages = np.empty(t.shape + (n + 1,))
    np.subtract(t[..., None], lags, out=ages[..., :n])
    ages[..., n] = t
    return ages


def _rate(hazard, ages):
    """The rate kernel, the power law written with its three temporaries."""
    if type(hazard) is PowerLawHazard:
        return (hazard.beta / hazard.eta) * np.power(ages / hazard.eta, hazard.beta - 1.0)
    return hazard.rate_unchecked(ages)


def _envelope_sums(values, t):
    """(lower, upper) from per-age values laid out as in ``_envelope_ages``."""
    n = values.shape[-1] - 1
    lower = np.add.reduce(values[..., :n], axis=-1)
    if isinstance(t, list):
        return lower.tolist(), [(n - 1) * fresh + lag0 for lag0, fresh in values[:, ::n].tolist()]
    return lower, (n - 1) * values[..., n] + values[..., 0]


def envelope_rates_columns(hazard, t, lags):
    """(lower, upper) at ``t`` over the n ``lags``, the fresh age written as a column."""
    return _envelope_sums(_rate(hazard, _envelope_ages(t, lags)), t)


def envelope_cumulative_columns(hazard, a, b, lags):
    """(lower, upper) envelope integrals over ``(a, b]``, the fresh age as a column."""
    terms = (hazard.cumulative_unchecked(_envelope_ages(b, lags))
             - hazard.cumulative_unchecked(_envelope_ages(a, lags)))
    return _envelope_sums(terms, b)


def model_intensity_columns(am, t, lags):
    """delta * lower + (1 - delta) * upper over the n ``lags``, mixed as the package did."""
    lower, upper = envelope_rates_columns(am._envelope_hazard, t, lags)
    d, e = am.delta, 1.0 - am.delta
    if isinstance(t, list):
        return [d * lo + e * up for lo, up in zip(lower, upper)]
    mixed = d * lower + e * upper
    return float(mixed) if isinstance(t, float) else mixed


@dataclass(frozen=True)
class RampHazard(Hazard):
    """rate(x) = slope * min(x, cap): nondecreasing, and flat from ``cap`` on.

    A family under the three-kernel contract that is neither a power law nor
    constant: once every age passes ``cap`` an intensity built on it is
    exactly flat.
    """

    slope: float
    cap: float
    is_nondecreasing = True

    def rate_unchecked(self, ages):
        return self.slope * np.minimum(ages, self.cap)

    def cumulative_unchecked(self, ages):
        x = np.minimum(ages, self.cap)
        return self.slope * (0.5 * x * x + self.cap * (ages - x))

    def inverse_cumulative_unchecked(self, u):
        knee = 0.5 * self.slope * self.cap * self.cap
        return np.where(u <= knee, np.sqrt(2.0 * u / self.slope),
                        self.cap + (u - knee) / (self.slope * self.cap))

    def scaled(self, factor):
        return RampHazard(self.slope * factor, self.cap)

    def to_config(self):
        return {"family": "ramp", "slope": self.slope, "cap": self.cap}
