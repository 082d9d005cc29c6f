"""Reference implementations that recompute repair offsets from whole histories.

These are the O(history) loops the package used before its offsets became
incremental: every offset is rebuilt from a component's full failure history
at every event. The thinning loop likewise rebuilds its envelope offsets from
the whole masked history after every accepted event and evaluates each
envelope term with its own rate call. The tests compare the package's
incremental paths to them bit for bit.
"""

import heapq

import numpy as np

from sgrpsim import MaskedHistory, ara_lag_offsets, stream_rng


def offset_from_history(model, times):
    """ARA effective-age offset after the failures ``times`` of one component."""
    n_fail = len(times)
    if n_fail == 0 or model.rho == 0.0:
        return 0.0
    acc = 0.0
    w = model.rho
    for j in range(min(model.m, n_fail)):
        acc += w * float(times[n_fail - 1 - j])
        w *= 1.0 - model.rho
    return acc


def next_failure_from_history(model, hazard, times, exponential):
    """Inverse-transform draw of the next failure after the history ``times``."""
    offset = offset_from_history(model, times)
    last = float(times[-1]) if len(times) else 0.0
    target = hazard.cumulative(last - offset) + exponential
    t = offset + hazard.inverse_cumulative(target)
    if t <= last:
        t = float(np.nextafter(last, np.inf))
    return float(t)


def simulate_sgrp_from_history(n, model, hazard, *, n_events=None, horizon=None, seed):
    """The exact superposition, re-reading each component's history per event.

    Returns the merged (times, labels) with 1-based labels.
    """
    rng = stream_rng(seed)
    comp_times = [[] for _ in range(n)]
    heap = [(next_failure_from_history(model, hazard, comp_times[c],
                                       float(rng.exponential())), c)
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
        nxt = next_failure_from_history(model, hazard, comp_times[c],
                                        float(rng.exponential()))
        heapq.heappush(heap, (nxt, c))
    return np.asarray(times, dtype=float), np.asarray(labels, dtype=int)


def grp_stream_from_history(model, hazard, rng):
    """A rejuvenating stream that re-reads its whole history at every event."""
    times = []
    while True:
        t = next_failure_from_history(model, hazard, times, float(rng.exponential()))
        times.append(t)
        yield t


def simulate_thinning_from_history(am, *, n_events=None, horizon=None, seed):
    """Window thinning that re-reads the whole masked history per accepted event."""
    rng = stream_rng(seed)
    hc = am.component_hazard()
    n, d = am.n, am.delta
    m, rho = am.repair.m, am.repair.rho
    hist = np.empty(0)
    # the single-component offset is lag 0 of a one-component round robin
    lower_off = ara_lag_offsets(hist, n, m, rho)
    upper_off = ara_lag_offsets(hist, 1, m, rho)[0]

    def lam(t):
        lower = float(np.sum(hc.rate(t - lower_off)))
        upper = float((n - 1) * hc.rate(t) + hc.rate(t - upper_off))
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
            lower_off = ara_lag_offsets(hist, n, m, rho)
            upper_off = ara_lag_offsets(hist, 1, m, rho)[0]
            if hist.size >= 2:
                window = float(np.median(np.diff(hist[-65:])))
    t_obs = float(horizon) if horizon is not None else (float(hist[-1]) if hist.size else 0.0)
    return MaskedHistory(times=hist, n=n, t_obs=t_obs)
