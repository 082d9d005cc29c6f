"""Reference implementations that recompute repair offsets from whole histories.

These are the O(history) loops the package used before its offsets became
incremental: every offset is rebuilt from a component's full failure history
at every event. The tests compare the package's incremental paths to them bit
for bit.
"""

import heapq

import numpy as np

from sgrpsim import ARA, Kijima1, Minimal, Perfect, stream_rng


def offset_from_history(model, times):
    """Effective-age offset after the failures ``times`` of one component."""
    n_fail = len(times)
    if isinstance(model, Kijima1):
        # virtual age by the increment recursion; offset = T_N - V_N
        if n_fail == 0:
            return 0.0
        v = 0.0
        prev = 0.0
        for t in times:
            t = float(t)
            v += model.a * (t - prev)
            prev = t
        return prev - v
    if isinstance(model, ARA):
        if n_fail == 0 or model.rho == 0.0:
            return 0.0
        acc = 0.0
        w = model.rho
        for j in range(min(model.m, n_fail)):
            acc += w * float(times[n_fail - 1 - j])
            w *= 1.0 - model.rho
        return acc
    if isinstance(model, Perfect):
        return float(times[-1]) if n_fail else 0.0
    if isinstance(model, Minimal):
        return 0.0
    raise TypeError(f"no reference offset for {model!r}")


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
