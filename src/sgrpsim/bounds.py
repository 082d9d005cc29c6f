"""Intensity envelopes for masked failure data from a series system.

With component labels removed, the system intensity is bracketed by the two
extreme attributions of the masked times. For the lower envelope each of the
last n system failures lands on a distinct component (round-robin further
back), which keeps the fleet as young as possible; for the upper envelope
every failure lands on one component, leaving the other n-1 components at the
fresh rate. Both reduce to shifted evaluations of the initial rate under the
age-reduction repair family, and both require a nondecreasing rate and
effectiveness in [0, 1].

Evaluation at a failure time uses the left limit: the history handed in must
exclude an event exactly at ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .repair import check_history
from .superpose import BLOCK_ROWS, MaskedHistory

__all__ = ["BoundPair", "sgrp_bounds", "sgrp_bounds_at_events", "heterogeneous_upper",
           "ara_lag_offsets", "envelope_offsets", "envelope_rates", "envelope_cumulative"]


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper system-intensity envelope values at time ``at``."""

    lower: float
    upper: float
    at: float


def _require_nondecreasing(hazard):
    if not hazard.is_nondecreasing:
        raise DomainError("bound evaluation requires a nondecreasing hazard rate")


def _require_improving(model):
    if not model.is_improving:
        raise DomainError("bound evaluation requires repair effectiveness in [0, 1]")


def _eval_time(mh, t) -> float:
    """``t`` as a float, refused when NaN or before the last masked failure."""
    t = float(t)
    last = float(mh.times[-1]) if mh.times.size else 0.0
    if not t >= last:
        if t != t:
            raise DomainError("evaluation time t is NaN")
        raise DomainError(f"t={t} precedes the last masked failure at {last}")
    return t


def ara_lag_offsets(times, n, m, rho, lengths=None) -> np.ndarray:
    """Age offsets of the n lag intensities forming the lower envelope.

    Lag i (i = 0..n-1) stands for the component whose latest assumed failure
    is the (N-i)-th masked time; earlier failures are attributed every n
    events further back. Lags with no attributed failure keep offset 0 (a
    fresh component). Once every lag has a failure (N > n) the geometric
    memory is capped uniformly at min(floor(N/n), m) terms per lag.

    With ``lengths``, an array of prefix lengths, it returns one row per
    length: row r equals, bit for bit, the offsets of ``times[:lengths[r]]``.
    """
    times = np.asarray(times, dtype=float)
    if lengths is None:
        big_n = n_max = times.size
    else:
        big_n = np.asarray(lengths)[:, None]
        n_max = int(big_n.max(initial=0))
    if times.size == 0 or rho == 0.0:
        return np.zeros(np.shape(big_n)[:1] + (n,))
    q_max = min(max(n_max // n - 1, 0), m - 1)
    q = q_max if lengths is None else np.minimum(big_n // n - 1, m - 1)
    weights = rho * np.power(1.0 - rho, np.arange(q_max + 1))
    lag_n = big_n - np.arange(n)  # 1-based index of each lag's newest time
    out = None
    for j, w in enumerate(weights):
        idx = lag_n - n * j
        keep = idx >= 1
        if j:  # rows whose memory holds fewer terms add +0.0
            keep &= q >= j
        term = w * np.where(keep, times[np.maximum(idx, 1) - 1], 0.0)
        out = term if out is None else out + term
    return out


def envelope_offsets(times, n, ara, lengths=None):
    """(lag offsets, single-component offset) of the two envelopes under ``ara``.

    The single-component offset is lag 0 of a one-component round robin,
    where every masked time lands on the same component. With ``lengths``
    both have one row per prefix length (see :func:`ara_lag_offsets`).
    """
    return (ara_lag_offsets(times, n, ara.m, ara.rho, lengths),
            ara_lag_offsets(times, 1, ara.m, ara.rho, lengths)[..., 0])


def _envelope_ages(t, lower_off, upper_off):
    """Columns: the n lag ages, the fresh age, the single-component age."""
    t = np.asarray(t, dtype=float)
    n = np.shape(lower_off)[-1]
    ages = np.empty(t.shape + (n + 2,))
    ages[..., :n] = t[..., None] - lower_off
    ages[..., n] = t
    ages[..., n + 1] = t - upper_off
    return ages


def _envelope_sums(values):
    """(lower, upper) from per-age values laid out as in :func:`_envelope_ages`."""
    n = values.shape[-1] - 2
    return values[..., :n].sum(axis=-1), (n - 1) * values[..., n] + values[..., n + 1]


def envelope_rates(hazard, t, lower_off, upper_off):
    """(lower, upper) envelope values at ``t`` from one rate-kernel call.

    lower: the sum of the n lag rates ``rate(t - lower_off)``; upper: n-1
    fresh components plus ``rate(t - upper_off)``. A vector ``t`` takes one
    row of ``lower_off`` and one entry of ``upper_off`` per element.

    Uses the trusted ``hazard.rate_unchecked``: the caller has checked that
    the hazard is nondecreasing and that ``t`` does not precede the history
    the offsets come from, so every age is >= 0.
    """
    return _envelope_sums(hazard.rate_unchecked(_envelope_ages(t, lower_off, upper_off)))


def envelope_cumulative(hazard, a, b, lower_off, upper_off):
    """(lower, upper) envelope integrals over ``(a, b]``: the closed-form compensator.

    Each age term contributes ``H(b - o) - H(a - o)`` with ``H`` the
    cumulative hazard, summed as in :func:`envelope_rates`. The offsets must
    hold on the whole interval, i.e. no event lies in ``(a, b)`` and ``a``
    does not precede the history they come from, so every age is >= 0 and
    the trusted ``hazard.cumulative_unchecked`` applies.
    """
    terms = (hazard.cumulative_unchecked(_envelope_ages(b, lower_off, upper_off))
             - hazard.cumulative_unchecked(_envelope_ages(a, lower_off, upper_off)))
    return _envelope_sums(terms)


def sgrp_bounds(mh: MaskedHistory, model, hazard, t) -> BoundPair:
    """Envelope under an improving age-reduction repair family.

    Replacement repair is ``Perfect()``, i.e. ``ARA(1, 1.0)``. The offsets
    of ``mh`` are computed once per repair model and kept on it.
    """
    _require_nondecreasing(hazard)
    _require_improving(model)
    t = _eval_time(mh, t)
    lower, upper = envelope_rates(hazard, t, *mh.envelope_offsets(model))
    return BoundPair(lower=float(lower), upper=float(upper), at=t)


def sgrp_bounds_at_events(times, n, model, hazard):
    """Left-limit envelopes at each event of a masked trajectory.

    Row k is evaluated at ``times[k]`` with the history strictly before it, so
    it equals ``sgrp_bounds`` on the k-event prefix, bit for bit. Rows are
    evaluated in blocks of at most ``BLOCK_ROWS``, with one rate call per
    block. Returns (lower, upper) arrays.
    """
    _require_nondecreasing(hazard)
    _require_improving(model)
    times = check_history(times)
    lower = np.empty(times.size)
    upper = np.empty(times.size)
    for k0 in range(0, times.size, BLOCK_ROWS):
        k1 = min(k0 + BLOCK_ROWS, times.size)
        offsets = envelope_offsets(times, n, model, np.arange(k0, k1))
        lower[k0:k1], upper[k0:k1] = envelope_rates(hazard, times[k0:k1], *offsets)
    return lower, upper


def heterogeneous_upper(mh: MaskedHistory, hazards, model, t, grid_points=256) -> float:
    """Upper envelope for components with ordered heterogeneous hazards.

    ``hazards`` must be sorted weakest-first; the pointwise ordering is
    validated on a uniform grid over [0, t] (``grid_points`` points) before
    evaluation. All masked failures are attributed to the weakest component,
    which all share the same repair model.
    """
    if len(hazards) != mh.n:
        raise DomainError(f"need one hazard per component: {len(hazards)} != n={mh.n}")
    _require_improving(model)
    for h in hazards:
        _require_nondecreasing(h)
    t = _eval_time(mh, t)
    grid = np.linspace(0.0, t, grid_points)
    rates = np.vstack([np.atleast_1d(h.rate(grid)) for h in hazards])
    bad = rates[:-1] > rates[1:]
    if np.any(bad):
        first = float(grid[int(np.argmax(np.any(bad, axis=0)))])
        raise DomainError(f"initial intensities are not ordered at t={first}")
    rest = sum(float(h.rate(t)) for h in hazards[1:])
    return rest + float(model.conditional_intensity(hazards[0], mh.times, t))
