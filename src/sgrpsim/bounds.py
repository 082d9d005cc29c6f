"""Intensity envelopes for masked failure data from a series system.

With component labels removed, the system intensity is bracketed by two
attributions of the masked times ``T_1 < ... < T_N``. Under the
age-reduction repair ``ARA(m, rho)`` both read one array, ``W``: ``W(L)`` is
the offset a single component carries after failing at all of
``T_1..T_L``, and ``W(L) = 0`` for ``L <= 0``.

* Lower: ``sum_{i<n} rate(t - W(N-i))``. A component whose latest failure is
  at or before ``T_L`` has offset at most ``W(L)``, and the k components with
  the largest offsets have distinct latest failures, so the k-th largest
  offset is at most ``W(N-k+1)``; a nondecreasing rate makes the sum a lower
  bound for every m. For m = 1 it is the paper's round robin (each of the
  last n failures on its own component); for m >= 2 it departs from it.
* Upper: every failure lands on one component, the other n-1 stay fresh:
  ``(n-1) rate(t) + rate(t - W(N))``. It is a bound for m = 1.

So both envelopes read one lag array ``W(N), .., W(N-n+1)``: the upper's
offset is lag 0. Every other lag's rate is at most the fresh rate, so
lower <= upper. Both require a nondecreasing rate and effectiveness in
[0, 1]. Every evaluation reads one offset row, the n lags and then the fresh
component's offset 0 (:func:`envelope_offset_row`), so ``t - row`` gives all
n + 1 ages in one subtraction.

With a different hazard per component, :func:`heterogeneous_upper` takes
the largest over c of a failure at ``T_N`` on component c, offset
``rho * T_N``, the others fresh: a bound for every m, and lag 0 for m = 1.

Evaluation at a failure time uses the left limit: the history handed in must
exclude an event exactly at ``t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, positive_int
from .repair import check_history
from .superpose import BLOCK_ROWS, MaskedHistory

__all__ = ["BoundPair", "sgrp_bounds", "sgrp_bounds_at_events", "heterogeneous_upper",
           "envelope_offset_rows", "envelope_offset_row", "envelope_rates",
           "envelope_cumulative"]


@dataclass(frozen=True)
class BoundPair:
    """Lower/upper system-intensity envelope values at time ``at``."""

    lower: float
    upper: float
    at: float


def _require_envelope(repair, *hazards):
    """Refuse a harmful ``repair``, then a hazard whose rate can decrease."""
    if not repair.is_improving:
        raise DomainError("envelopes require repair effectiveness in [0, 1]")
    if not all(h.is_nondecreasing for h in hazards):
        raise DomainError("envelopes require a nondecreasing hazard rate")


def _eval_time(mh, t):
    """A scalar ``t`` as a float, any other as a float array.

    Refused when a time is NaN or precedes the last masked failure.
    """
    last = float(mh.times[-1]) if mh.times.size else 0.0
    if np.ndim(t) == 0:
        t = float(t)
        ok = t >= last
    else:
        t = np.asarray(t, dtype=float)
        # the earliest time, NaN if any is NaN: one reduction, no bool array
        ok = np.minimum.reduce(t, axis=None, initial=np.inf) >= last
    if not ok:  # NaN fails the comparison too
        if np.isnan(t).any():
            raise DomainError("evaluation time t is NaN")
        raise DomainError(f"t={float(np.min(t))} precedes the last masked failure at {last}")
    return t


def envelope_offset_rows(times, n, ara):
    """Lag offsets of every prefix of ``times``.

    Row k, for k = 0..N, holds the lags after ``times[:k]``:
    ``W(k), W(k-1), .., W(k-n+1)`` newest first. The rows are read-only
    views of one copy of ``W`` behind n zeros for ``W(L <= 0)``.
    """
    padded = np.concatenate((np.zeros(n), ara.offsets_after(times)))
    padded.flags.writeable = False
    # row k reads padded[k + n - 1] down to padded[k]
    step = padded.itemsize
    return np.ndarray((padded.size - n + 1, n), float, padded, (n - 1) * step, (step, -step))


def envelope_offset_row(times, n, ara):
    """The lags ``W(N), .., W(N-n+1)``, then the fresh component's offset 0.

    Read-only: the last row of :func:`envelope_offset_rows` with one column
    more, so that ``t - row`` is one row of envelope ages. The last n lags
    read only the last n + m - 1 times.
    """
    lags = ara.offsets_after(times[-(n + ara.m - 1):])[::-1][:n]
    row = np.zeros(n + 1)
    row[:lags.size] = lags
    row.flags.writeable = False
    return row


def _ages(t, rows):
    """One row of ages per element of ``t``: the n lag ages, then the fresh age."""
    return np.asarray(t, dtype=float)[..., None] - rows


def _envelope_sums(values, t):
    """(lower, upper) from per-age values laid out as in :func:`_ages`.

    For a list of times, two lists of Python floats: they take numpy's IEEE
    operations, and for a few rows cost less than numpy's per-call overhead.
    """
    n = values.shape[-1] - 1
    lower = np.add.reduce(values[..., :n], axis=-1)
    if isinstance(t, list):
        # columns 0 and n: lag 0's value, then the fresh one
        return lower.tolist(), [(n - 1) * fresh + lag0 for lag0, fresh in values[:, ::n].tolist()]
    return lower, (n - 1) * values[..., n] + values[..., 0]


def envelope_rates(hazard, t, rows):
    """(lower, upper) envelope values at ``t`` from one rate-kernel call.

    lower: the sum of the n lag rates; upper: n-1 fresh components plus lag
    0's rate. ``rows`` is one offset row of :func:`envelope_offset_row`
    (the n lags, then the fresh component's 0), or one such row per time.
    ``t`` is an array of times, a list of floats, which gives two lists, or
    a float, which is the one-element list and gives two floats. Each time
    takes one row of ages, so a row's lag rates are contiguous and every
    row reduces them alike: a time gives the same floats in every form.

    Uses the trusted ``hazard.rate_unchecked``: the caller has checked that
    the hazard is nondecreasing and that ``t`` does not precede the history
    the offsets come from, so every age is >= 0.
    """
    if isinstance(t, float):
        (lower,), (upper,) = envelope_rates(hazard, [t], rows)
        return lower, upper
    return _envelope_sums(hazard.rate_unchecked(_ages(t, rows)), t)


def envelope_cumulative(hazard, a, b, rows):
    """(lower, upper) envelope integrals over ``(a, b]``: the closed-form compensator.

    Each age term contributes ``H(b - o) - H(a - o)`` with ``H`` the
    cumulative hazard, over offset ``rows`` and summed as in
    :func:`envelope_rates`. The offsets must hold on the whole interval,
    i.e. no event lies in ``(a, b)`` and ``a`` does not precede the history
    they come from, so every age is >= 0 and the trusted
    ``hazard.cumulative_unchecked`` applies.
    """
    terms = hazard.cumulative_unchecked(_ages(b, rows)) - hazard.cumulative_unchecked(_ages(a, rows))
    return _envelope_sums(terms, b)


def _one_time(mh, t):
    """:func:`_eval_time` for a scalar ``t``; an array of times is refused."""
    if np.ndim(t) != 0:
        raise DomainError(f"t must be one time, got shape {np.shape(t)}: "
                          f"sgrp_bounds_at_events and envelope_rates take many")
    return _eval_time(mh, t)


def sgrp_bounds(mh: MaskedHistory, model, hazard, t) -> BoundPair:
    """Envelope under an improving age-reduction repair family at one time ``t``.

    Replacement repair is ``Perfect()``, i.e. ``ARA(1, 1.0)``.
    """
    _require_envelope(model, hazard)
    t = _one_time(mh, t)
    lower, upper = envelope_rates(hazard, t, envelope_offset_row(mh.times, mh.n, model))
    return BoundPair(lower=lower, upper=upper, at=t)


def sgrp_bounds_at_events(times, n, model, hazard):
    """Left-limit envelopes at each event of a masked trajectory.

    Row k is evaluated at ``times[k]`` with the history strictly before it, so
    it equals ``sgrp_bounds`` on the k-event prefix, bit for bit. ``W`` is
    computed once; rows are evaluated in blocks of at most ``BLOCK_ROWS``,
    with one rate call per block, over one block of offset rows whose last
    column stays 0. Returns (lower, upper) arrays.
    """
    n = positive_int("component count n", n)
    _require_envelope(model, hazard)
    times = check_history(times)
    lower = np.empty(times.size)
    upper = np.empty(times.size)
    lags = envelope_offset_rows(times, n, model)
    rows = np.zeros((min(BLOCK_ROWS, times.size), n + 1))
    for k0 in range(0, times.size, BLOCK_ROWS):
        k1 = min(k0 + BLOCK_ROWS, times.size)
        block = rows[:k1 - k0]
        block[:, :n] = lags[k0:k1]
        lower[k0:k1], upper[k0:k1] = envelope_rates(hazard, times[k0:k1], block)
    return lower, upper


def heterogeneous_upper(mh: MaskedHistory, hazards, model, t) -> float:
    """Upper envelope for components with different hazards, one per component.

    The largest over c of ``sum_{c' != c} rate_c'(t) + rate_c(t - rho * T_N)``
    (offset 0 for no failures): a failure at ``T_N`` on c, the others fresh.
    A bound for every m and nondecreasing hazards in any order: the component
    that failed at ``T_N`` has offset at least ``fl(rho * T_N)``, the first
    term of its float fold, which nonnegative terms or the clamp at ``T_N``
    cannot lower. For m = 1 the offset is ``W(N)``, and each candidate is
    attained, so this is the least upper bound over all labellings. All
    components share the repair model; ties keep the first maximiser.
    """
    if len(hazards) != mh.n:
        raise DomainError(f"need one hazard per component: {len(hazards)} != n={mh.n}")
    _require_envelope(model, *hazards)
    t = _one_time(mh, t)
    age = t - (model.rho * mh.times[-1] if mh.times.size else 0.0)
    rates = [float(h.rate(t)) for h in hazards]
    return max(sum(rates[:c] + rates[c + 1:]) + float(h.rate(age))
               for c, h in enumerate(hazards))
