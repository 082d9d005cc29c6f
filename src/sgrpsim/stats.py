"""Empirical rate curves and point-process diagnostics.

The rate curve counts events in width-w bins anchored at the origin and
reports count/w per bin. Diagnostics follow the time-rescaling route: the
integrated intensity over each inter-event interval is a unit exponential
when the generating model is correct, checked with a one-sample
Kolmogorov-Smirnov gate against Exp(1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["RateCurve", "rate_curve", "rescaled_residuals", "ks_exp1",
           "KsExp1Result", "mean_rate", "MeanRate", "intensity_integral"]

#: Asymptotic one-sample KS critical multipliers: D_alpha = c(alpha) / sqrt(n).
KS_CRITICAL = {0.01: 1.628, 0.05: 1.358}


@dataclass(frozen=True)
class RateCurve:
    """Per-bin event rates; ``rates[k] = counts[k] / bin_width``."""

    bin_width: float
    starts: np.ndarray
    counts: np.ndarray

    @property
    def rates(self):
        return self.counts / self.bin_width

    def __len__(self):
        return int(self.starts.size)


def rate_curve(times, bin_width, horizon=None) -> RateCurve:
    """Count events in left-closed bins [k*w, (k+1)*w) anchored at 0.

    Without a horizon the curve runs through the bin holding the last event.
    With a horizon only bins fully inside [0, horizon] are kept, dropping the
    partially observed tail bin whose rate would be biased low.
    """
    if not bin_width > 0.0:
        raise DomainError("bin_width must be positive")
    times = np.asarray(times, dtype=float)
    # written so that a NaN, which fails every comparison, is refused
    if times.size and not (times[0] >= 0.0 and np.all(np.diff(times) >= 0.0)):
        raise DomainError("times must be sorted and nonnegative")
    if horizon is None:
        if times.size == 0:
            return RateCurve(float(bin_width), np.empty(0), np.empty(0, dtype=int))
        n_bins = int(times[-1] // bin_width) + 1
    else:
        if horizon < 0.0:
            raise DomainError("horizon must be nonnegative")
        n_bins = int(horizon // bin_width)
        if n_bins == 0:
            return RateCurve(float(bin_width), np.empty(0), np.empty(0, dtype=int))
    idx = (times // bin_width).astype(int)
    counts = np.bincount(idx[idx < n_bins], minlength=n_bins)
    starts = np.arange(n_bins) * float(bin_width)
    return RateCurve(float(bin_width), starts, counts)


def rescaled_residuals(times, integrated_intensity) -> np.ndarray:
    """Integrated intensity over each inter-event interval, starting from 0.

    ``integrated_intensity(a, b)`` must return the intensity integral over
    (a, b]. Under the true generating model the residuals are i.i.d. Exp(1).
    A negative residual signals a non-monotone integral and a NaN one an
    undefined integral, i.e. an intensity bug; either raises RuntimeError.
    """
    times = np.asarray(times, dtype=float)
    res = np.empty(times.size)
    prev = 0.0
    for k in range(times.size):
        t = float(times[k])
        r = float(integrated_intensity(prev, t))
        if not r >= 0.0:  # NaN fails the comparison too
            raise RuntimeError(
                f"residual {r} on ({prev}, {t}): intensity integral not monotone or NaN")
        res[k] = r
        prev = t
    return res


@dataclass(frozen=True)
class KsExp1Result:
    statistic: float
    n_samples: int
    rejects: dict  # alpha -> bool


def ks_exp1(residuals) -> KsExp1Result:
    """One-sample Kolmogorov-Smirnov distance to Exp(1) with asymptotic gates."""
    x = np.sort(np.asarray(residuals, dtype=float))
    n = int(x.size)
    if n < 20:
        raise DomainError(f"need at least 20 residuals, got {n}")
    cdf = 1.0 - np.exp(-x)
    hi = np.arange(1, n + 1) / n
    lo = np.arange(n) / n
    d = float(max(np.max(hi - cdf), np.max(cdf - lo)))
    rejects = {alpha: bool(d > c / np.sqrt(n)) for alpha, c in KS_CRITICAL.items()}
    return KsExp1Result(statistic=d, n_samples=n, rejects=rejects)


@dataclass(frozen=True)
class MeanRate:
    rate: float
    se: float
    count: int
    window: tuple


def mean_rate(times, window) -> MeanRate:
    """Events per unit time on [t1, t2) with a Poisson-approximation SE."""
    t1, t2 = float(window[0]), float(window[1])
    if not (t2 > t1 >= 0.0):
        raise DomainError(f"need t2 > t1 >= 0, got ({t1}, {t2})")
    times = np.asarray(times, dtype=float)
    lo, hi = np.searchsorted(times, [t1, t2], side="left")
    count = int(hi - lo)
    span = t2 - t1
    return MeanRate(rate=count / span, se=float(np.sqrt(count)) / span,
                    count=count, window=(t1, t2))


def intensity_integral(intensity, rtol=1e-8):
    """Wrap a pointwise intensity as an adaptive-quadrature interval integral.

    Returns a callable (a, b) -> integral, suitable for
    :func:`rescaled_residuals`. scipy's quadrature is imported on first
    use, which keeps it off the package's import path.
    """
    from scipy import integrate

    def integral(a, b):
        if b <= a:
            return 0.0
        value, _ = integrate.quad(intensity, a, b, epsrel=rtol, limit=200)
        return float(value)

    return integral
