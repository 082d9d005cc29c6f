"""Empirical rate curves and point-process diagnostics.

The rate curve counts events in width-w bins anchored at the origin and
reports count/w per bin. Diagnostics follow the time-rescaling route: the
integrated intensity over each inter-event interval is a unit exponential
when the generating model is correct, checked with a one-sample
Kolmogorov-Smirnov gate against Exp(1).

The interval integrals come from :func:`intensity_integral`, a numpy form of
QUADPACK's 21-point Gauss-Kronrod rule (qk21) that calls the intensity once
per panel, on all 21 nodes. An interval whose first panel meets the
tolerance gets the bits ``scipy.integrate.quad`` returns for the same
intensity values; any other is bisected at its worst panel and agrees with
quad to the tolerance only.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["RateCurve", "rate_curve", "rescaled_residuals", "ks_exp1",
           "KsExp1Result", "mean_rate", "MeanRate", "intensity_integral"]

#: Asymptotic one-sample KS critical multipliers: D_alpha = c(alpha) / sqrt(n).
KS_CRITICAL = {0.01: 1.628, 0.05: 1.358}

#: The most bins one rate curve may hold. A curve is written one CSV row per
#: bin, so a bin width far below the time span asks for an absurd table
#: (a width of 1e-12 over 1,000 time units is 1e15 rows) and its arrays.
MAX_BINS = 10**7


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
    partially observed tail bin whose rate would be biased low. More than
    ``MAX_BINS`` bins is a DomainError, checked before anything is allocated.
    """
    if not 0.0 < bin_width < np.inf:
        raise DomainError("bin_width must be positive and finite")
    times = np.asarray(times, dtype=float)
    # written so that a NaN, which fails every comparison, is refused
    if times.size and not (times[0] >= 0.0 and np.all(np.diff(times) >= 0.0)):
        raise DomainError("times must be sorted and nonnegative")
    if horizon is None:
        bins = times[-1] // bin_width + 1.0 if times.size else 0.0
    elif horizon >= 0.0:
        bins = horizon // bin_width
    else:
        raise DomainError("horizon must be nonnegative")
    # compared before int(), since a tiny width's count can be inf
    if bins > MAX_BINS:
        raise DomainError(f"bin_width {bin_width:g} makes {bins:.3g} bins, "
                          f"more than the {MAX_BINS} a rate curve holds")
    n_bins = int(bins)
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


#: QUADPACK's qk21 abscissae on [0, 1), outermost first: the odd positions
#: 1, 3, .., 9 are the 10-point Gauss nodes, the even ones Kronrod's. The
#: centre 0 is the 21st node.
_XGK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
        0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
        0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
        0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
        0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
#: Kronrod weights of ``_XGK``, then of the centre.
_WGK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
        0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
        0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
        0.123491976262065851077208357297366, 0.134709217311473325928054001771707,
        0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
        0.149445554002916905664936468389821)
#: Gauss weights of the odd positions of ``_XGK``.
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
#: The 21 nodes on [-1, 1]: ``-_XGK``, the centre, then ``_XGK`` reversed, so
#: node j and node 20 - j are the symmetric pair of ``_XGK[j]``.
_NODES = np.array([-x for x in _XGK] + [0.0] + list(_XGK[::-1]))
_EPMACH = float(np.finfo(float).eps)
_UFLOW = float(np.finfo(float).tiny)
#: quad's default absolute tolerance, the relative one used here, and quad's
#: panel limit.
_EPSABS = 1.49e-8
_EPSREL = 1e-8
_LIMIT = 200


def _qk21(intensity, a, b):
    """QUADPACK's qk21 over [a, b]: (result, abserr, resasc), one intensity call.

    The values are summed as Python floats in qk21's order (the symmetric
    pairs, the Gauss positions first, then ``resasc``), so the panel carries
    the bits QUADPACK computes from the same intensity values.
    """
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fv = np.asarray(intensity(centr + hlgth * _NODES), dtype=float).tolist()
    fc = fv[10]
    resg = 0.0
    resk = _WGK[10] * fc
    resabs = abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        fval1, fval2 = fv[j], fv[20 - j]
        fsum = fval1 + fval2
        if j % 2:
            resg = resg + _WG[j // 2] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv[j] - reskh) + abs(fv[20 - j] - reskh))
    dhlgth = abs(hlgth)
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resasc


def intensity_integral(intensity):
    """Wrap a vectorised intensity as an interval integral by 21-point panels.

    Returns a callable (a, b) -> integral, suitable for
    :func:`rescaled_residuals`; ``intensity`` must map an array of times to
    an array of rates and is called once per panel, on its 21 nodes. The
    first panel is QUADPACK's qk21 over (a, b] and is accepted as quad
    accepts it, when its error estimate is at most ``max(1.49e-8, 1e-8 *
    |result|)`` and differs from ``resasc``, or is 0; the result is then
    bit-identical to ``scipy.integrate.quad(intensity, a, b, epsrel=1e-8,
    limit=200)`` on the same intensity values. Otherwise the panel with the
    largest error estimate is bisected until the summed estimates meet the
    same bound, which matches quad within the tolerance but not bit for bit;
    after 200 panels it stops with a RuntimeWarning.
    """

    def integral(a, b):
        a, b = float(a), float(b)
        if b <= a:
            return 0.0
        result, abserr, resasc = _qk21(intensity, a, b)
        if ((abserr <= max(_EPSABS, _EPSREL * abs(result)) and abserr != resasc)
                or abserr == 0.0):
            return result
        panels = [(a, b, result, abserr)]
        while True:
            total = math.fsum(p[2] for p in panels)
            if math.fsum(p[3] for p in panels) <= max(_EPSABS, _EPSREL * abs(total)):
                return total
            if len(panels) >= _LIMIT:
                warnings.warn(f"quadrature on ({a}, {b}) did not meet rtol={_EPSREL} "
                              f"within {_LIMIT} panels", RuntimeWarning, stacklevel=2)
                return total
            lo, hi, _, _ = panels.pop(max(range(len(panels)), key=lambda i: panels[i][3]))
            mid = 0.5 * (lo + hi)
            panels += [(lo, mid, *_qk21(intensity, lo, mid)[:2]),
                       (mid, hi, *_qk21(intensity, mid, hi)[:2])]

    return integral
