import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy import stats as sps

import sgrpsim.bounds as bounds
import sgrpsim.stats as stats
from sgrpsim import (ARA, ApproxModel, ConstantHazard, DomainError, MaskedHistory,
                     Perfect, PowerLawHazard, approx_intensity, intensity_integral,
                     ks_exp1, mean_rate, rate_curve, rescaled_residuals,
                     simulate_sgrp, simulate_thinning, stream_rng,
                     true_system_intensity)

PL = PowerLawHazard(1.3, 40.0)


class TestRateCurve:
    def test_hand_count(self):
        curve = rate_curve([100.0, 900.0, 1500.0], 1000.0)
        assert np.array_equal(curve.starts, [0.0, 1000.0])
        assert np.array_equal(curve.counts, [2, 1])
        assert np.allclose(curve.rates, [0.002, 0.001])

    def test_empty(self):
        assert len(rate_curve([], 1000.0)) == 0

    def test_horizon_drops_partial_tail_bin(self):
        curve = rate_curve([100.0, 900.0, 1500.0], 1000.0, horizon=1500.0)
        assert np.array_equal(curve.starts, [0.0])
        assert np.array_equal(curve.counts, [2])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_horizon_drops_an_event_past_the_integer_range(self):
        # 3e19 // 1 passes int64; no bin index is formed from an event, so
        # it lies past the last edge and is dropped, not wrapped
        curve = rate_curve([0.5, 3e19], 1.0, horizon=10.0)
        assert np.array_equal(curve.starts, np.arange(10.0))
        assert np.array_equal(curve.counts, [1] + [0] * 9)

    def test_event_on_a_rounded_edge_is_in_the_bin_starting_there(self):
        # 5 * 0.1 exceeds 0.5 in exact arithmetic but rounds to 0.5: the
        # edge decides, so 0.5 lies in [0.5, 0.6), not in [0.4, 0.5)
        curve = rate_curve([0.5], 0.1)
        assert curve.starts[-1] == 0.5
        assert curve.counts.tolist() == [0, 0, 0, 0, 0, 1]

    def test_bin_ending_at_the_horizon_is_kept(self):
        # 0.5 // 0.1 is 4, but the fifth bin's end edge fl(5 * 0.1) is 0.5
        curve = rate_curve([0.05], 0.1, horizon=0.5)
        assert len(curve) == 5
        assert curve.edges[-1] == 0.5
        assert curve.counts.tolist() == [1, 0, 0, 0, 0]

    @settings(max_examples=300, deadline=None)
    @given(times=st.lists(st.floats(0.0, 1e4), max_size=60).map(sorted),
           bin_width=st.floats(0.01, 900.0, exclude_min=True, exclude_max=True),
           horizon=st.none() | st.floats(0.0, 1e4))
    def test_every_event_lies_in_its_printed_bin(self, times, bin_width, horizon):
        curve = rate_curve(times, bin_width, horizon=horizon)
        assert np.array_equal(curve.edges, np.arange(len(curve) + 1) * bin_width)
        starts, ends = curve.starts, curve.edges[1:]
        assert np.array_equal(ends[:-1], starts[1:])
        # the counts are the events inside each printed [start, end)
        kept = np.asarray([t for t in times if len(curve) and t < ends[-1]])
        k = np.searchsorted(ends, kept, side="right")
        assert np.all((starts[k] <= kept) & (kept < ends[k]))
        assert np.array_equal(np.bincount(k, minlength=len(curve)), curve.counts)
        if horizon is None:
            assert int(curve.counts.sum()) == len(times)
            assert not times or k[-1] == len(curve) - 1
        else:
            # every bin whose end edge is at most the horizon, and no other
            assert len(curve) == 0 or ends[-1] <= horizon
            assert (len(curve) + 1) * bin_width > horizon

    def test_conservation(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            times = np.sort(rng.uniform(0.0, 5000.0, size=int(rng.integers(1, 400))))
            curve = rate_curve(times, float(rng.uniform(50.0, 900.0)))
            assert int(curve.counts.sum()) == times.size

    def test_poisson_mean(self):
        rng = stream_rng(72)
        lam0 = 0.1
        times = np.cumsum(rng.exponential(1.0 / lam0, size=100_000))
        curve = rate_curve(times, 1000.0, horizon=float(times[-1]))
        se = np.sqrt(lam0 / (1000.0 * len(curve)))
        assert abs(curve.rates.mean() - lam0) < 3 * se

    def test_unsorted_rejected(self):
        with pytest.raises(DomainError):
            rate_curve([2.0, 1.0], 1.0)
        with pytest.raises(DomainError):
            rate_curve([1.0], 0.0)

    @pytest.mark.parametrize("times", [[1.0, np.nan, 3.0], [np.nan], [np.nan, 2.0],
                                       [1.0, 2.0, np.nan]])
    def test_nan_time_rejected(self, times):
        with pytest.raises(DomainError, match="sorted and nonnegative"):
            rate_curve(times, 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("times,horizon", [
        ([0.5, np.inf], None), ([0.5, np.inf], 10.0), ([0.5], np.inf), ([0.5], np.nan)])
    def test_infinite_time_or_horizon_rejected(self, times, horizon):
        # inf // bin_width is NaN, which no bin-count check may let through
        with pytest.raises(DomainError, match="finite"):
            rate_curve(times, 1.0, horizon=horizon)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("times,bin_width,horizon", [
        ([1000.0], 1e-12, None), ([1.0], 1e-300, 1e300), ([1e300], 1e-300, None)],
        ids=["petabytes", "inf-bins", "inf-bins-past-the-last-event"])
    def test_absurd_bin_count_rejected(self, times, bin_width, horizon):
        # 1e15 bins would ask numpy for petabytes; 1e300 / 1e-300 is inf,
        # which int() cannot take, and a numpy scalar warns on its way there
        with pytest.raises(DomainError, match="bins"):
            rate_curve(times, bin_width, horizon=horizon)

    def test_bin_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(stats, "MAX_BINS", 10)
        assert len(rate_curve([9.5], 1.0)) == 10
        assert len(rate_curve([], 1.0, horizon=10.5)) == 10
        with pytest.raises(DomainError, match="11 bins"):
            rate_curve([10.0], 1.0)
        with pytest.raises(DomainError, match="11 bins"):
            rate_curve([], 1.0, horizon=11.0)


class TestRescaledResiduals:
    def test_unit_rate(self):
        res = rescaled_residuals([1.0, 2.0, 3.0], lambda a, b: b - a)
        assert np.allclose(res, [1.0, 1.0, 1.0])

    def test_negative_integral_signals_bug(self):
        with pytest.raises(RuntimeError):
            rescaled_residuals([1.0, 2.0], lambda a, b: a - b)

    def test_nan_integral_signals_bug(self):
        with pytest.raises(RuntimeError):
            rescaled_residuals([1.0, 2.0], lambda a, b: np.nan if a else b - a)

    def test_full_history_diagnostics(self):
        # residuals of the exact superposition against its own intensity
        model = ARA(1, 0.3)
        full = simulate_sgrp(3, model, PL, n_events=500, seed=73)
        # true_system_intensity takes one time, so it is mapped over the nodes
        integral = intensity_integral(
            lambda u: np.array([true_system_intensity(full, model, PL, x) for x in u]))
        res = rescaled_residuals(full.times, integral)
        assert not ks_exp1(res).rejects[0.01]


def quad(intensity, a, b, rtol=1e-8):
    """scipy's adaptive quadrature with the tolerances intensity_integral uses."""
    return integrate.quad(intensity, a, b, epsrel=rtol, limit=200)[0]


def within_tolerance(value):
    """``value`` to quad's error bound: rtol 1e-8, or 1.49e-8 absolute near 0."""
    return pytest.approx(value, rel=1e-8, abs=1.49e-8)


class CountingIntensity:
    """A vectorised intensity that records the shape of every call."""

    def __init__(self, fn):
        self.fn = fn
        self.shapes = []

    def __call__(self, t):
        self.shapes.append(np.shape(t))
        return self.fn(t)


class TestIntensityIntegral:
    def test_model_intervals_bitwise_equal_quad(self):
        # the bench's model between thinning events: every interval is
        # accepted on its first panel and gets quad's bits
        am = ApproxModel(100, 0.5, PL, ARA(1, 0.3))
        times = simulate_thinning(am, n_events=300, seed=81).times
        for k in range(200, times.size):
            a, b = float(times[k - 1]), float(times[k])
            hist = MaskedHistory(times[:k], am.n, t_obs=a)
            counted = CountingIntensity(lambda u: approx_intensity(am, hist, u))
            got = intensity_integral(counted)(a, b)
            assert counted.shapes == [(21,)]
            assert got == quad(lambda u: approx_intensity(am, hist, u), a, b)

    @pytest.mark.parametrize("hazard", [PL, ConstantHazard(0.2)], ids=["power_law", "constant"])
    def test_envelope_intervals_bitwise_equal_quad(self, hazard):
        rng = np.random.default_rng(82)
        n, ara = 5, ARA(1, 0.4)
        times = np.cumsum(rng.exponential(2.0, size=60))
        for k in range(10, times.size):
            row = bounds.envelope_offset_row(times[:k], n, ara)
            a, b = float(times[k - 1]), float(times[k])
            for side in (0, 1):
                counted = CountingIntensity(
                    lambda t: bounds.envelope_rates(hazard, t, row)[side])
                got = intensity_integral(counted)(a, b)
                assert counted.shapes == [(21,)]
                assert got == quad(lambda t: float(bounds.envelope_rates(
                    hazard, t, row)[side]), a, b)

    def test_perfect_repair_from_age_zero_bisects_to_tolerance(self):
        # rate(t - 10) ~ (t - 10)**0.3 has an unbounded slope at the repair
        hist = [10.0]
        counted = CountingIntensity(
            lambda u: Perfect().conditional_intensity(PL, hist, u))
        for b in (10.5, 17.0, 60.0, 400.0):
            counted.shapes.clear()
            got = intensity_integral(counted)(10.0, b)
            # the first panel is refused, then each split evaluates two panels
            assert len(counted.shapes) > 1 and len(counted.shapes) % 2 == 1
            assert set(counted.shapes) == {(21,)}
            ref = quad(lambda u: Perfect().conditional_intensity(PL, hist, u), 10.0, b)
            assert got == within_tolerance(ref)
            assert got == within_tolerance(PL.cumulative(b - 10.0))

    def test_sqrt_bisects_to_tolerance(self):
        for b in (1e-3, 1.0, 250.0):
            got = intensity_integral(np.sqrt)(0.0, b)
            assert got == within_tolerance(quad(np.sqrt, 0.0, b))
            assert got == within_tolerance(2.0 / 3.0 * b ** 1.5)

    def test_empty_interval_is_zero(self):
        counted = CountingIntensity(np.sqrt)
        assert intensity_integral(counted)(2.0, 2.0) == 0.0
        assert intensity_integral(counted)(3.0, 2.0) == 0.0
        assert counted.shapes == []

    def test_warns_when_panels_run_out(self):
        # about 1,600 periods on (0, 1) need more than 200 panels
        counted = CountingIntensity(lambda u: np.sin(1e4 * u))
        with pytest.warns(RuntimeWarning, match="200 panels"):
            intensity_integral(counted)(0.0, 1.0)
        # the first panel, then 199 splits of two panels each
        assert len(counted.shapes) == 1 + 2 * 199


class TestKsExp1:
    def test_matches_scipy_statistic(self):
        rng = stream_rng(74)
        for _ in range(5):
            sample = rng.exponential(size=200)
            ours = ks_exp1(sample).statistic
            ref = sps.kstest(sample, "expon").statistic
            assert ours == pytest.approx(ref, rel=1e-12)

    def test_calibration(self):
        # rejection rate over 200 seeded samples should track alpha
        rejections = {0.01: 0, 0.05: 0}
        runs = 200
        for s in range(runs):
            sample = stream_rng(75, s).exponential(size=10_000)
            result = ks_exp1(sample)
            for alpha in rejections:
                rejections[alpha] += result.rejects[alpha]
        assert rejections[0.01] <= 8          # binomial(200, .01): 4 sd above mean
        assert 1 <= rejections[0.05] <= 23    # binomial(200, .05): ~4 sd band

    @pytest.mark.parametrize("nans", [30, 1])
    def test_nan_residuals_rejected(self, nans):
        # a NaN has no place in the empirical CDF, all of them or one
        sample = np.concatenate((stream_rng(77).exponential(size=30 - nans),
                                 np.full(nans, np.nan)))
        with pytest.raises(DomainError, match="NaN"):
            ks_exp1(sample)

    def test_degenerate_sample_rejected(self):
        result = ks_exp1(np.ones(100))
        assert result.rejects[0.01] and result.rejects[0.05]

    def test_wrong_scale_detected(self):
        sample = stream_rng(76).exponential(0.5, size=10_000)
        assert ks_exp1(sample).rejects[0.01]

    def test_minimum_sample_size(self):
        with pytest.raises(DomainError):
            ks_exp1(np.ones(19))


class TestMeanRate:
    def test_uniform_example(self):
        times = np.arange(10) * 10.0  # 10 events on [0, 100)
        got = mean_rate(times, (0.0, 100.0))
        assert got.rate == 0.1
        assert got.count == 10
        assert got.se == pytest.approx(np.sqrt(10) / 100.0)

    def test_window_past_events(self):
        assert mean_rate([1.0, 2.0], (10.0, 20.0)).rate == 0.0

    def test_poisson_calibration(self):
        lam0 = 0.05
        times = np.cumsum(stream_rng(77).exponential(1.0 / lam0, size=5000))
        window = (0.0, float(times[-1]))
        got = mean_rate(times, window)
        assert abs(got.rate - lam0) < 3 * got.se

    def test_window_validation(self):
        with pytest.raises(DomainError):
            mean_rate([1.0], (5.0, 5.0))
        with pytest.raises(DomainError):
            mean_rate([1.0], (-1.0, 5.0))

    @pytest.mark.parametrize("times", [[5.0, 1.0, 3.0], [1.0, np.nan, 3.0], [-1.0, 2.0],
                                       [1.0, np.inf]])
    def test_times_checked_as_rate_curve_checks_them(self, times):
        # unsorted [5, 1, 3] counted 3 events on [0, 4) and [1, nan, 3] one;
        # residuals over [2, 1, 3] read a silent 0 for the backward interval
        message = "^times must be finite, sorted and nonnegative$"
        for fn in (lambda: mean_rate(times, (0.0, 4.0)), lambda: rate_curve(times, 1.0),
                   lambda: rescaled_residuals(times, lambda a, b: b - a)):
            with pytest.raises(DomainError, match=message):
                fn()
