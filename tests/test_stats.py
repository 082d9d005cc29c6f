import numpy as np
import pytest
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

    @pytest.mark.parametrize("times,bin_width,horizon", [
        ([1000.0], 1e-12, None), ([1.0], 1e-300, 1e300)], ids=["petabytes", "inf-bins"])
    def test_absurd_bin_count_rejected(self, times, bin_width, horizon):
        # 1e15 bins would ask numpy for petabytes; 1e300 / 1e-300 is inf,
        # which int() cannot take
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
