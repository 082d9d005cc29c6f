import numpy as np
import pytest

from history_oracle import approx_intensity_ara, envelope_offsets_from_history
from sgrpsim import (ARA, ApproxModel, ConstantHazard, DomainError, MaskedHistory,
                     Normalization, PowerLawHazard, approx_intensity, sgrp_bounds)
from sgrpsim.bounds import envelope_offset_row

PL = PowerLawHazard(1.3, 40.0)


def mh(times, n):
    times = np.asarray(times, dtype=float)
    last = times[-1] if times.size else 0.0
    return MaskedHistory(times, n, last)


def random_case(rng, n=None, force_regime=None):
    n = n or int(rng.integers(1, 9))
    if force_regime == 0:
        k = 0
    elif force_regime == 2:
        k = int(rng.integers(1, n + 1))
    elif force_regime == 3:
        k = int(rng.integers(n + 1, 4 * n + 2))
    else:
        k = int(rng.integers(0, 3 * n + 2))
    times = np.sort(rng.uniform(0.0, 90.0, size=k))
    times = np.unique(times)
    masked = mh(times, n)
    t = (times[-1] if times.size else 0.0) + float(rng.uniform(0.0, 30.0))
    model = ApproxModel(
        n=n,
        delta=float(rng.uniform(0.0, 1.0)),
        hazard=PL if rng.random() < 0.7 else ConstantHazard(0.2),
        repair=ARA(int(rng.integers(1, 4)), float(rng.uniform(0.0, 1.0))),
        normalization=Normalization.SYSTEM_SPLIT if rng.random() < 0.5
        else Normalization.COMPONENT,
    )
    return model, masked, t


def rel_gap(a, b):
    return abs(a - b) / max(1.0, abs(a), abs(b))


class TestConstruction:
    def test_delta_range(self):
        with pytest.raises(DomainError):
            ApproxModel(2, 1.2, PL, ARA(1, 0.3))
        with pytest.raises(DomainError):
            ApproxModel(2, -0.1, PL, ARA(1, 0.3))

    def test_component_hazard_split(self):
        am = ApproxModel(4, 0.5, PL, ARA(1, 0.3))
        t = 13.0
        assert am.component_hazard().rate(t) == pytest.approx(PL.rate(t) / 4, rel=1e-12)
        am2 = ApproxModel(4, 0.5, PL, ARA(1, 0.3), Normalization.COMPONENT)
        assert am2.component_hazard() is PL

    def test_mismatched_n_rejected(self):
        am = ApproxModel(3, 0.5, PL, ARA(1, 0.3))
        with pytest.raises(DomainError):
            approx_intensity(am, mh([1.0], 5), 2.0)

    def test_nan_time_rejected(self):
        am = ApproxModel(3, 0.5, PL, ARA(1, 0.3))
        for masked in (mh([1.0, 4.0], 3), mh([], 3)):
            for fn in (approx_intensity, approx_intensity_ara):
                with pytest.raises(DomainError, match="NaN"):
                    fn(am, masked, np.nan)

    def test_array_times_equal_scalar_calls_bitwise(self):
        rng = np.random.default_rng(59)
        for i in range(40):
            am, masked, t = random_case(rng, n=100 if i % 4 == 0 else None)
            ts = t + np.concatenate(([0.0], rng.exponential(5.0, size=20)))
            got = approx_intensity(am, masked, ts)
            assert got.shape == ts.shape
            assert got.tolist() == [approx_intensity(am, masked, u) for u in ts.tolist()]

    def test_array_times_checked(self):
        am = ApproxModel(3, 0.5, PL, ARA(1, 0.3))
        for masked in (mh([1.0, 4.0], 3), mh([], 3)):
            with pytest.raises(DomainError, match="NaN"):
                approx_intensity(am, masked, np.array([5.0, np.nan, 6.0]))
        with pytest.raises(DomainError, match="precedes the last masked failure"):
            approx_intensity(am, mh([1.0, 4.0], 3), np.array([5.0, 3.5, 6.0]))

    def test_domain_checks_hold_at_every_evaluation(self):
        # the checked (repair, hazard) pair is resolved lazily; a model that
        # fails the checks keeps failing instead of caching a bad result
        h = PowerLawHazard(0.8, 10.0, allow_decreasing=True)
        for am in (ApproxModel(3, 0.5, h, ARA(1, 0.3)), ApproxModel(3, 0.5, PL, ARA(1, -0.2))):
            for _ in range(2):
                for fn in (approx_intensity, approx_intensity_ara):
                    with pytest.raises(DomainError):
                        fn(am, mh([1.0, 4.0], 3), 5.0)


class TestHistoryMemo:
    """One history evaluated under several models equals fresh evaluations."""

    #: pairs share m or rho, so the offsets must follow both
    REPAIRS = (ARA(1, 0.3), ARA(3, 0.3), ARA(3, 0.6))

    def test_repeated_evaluations_match_fresh_histories_bitwise(self):
        rng = np.random.default_rng(57)
        n = 6
        times = np.cumsum(rng.exponential(1.5, size=40))
        masked = mh(times, n)
        models = [ApproxModel(n, delta, PL, repair)
                  for repair in self.REPAIRS for delta in (0.2, 0.9)]
        ts = times[-1] + np.array([0.0, 0.4, 3.0, 11.0])
        for t in np.concatenate([ts, ts[::-1]]).tolist():
            for am in models + models[::-1]:
                fresh = mh(times.copy(), n)
                assert approx_intensity(am, masked, t) == approx_intensity(am, fresh, t)
                got = sgrp_bounds(masked, am.repair, am.component_hazard(), t)
                expect = sgrp_bounds(mh(times.copy(), n), am.repair, am.component_hazard(), t)
                assert (got.lower, got.upper) == (expect.lower, expect.upper)
        for repair in self.REPAIRS:
            assert np.array_equal(envelope_offset_row(masked.times, n, repair),
                                  np.append(envelope_offsets_from_history(repair, times, n), 0.0))

    def test_times_are_read_only(self):
        masked = mh([1.0, 2.0, 4.0], 2)
        approx_intensity(ApproxModel(2, 0.5, PL, ARA(1, 0.3)), masked, 5.0)
        with pytest.raises(ValueError):
            masked.times[-1] = 4.5
        with pytest.raises(ValueError):
            envelope_offset_row(masked.times, 2, ARA(1, 0.3))[0] = 0.0


class TestEmptyHistory:
    def test_system_split_returns_system_rate(self):
        am = ApproxModel(100, 0.7, PL, ARA(1, 0.3))
        got = approx_intensity(am, mh([], 100), 25.0)
        assert got == pytest.approx(PL.rate(25.0), rel=1e-12)
        assert approx_intensity_ara(am, mh([], 100), 25.0) == pytest.approx(got, rel=1e-14)

    def test_component_normalization_returns_n_rates(self):
        am = ApproxModel(5, 0.7, PL, ARA(1, 0.3), Normalization.COMPONENT)
        got = approx_intensity(am, mh([], 5), 25.0)
        assert got == pytest.approx(5 * PL.rate(25.0), rel=1e-12)


class TestReductions:
    def test_delta_one_is_lower_envelope(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            model, masked, t = random_case(rng)
            model = ApproxModel(model.n, 1.0, model.hazard, model.repair,
                                model.normalization)
            pair = sgrp_bounds(masked, model.repair, model.component_hazard(), t)
            assert rel_gap(approx_intensity(model, masked, t), pair.lower) <= 1e-12

    def test_delta_zero_is_single_component_scenario(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            model, masked, t = random_case(rng)
            model = ApproxModel(model.n, 0.0, model.hazard, model.repair,
                                model.normalization)
            hc = model.component_hazard()
            # reference through the repair module: all masked failures on one
            # component, the rest fresh
            ref = (model.n - 1) * hc.rate(t) + \
                model.repair.conditional_intensity(hc, masked.times, t)
            assert rel_gap(approx_intensity(model, masked, t), ref) <= 1e-12

    def test_single_component_ignores_delta(self):
        rng = np.random.default_rng(53)
        for _ in range(200):
            model, masked, t = random_case(rng, n=1)
            hc = model.component_hazard()
            ref = model.repair.conditional_intensity(hc, masked.times, t)
            assert rel_gap(approx_intensity(model, masked, t), ref) <= 1e-12

    def test_constant_hazard_identity(self):
        rng = np.random.default_rng(54)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(0, 30))
            times = np.unique(np.sort(rng.uniform(0.0, 50.0, size=k)))
            masked = mh(times, n)
            t = (times[-1] if times.size else 0.0) + float(rng.uniform(0.0, 10.0))
            am = ApproxModel(n, float(rng.uniform(0, 1)), ConstantHazard(0.37),
                             ARA(int(rng.integers(1, 4)), float(rng.uniform(0, 1))))
            assert rel_gap(approx_intensity(am, masked, t), 0.37) <= 1e-12


class TestRegimeFormula:
    def test_agreement_quick(self):
        rng = np.random.default_rng(55)
        for _ in range(300):
            model, masked, t = random_case(rng)
            a = approx_intensity(model, masked, t)
            b = approx_intensity_ara(model, masked, t)
            assert rel_gap(a, b) <= 1e-12

    def test_boundary_between_regimes(self):
        # at N=n every lag first holds a failure; one more event shifts the
        # lags and the value stays consistent with the envelope route and
        # continuous in t between events
        n = 3
        times = np.array([2.0, 5.0, 9.0, 12.0])
        am = ApproxModel(n, 0.4, PL, ARA(2, 0.6))
        at_n = mh(times[:3], n)
        assert rel_gap(approx_intensity_ara(am, at_n, 11.0),
                       approx_intensity(am, at_n, 11.0)) <= 1e-12
        at_n1 = mh(times, n)
        grid = np.linspace(12.0, 20.0, 400)
        vals = np.array([approx_intensity_ara(am, at_n1, float(u)) for u in grid])
        assert rel_gap(vals[0], approx_intensity(am, at_n1, 12.0)) <= 1e-12
        # no jumps inside the inter-event interval
        assert np.max(np.abs(np.diff(vals))) < 0.05 * np.max(vals)

    def test_all_regimes_hit(self):
        rng = np.random.default_rng(56)
        for regime in (0, 2, 3):
            for _ in range(50):
                model, masked, t = random_case(rng, force_regime=regime)
                assert rel_gap(approx_intensity(model, masked, t),
                               approx_intensity_ara(model, masked, t)) <= 1e-12


class TestShapeProperties:
    # the envelope ordering (hence monotonicity in delta) holds for every m;
    # these cases use single-step memory
    def test_convexity_sandwich(self):
        rng = np.random.default_rng(57)
        for _ in range(100):
            model, masked, t = random_case(rng)
            model = ApproxModel(model.n, model.delta, model.hazard,
                                ARA(1, model.repair.rho), model.normalization)
            pair = sgrp_bounds(masked, model.repair, model.component_hazard(), t)
            got = approx_intensity(model, masked, t)
            assert pair.lower - 1e-12 <= got <= pair.upper + 1e-12

    def test_nonincreasing_in_delta(self):
        rng = np.random.default_rng(58)
        for _ in range(60):
            model, masked, t = random_case(rng)
            repair = ARA(1, model.repair.rho)
            deltas = np.linspace(0.0, 1.0, 6)
            vals = [approx_intensity(
                ApproxModel(model.n, float(d), model.hazard, repair,
                            model.normalization), masked, t) for d in deltas]
            assert np.all(np.diff(vals) <= 1e-12)

    def test_endpoint_equalities(self):
        rng = np.random.default_rng(59)
        model, masked, t = random_case(rng, n=4)
        pair = sgrp_bounds(masked, model.repair, model.component_hazard(), t)
        lo = approx_intensity(ApproxModel(4, 1.0, model.hazard, model.repair,
                                          model.normalization), masked, t)
        up = approx_intensity(ApproxModel(4, 0.0, model.hazard, model.repair,
                                          model.normalization), masked, t)
        assert lo == pytest.approx(pair.lower, rel=1e-14)
        assert up == pytest.approx(pair.upper, rel=1e-14)
