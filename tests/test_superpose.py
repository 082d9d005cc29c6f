import numpy as np
import pytest
from scipy import stats as sps

import sgrpsim.superpose as superpose
from history_oracle import simulate_sgrp_from_history
from sgrpsim import (ARA, ConstantHazard, DomainError, FullHistory, Kijima1,
                     MaskedHistory, Minimal, Perfect, PowerLawHazard, mask,
                     simulate_sgrp, stream_rng, true_intensity_at_events,
                     true_system_intensity)

PL = PowerLawHazard(1.3, 40.0)

#: (repair, hazard) pairs the incremental paths are checked against
CASES = {
    "kijima1": (Kijima1(0.7), PL),
    "ara1": (ARA(1, 0.3), PL),
    "ara3": (ARA(3, 0.5), PL),
    "perfect": (Perfect(), PL),
    "minimal": (Minimal(), PL),
    "constant": (ARA(2, 0.4), ConstantHazard(0.2)),
}
#: events per component count; n=100 crosses a BLOCK_ROWS boundary
EVENTS = {1: 1200, 5: 2000, 100: 5000}


def build_full(per_component, horizon=None):
    merged = sorted((float(t), c + 1) for c, ts in enumerate(per_component) for t in ts)
    times = np.array([t for t, _ in merged])
    labels = np.array([c for _, c in merged], dtype=int)
    end = horizon if horizon is not None else (times[-1] if times.size else 0.0)
    return FullHistory(n=len(per_component),
                       per_component=tuple(np.asarray(ts, dtype=float) for ts in per_component),
                       times=times, labels=labels, horizon=float(end))


def consistent(full):
    """True when the merged view of ``full`` is exactly the labeled union."""
    rebuilt = sorted((float(t), c + 1) for c, arr in enumerate(full.per_component)
                     for t in arr)
    times = np.array([t for t, _ in rebuilt])
    labels = np.array([c for _, c in rebuilt], dtype=int)
    return (np.array_equal(times, full.times)
            and np.array_equal(labels, full.labels)
            and len(full.per_component) == full.n)


class TestHistories:
    def test_labeled_example_counts(self):
        # four components with 3, 2, 2 and 4 failures merge into 11 events
        full = build_full([[1.0, 5.0, 9.0], [2.0, 7.0], [3.0, 8.0], [0.5, 4.0, 6.0, 10.0]])
        assert len(full) == 11
        assert consistent(full)
        masked = mask(full)
        assert len(masked) == 11
        assert np.array_equal(masked.times, full.times)

    def test_mask_empty(self):
        full = build_full([[], [], []], horizon=5.0)
        assert len(mask(full)) == 0

    def test_mask_conserves_counts(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            full = simulate_sgrp(int(rng.integers(1, 6)), ARA(1, 0.5), PL,
                                 n_events=int(rng.integers(1, 60)), rng=rng)
            assert len(mask(full)) == sum(arr.size for arr in full.per_component)
            assert consistent(full)

    def test_masked_invariants(self):
        with pytest.raises(DomainError):
            MaskedHistory(np.array([2.0, 1.0]), 2, 3.0)
        with pytest.raises(DomainError):
            MaskedHistory(np.array([1.0, 2.0]), 2, 1.5)
        with pytest.raises(DomainError):
            MaskedHistory(np.array([1.0]), 0, 2.0)

    def test_nan_history_rejected(self):
        for times in ([1.0, np.nan, 3.0], [np.nan], [1.0, np.nan]):
            with pytest.raises(DomainError):
                MaskedHistory(times, 2, 5.0)
        with pytest.raises(DomainError):
            MaskedHistory([1.0, 2.0], 2, np.nan)

    def test_times_are_a_read_only_copy(self):
        source = np.array([1.0, 2.0, 4.0])
        masked = MaskedHistory(source, 2, 5.0)
        source[0] = 3.0  # the caller's array stays the caller's
        assert np.array_equal(masked.times, [1.0, 2.0, 4.0])
        with pytest.raises(ValueError):
            masked.times[0] = 0.5
        full = simulate_sgrp(3, ARA(1, 0.3), ConstantHazard(0.2), n_events=20, seed=4)
        assert not mask(full).times.flags.writeable
        assert full.times.flags.writeable


class TestSimulate:
    def test_determinism(self):
        a = simulate_sgrp(5, ARA(1, 0.3), PL, n_events=100, seed=7)
        b = simulate_sgrp(5, ARA(1, 0.3), PL, n_events=100, seed=7)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.labels, b.labels)

    def test_event_count_stop(self):
        full = simulate_sgrp(3, Perfect(), PL, n_events=57, seed=1)
        assert len(full) == 57
        assert full.horizon == full.times[-1]

    def test_horizon_stop(self):
        full = simulate_sgrp(3, Perfect(), PL, horizon=200.0, seed=2)
        assert full.horizon == 200.0
        assert np.all(full.times <= 200.0)

    def test_single_socket_renewal(self):
        # with one perfectly repaired component the inter-event times are an
        # ordinary renewal sample from the hazard's lifetime distribution
        full = simulate_sgrp(1, Perfect(), PL, n_events=4000, seed=3)
        gaps = np.diff(full.times, prepend=0.0)
        res = sps.kstest(gaps, lambda x: 1.0 - np.exp(-PL.cumulative(x)))
        assert res.pvalue > 0.01

    def test_strictly_increasing_at_scale(self):
        full = simulate_sgrp(100, ARA(1, 0.3), PL, n_events=20000, seed=4)
        assert np.all(np.diff(full.times) > 0.0)

    def test_exchangeability(self):
        # identical components should share the event count symmetrically
        n, n_events, runs = 5, 400, 50
        crit = sps.chi2.ppf(0.99, df=n - 1)
        rejects = 0
        for s in range(runs):
            full = simulate_sgrp(n, ARA(1, 0.4), PL, n_events=n_events, seed=1000 + s)
            counts = full.counts()
            expected = n_events / n
            chi2 = float(np.sum((counts - expected) ** 2 / expected))
            rejects += chi2 > crit
        assert rejects <= int(0.05 * runs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_deep_memory_offset_past_the_last_failure(self):
        # ARA(9, rho near 1): the float sum behind an offset can round an ulp
        # past the last failure, and the age is clamped at 0 instead of
        # reaching the cumulative hazard negative
        full = simulate_sgrp(1, ARA(9, 0.999999),
                             PowerLawHazard(0.3, 1.0, allow_decreasing=True),
                             n_events=5000, seed=0)
        assert len(full) == 5000
        assert np.all(np.isfinite(full.times))
        assert np.all(np.diff(full.times) > 0.0)

    def test_stop_rule_required(self):
        with pytest.raises(ValueError):
            simulate_sgrp(2, Perfect(), PL, seed=1)
        with pytest.raises(ValueError):
            simulate_sgrp(2, Perfect(), PL, n_events=5, horizon=1.0, seed=1)


class TestTrueIntensity:
    def test_fresh_components(self):
        full = build_full([[], [], []], horizon=50.0)
        assert true_system_intensity(full, Perfect(), PL, 10.0) == \
            pytest.approx(3 * PL.rate(10.0), rel=1e-15)

    def test_perfect_mixed(self):
        full = build_full([[3.0], []], horizon=20.0)
        got = true_system_intensity(full, Perfect(), PL, 10.0)
        assert got == pytest.approx(PL.rate(7.0) + PL.rate(10.0), rel=1e-15)

    def test_constant_hazard_is_history_free(self):
        h = ConstantHazard(0.2)
        full = simulate_sgrp(4, ARA(2, 0.5), h, n_events=40, seed=5)
        assert true_system_intensity(full, ARA(2, 0.5), h, full.horizon) == \
            pytest.approx(0.8, rel=1e-12)

    def test_left_limit_excludes_event_at_t(self):
        full = build_full([[5.0]], horizon=10.0)
        # at t=5 the failure at 5 is not yet conditioned on
        assert true_system_intensity(full, Perfect(), PL, 5.0) == \
            pytest.approx(PL.rate(5.0), rel=1e-15)

    def test_beyond_horizon_rejected(self):
        full = build_full([[1.0]], horizon=2.0)
        with pytest.raises(DomainError):
            true_system_intensity(full, Perfect(), PL, 2.5)

    def test_trajectory_matches_pointwise(self):
        full = simulate_sgrp(6, ARA(2, 0.6), PL, n_events=300, seed=6)
        walked = true_intensity_at_events(full, ARA(2, 0.6), PL)
        for k in (0, 1, 57, 150, 299):
            direct = true_system_intensity(full, ARA(2, 0.6), PL, float(full.times[k]))
            assert walked[k] == pytest.approx(direct, rel=1e-12)


def test_tie_break_is_lowest_component_index():
    # competing candidates resolve deterministically by component order
    a = simulate_sgrp(4, Minimal(), ConstantHazard(0.5), n_events=200, seed=8)
    b = simulate_sgrp(4, Minimal(), ConstantHazard(0.5), n_events=200, seed=8)
    assert np.array_equal(a.labels, b.labels)


@pytest.mark.parametrize("n", sorted(EVENTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_matches_history_sampler_bitwise(case, n):
    # incremental offsets give the trajectory of the sampler that rebuilds
    # each offset from the component's whole history, in both stop modes
    model, hazard = CASES[case]
    seed = 300 + n
    full = simulate_sgrp(n, model, hazard, n_events=EVENTS[n], seed=seed)
    times, labels = simulate_sgrp_from_history(n, model, hazard,
                                               n_events=EVENTS[n], seed=seed)
    assert np.array_equal(full.times, times)
    assert np.array_equal(full.labels, labels)
    horizon = 0.6 * float(times[-1])
    full = simulate_sgrp(n, model, hazard, horizon=horizon, seed=seed)
    times, labels = simulate_sgrp_from_history(n, model, hazard,
                                               horizon=horizon, seed=seed)
    assert np.array_equal(full.times, times)
    assert np.array_equal(full.labels, labels)
    assert consistent(full)


@pytest.mark.parametrize("n", sorted(EVENTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_equals_pointwise_at_every_event_bitwise(case, n):
    model, hazard = CASES[case]
    full = simulate_sgrp(n, model, hazard, n_events=EVENTS[n], seed=400 + n)
    walked = true_intensity_at_events(full, model, hazard)
    direct = np.array([true_system_intensity(full, model, hazard, t)
                       for t in full.times.tolist()])
    assert np.array_equal(walked, direct)


@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_trajectory_does_not_depend_on_block_size(block_rows, monkeypatch):
    model = Kijima1(0.7)
    full = simulate_sgrp(5, model, PL, n_events=700, seed=17)
    whole = true_intensity_at_events(full, model, PL)
    monkeypatch.setattr(superpose, "BLOCK_ROWS", block_rows)
    assert np.array_equal(true_intensity_at_events(full, model, PL), whole)


def test_trajectory_of_an_empty_history():
    full = simulate_sgrp(3, Kijima1(0.7), PL, horizon=1e-9, seed=1)
    assert len(full) == 0
    assert true_intensity_at_events(full, Kijima1(0.7), PL).size == 0
