import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sgrpsim.bounds as bounds
from history_oracle import (RampHazard, envelope_cumulative_columns,
                            envelope_offsets_from_history, envelope_rates_columns,
                            model_intensity_columns, offset_from_history)
from sgrpsim import (ARA, ApproxModel, ConstantHazard, DomainError, Kijima1,
                     MaskedHistory, Minimal, Normalization, Perfect, PowerLawHazard,
                     approx_intensity, heterogeneous_upper, intensity_integral, mask,
                     sgrp_bounds, sgrp_bounds_at_events, simulate_sgrp,
                     true_intensity_at_events)
from sgrpsim.cli import SANDWICH_SLACK, main

PL = PowerLawHazard(1.3, 40.0)

#: (repair, hazard) pairs; ARA(3, .5) gives each offset W three terms of
#: memory, Minimal is rho=0 and Perfect rho=1
CASES = {
    "kijima1": (Kijima1(0.7), PL),
    "ara1": (ARA(1, 0.3), PL),
    "ara3": (ARA(3, 0.5), PL),
    "perfect": (Perfect(), PL),
    "minimal": (Minimal(), PL),
    "constant": (ARA(2, 0.4), ConstantHazard(0.2)),
}
#: events per component count; n=100 crosses a BLOCK_ROWS boundary and
#: spends its first 100 rows with N <= n
EVENTS = {1: 1200, 5: 2000, 100: 5000}


def mh(times, n, t_obs=None):
    times = np.asarray(times, dtype=float)
    last = times[-1] if times.size else 0.0
    return MaskedHistory(times, n, last if t_obs is None else t_obs)


def offset_rows(times, n, ara):
    """The offset rows of every prefix of ``times``: the n lags, then a 0 column."""
    return np.pad(bounds.envelope_offset_rows(times, n, ara), [(0, 0), (0, 1)])


def random_masked(rng, n=None, max_len=25):
    n = n or int(rng.integers(1, 8))
    k = int(rng.integers(0, max_len))
    times = np.sort(rng.uniform(0.0, 80.0, size=k))
    times = np.unique(times)
    return mh(times, n)


class TestLagOffsets:
    def test_partial_first_cycle(self):
        # N=2 <= n=3: lags take W(2) = rho*T2, W(1) = rho*T1, nothing
        # then the fresh component's 0
        off = bounds.envelope_offset_row(np.array([4.0, 10.0]), 3, ARA(1, 0.5))
        assert np.allclose(off, [5.0, 2.0, 0.0, 0.0])

    def test_round_robin_with_memory(self):
        # N=5 > n=2, m=2: lag i is W(5-i), one component failing at T1..T(5-i)
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        off = bounds.envelope_offset_row(times, 2, ARA(2, 0.5))
        # lag 0: 0.5*(T5 + 0.5*T4); lag 1: 0.5*(T4 + 0.5*T3); the fresh 0
        assert np.allclose(off, [3.5, 2.75, 0.0])

    def test_memory_cap_uniform(self):
        # W(L) holds min(m, L) terms, so memory beyond the history changes nothing
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        assert np.array_equal(bounds.envelope_offset_row(times, 2, ARA(9, 0.5)),
                              bounds.envelope_offset_row(times, 2, ARA(5, 0.5)))

    def test_last_component_offset_uses_full_memory(self):
        times = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        # lag 0 is the upper envelope's offset: 0.5*(5 + 0.5*4) for m=2
        assert bounds.envelope_offset_row(times, 2, ARA(2, 0.5))[0] == pytest.approx(3.5)
        # all five times for m >= 5
        expect = 0.5 * sum(0.5 ** j * times[4 - j] for j in range(5))
        assert bounds.envelope_offset_row(times, 2, ARA(9, 0.5))[0] == pytest.approx(expect)

    def test_last_row_alone_equals_rows_bitwise(self):
        # envelope_offset_row builds the last row only, from the last n + m - 1
        # times, then the fresh 0; N = 0 and N < n pad with W(L <= 0) = 0
        rng = np.random.default_rng(49)
        cases = [(3, 1, 0.3, 0), (5, 2, 0.5, 2), (1, 4, 1.0, 0), (6, 3, 0.0, 4)]
        for _ in range(200):
            cases.append((int(rng.integers(1, 40)), int(rng.integers(1, 8)),
                          float(rng.choice([0.0, 1.0, rng.uniform()])),
                          int(rng.integers(0, 120))))
        for n, m, rho, big_n in cases:
            times = np.cumsum(rng.exponential(2.0, size=big_n))
            row = bounds.envelope_offset_row(times, n, ARA(m, rho))
            assert row.shape == (n + 1,)
            assert np.array_equal(row[:n], bounds.envelope_offset_rows(times, n, ARA(m, rho))[-1])
            assert row[n] == 0.0
            assert not row.flags.writeable


def srp_reference(masked, hazard, t):
    """Replacement-repair envelopes written out directly: (lower, upper).

    lower: the last n masked times one per component, missing ones at time 0;
    upper: n-1 fresh components plus one replaced at the newest masked time.
    """
    times, n = masked.times, masked.n
    big_n = int(times.size)
    if big_n == 0:
        shifted = np.zeros(n)
    else:
        k = big_n - np.arange(n)
        shifted = np.where(k >= 1, times[np.maximum(k, 1) - 1], 0.0)
    lower = float(np.sum(hazard.rate(t - shifted)))
    last = float(times[-1]) if big_n else 0.0
    upper = float((n - 1) * hazard.rate(t) + hazard.rate(t - last))
    return lower, upper


class TestSrpBounds:
    """Replacement repair: ``sgrp_bounds`` under ``Perfect()``."""

    def test_two_component_example(self):
        pair = sgrp_bounds(mh([3.0, 7.0], 2), Perfect(), PL, 10.0)
        assert pair.lower == pytest.approx(PL.rate(3.0) + PL.rate(7.0), rel=1e-15)
        assert pair.upper == pytest.approx(PL.rate(10.0) + PL.rate(3.0), rel=1e-15)

    def test_no_failures_collapses(self):
        pair = sgrp_bounds(mh([], 5), Perfect(), PL, 2.0)
        assert pair.lower == pair.upper == pytest.approx(5 * PL.rate(2.0), rel=1e-15)

    def test_constant_hazard_collapses(self):
        h = ConstantHazard(0.3)
        pair = sgrp_bounds(mh([1.0, 4.0, 9.0], 4), Perfect(), h, 11.0)
        assert pair.lower == pair.upper == pytest.approx(1.2, rel=1e-12)

    def test_decreasing_hazard_rejected(self):
        h = PowerLawHazard(0.8, 10.0)
        with pytest.raises(DomainError, match="envelopes require a nondecreasing hazard rate"):
            sgrp_bounds(mh([1.0], 2), Perfect(), h, 2.0)

    #: every envelope operation as (repair, hazard) -> call
    ENVELOPE_OPS = {
        "sgrp_bounds": lambda r, h: sgrp_bounds(mh([1.0], 2), r, h, 2.0),
        "sgrp_bounds_at_events": lambda r, h: sgrp_bounds_at_events([1.0, 2.0], 2, r, h),
        "heterogeneous_upper": lambda r, h: heterogeneous_upper(mh([1.0], 2), [PL, h], r, 2.0),
        "approx_intensity": lambda r, h: approx_intensity(ApproxModel(2, 0.5, h, r),
                                                          mh([1.0], 2), 2.0),
    }

    @pytest.mark.parametrize("op", sorted(ENVELOPE_OPS))
    def test_one_gate_refuses_every_envelope(self, op):
        # one precondition, one pair of messages; the repair is checked first
        call, falling = self.ENVELOPE_OPS[op], PowerLawHazard(0.8, 10.0)
        repair_first = r"^envelopes require repair effectiveness in \[0, 1\]$"
        with pytest.raises(DomainError, match=repair_first):
            call(ARA(1, -0.2), falling)
        with pytest.raises(DomainError, match="^envelopes require a nondecreasing hazard rate$"):
            call(Perfect(), falling)
        call(Perfect(), PL)

    def test_time_before_last_rejected(self):
        with pytest.raises(DomainError):
            sgrp_bounds(mh([3.0, 7.0], 2), Perfect(), PL, 6.0)

    def test_nan_time_rejected(self):
        for masked in (mh([3.0, 7.0], 2), mh([], 2)):
            with pytest.raises(DomainError, match="NaN"):
                sgrp_bounds(masked, ARA(1, 0.3), PL, np.nan)
            with pytest.raises(DomainError, match="NaN"):
                heterogeneous_upper(masked, [PL, PL], ARA(1, 0.3), np.nan)

    @pytest.mark.parametrize("t", [np.array([4.0]), [4.0], np.array([4.0, 9.0]),
                                   np.array([[4.0]])], ids=["array1", "list1", "array2", "2d"])
    def test_many_times_refused(self, t):
        # one time per call; the error names the entry points for many
        masked = mh([3.0], 2)
        for call in (lambda: sgrp_bounds(masked, ARA(1, 0.3), PL, t),
                     lambda: heterogeneous_upper(masked, [PL, PL], ARA(1, 0.3), t)):
            with pytest.raises(DomainError, match="sgrp_bounds_at_events and envelope_rates"):
                call()

    def test_zero_dimensional_time_accepted(self):
        masked = mh([3.0], 2)
        pair = sgrp_bounds(masked, ARA(1, 0.3), PL, np.array(4.0))
        assert pair == sgrp_bounds(masked, ARA(1, 0.3), PL, 4.0)
        assert type(pair.lower) is type(pair.upper) is type(pair.at) is float
        assert heterogeneous_upper(masked, [PL, PL], ARA(1, 0.3), np.array(4.0)) == \
            heterogeneous_upper(masked, [PL, PL], ARA(1, 0.3), 4.0)


class TestSgrpBounds:
    def test_perfect_reduces_to_srp_bitwise(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            masked = random_masked(rng)
            t = (masked.times[-1] if len(masked) else 0.0) + float(rng.uniform(0.0, 30.0))
            a = sgrp_bounds(masked, ARA(1, 1.0), PL, t)
            b = srp_reference(masked, PL, t)
            assert (a.lower, a.upper) == b
            c = sgrp_bounds(masked, Perfect(), PL, t)
            assert (c.lower, c.upper) == b

    def test_half_effectiveness_example(self):
        pair = sgrp_bounds(mh([4.0, 10.0], 2), ARA(1, 0.5), PL, 12.0)
        assert pair.lower == pytest.approx(PL.rate(7.0) + PL.rate(10.0), rel=1e-15)
        assert pair.upper == pytest.approx(PL.rate(12.0) + PL.rate(7.0), rel=1e-15)

    def test_minimal_collapses(self):
        pair = sgrp_bounds(mh([2.0, 5.0, 6.0], 3), ARA(4, 0.0), PL, 8.0)
        assert pair.lower == pair.upper == pytest.approx(3 * PL.rate(8.0), rel=1e-15)

    def test_kijima_accepted_when_improving(self):
        pair = sgrp_bounds(mh([4.0, 10.0], 2), Kijima1(0.5), PL, 12.0)
        ref = sgrp_bounds(mh([4.0, 10.0], 2), ARA(1, 0.5), PL, 12.0)
        assert pair.lower == pytest.approx(ref.lower, rel=1e-14)

    def test_harmful_repair_rejected(self):
        with pytest.raises(DomainError, match="envelopes require repair effectiveness"):
            sgrp_bounds(mh([1.0], 2), ARA(1, -0.2), PL, 2.0)

    @pytest.mark.parametrize("n", [0, 2.5])
    def test_at_events_needs_a_positive_integer_n(self, n):
        # refused before the offset rows are built from it
        with pytest.raises(DomainError, match="positive integer"):
            sgrp_bounds_at_events([1.0, 2.0], n, ARA(1, 0.5), PL)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_offsets_past_their_failures_gave_nan_envelopes(self):
        # the float sums behind W for ARA(5, rho near 1) round past four of
        # these failures; unclamped, an age at T_N was negative and the
        # power law's pow returned NaN
        times = [34.11336886250655, 34.11336886250718, 34.1133688625073,
                 34.11336886250876, 34.11336886250966, 34.113368862511436]
        ara, last = ARA(5, 0.999998756338047), times[-1]
        masked = mh(times, 3)
        pair = sgrp_bounds(masked, ara, PL, last)
        assert 0.0 < pair.lower <= pair.upper < np.inf
        am = ApproxModel(3, 0.5, PL, ara, Normalization.COMPONENT)
        assert pair.lower <= approx_intensity(am, masked, last) <= pair.upper
        lower, upper = bounds.envelope_cumulative(
            PL, last, last + 1.0, bounds.envelope_offset_row(masked.times, 3, ara))
        assert 0.0 < lower <= upper < np.inf

    def test_ordering_single_step_memory(self):
        # provable for m=1: the newest-time term is shared and every other
        # lag term is at most the fresh rate
        rng = np.random.default_rng(42)
        for _ in range(200):
            masked = random_masked(rng)
            model = ARA(1, float(rng.uniform(0.0, 1.0)))
            t = (masked.times[-1] if len(masked) else 0.0) + float(rng.uniform(0.0, 30.0))
            pair = sgrp_bounds(masked, model, PL, t)
            assert pair.lower <= pair.upper + 1e-12

    def test_deep_memory_envelopes_are_ordered(self):
        # for every m: lag 0 of the lower envelope is the upper's own term and
        # every other lag is at most the fresh rate
        rng = np.random.default_rng(99)
        for _ in range(2000):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            rho = float(rng.uniform(0.3, 1.0))
            k = int(rng.integers(n + 1, 4 * n + 2))
            ts = np.unique(np.sort(rng.uniform(0.0, 90.0, size=k)))
            masked = mh(ts, n)
            pair = sgrp_bounds(masked, ARA(m, rho), PL,
                               float(ts[-1] + rng.uniform(0, 5)))
            assert pair.lower <= pair.upper + 1e-12

    def test_deep_memory_sandwich_holds_on_readme_run(self, tmp_path, capsys):
        # the round-robin lower envelope fell above the true intensity at 4
        # events of this README-hazard run; the W lower bound holds for every m
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "hazard": {"family": "power_law", "beta": 1.3, "eta": 40.0},
            "repair": {"model": "ara", "m": 3, "rho": 0.5},
            "system": {"n": 5},
            "run": {"n_events": 1500, "seed": 9}}))
        out = tmp_path / "out"
        assert main(["bounds-check", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "events=1500 violations=0"
        rows = np.loadtxt(out / "bounds.csv", delimiter=",", skiprows=1)
        lower, upper, true = rows[:, 1], rows[:, 2], rows[:, 3]
        assert not np.any(true < lower - SANDWICH_SLACK)
        assert not np.any(true > upper + SANDWICH_SLACK)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), m=st.integers(2, 9), rho=st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1))
    def test_deep_memory_lower_bound_property(self, n, m, rho, seed):
        # the k-th largest component offset is at most W(N-k+1), so the lower
        # envelope never exceeds the true intensity
        model = ARA(m, rho)
        full = simulate_sgrp(n, model, PL, n_events=300, seed=seed)
        lower, _ = sgrp_bounds_at_events(full.times, n, model, PL)
        true = true_intensity_at_events(full, model, PL)
        assert np.all(lower <= true + 1e-9)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 4), m=st.integers(2, 4), rho=st.floats(0.0, 1.0),
           hazard=st.one_of(st.builds(PowerLawHazard, st.floats(1.0, 4.0), st.floats(1.0, 80.0)),
                            st.builds(ConstantHazard, st.floats(0.01, 10.0))),
           gaps=st.lists(st.floats(0.01, 50.0), max_size=6),
           labels=st.lists(st.integers(0, 3), min_size=6, max_size=6),
           after=st.sampled_from([0.0]) | st.floats(0.0, 50.0))
    def test_deep_memory_upper_envelope_property(self, n, m, rho, hazard, gaps, labels, after):
        # checked, not proven, for the power law and the constant: every
        # labelling of a short masked history stays under the upper envelope
        model, times = ARA(m, rho), np.cumsum(gaps)
        t = (times[-1] if times.size else 0.0) + after
        owner = np.array(labels[:times.size], dtype=int) % n
        true = sum(model.conditional_intensity(hazard, times[owner == c], t) for c in range(n))
        upper = sgrp_bounds(mh(times, n), model, hazard, t).upper
        assert true <= upper * (1 + 1e-12)

    def test_deep_memory_upper_envelope_fails_for_a_ramp_hazard(self):
        # the m >= 2 upper envelope is checked for the shipped hazards, not
        # proven: under the ramp rate min(x, 1.1) and ARA(2, .5), components
        # A, B, A failing at 1, 2, 3 carry offsets 1.75 and 1.0, while one
        # component failing at all three carries W(3) = 2.0
        ramp, model = RampHazard(1.0, 1.1), ARA(2, 0.5)
        pair = sgrp_bounds(mh([1.0, 2.0, 3.0], 2), model, ramp, 3.0)
        true = (model.conditional_intensity(ramp, [1.0, 3.0], 3.0)
                + model.conditional_intensity(ramp, [2.0], 3.0))
        assert true == pytest.approx(2.2, rel=1e-15)
        assert pair.upper == pytest.approx(2.1, rel=1e-15)
        assert pair.lower == pytest.approx(2.1, rel=1e-15)
        assert true > pair.upper

    def test_deep_memory_upper_envelope_fails_in_floats_at_ages_of_ulps(self):
        # the m >= 2 upper envelope fails in floats, not only for a ramp:
        # under ARA(2, 1 - 2**-53), W(3) after 1, 1.5 and 2 rounds to 2.0,
        # while B, failing at 2 alone, carries fl(rho * 2), an ulp below.
        # This power law rises to about 0.11 within that ulp of age, so A,
        # A, B failing at 1, 1.5, 2 exceed the envelope at t = 2
        hazard, model = PowerLawHazard(1.0625, 1.0), ARA(2, 1.0 - 2.0**-53)
        assert model.offset_after([1.0, 1.5, 2.0]) == 2.0
        assert model.offset_after([2.0]) == 1.9999999999999998
        pair = sgrp_bounds(mh([1.0, 1.5, 2.0], 2), model, hazard, 2.0)
        true = (model.conditional_intensity(hazard, [1.0, 1.5], 2.0)
                + model.conditional_intensity(hazard, [2.0], 2.0))
        assert true == pytest.approx(1.12914, abs=1e-5)
        assert pair.upper == pytest.approx(1.10954, abs=1e-5)
        assert true > pair.upper


def test_monotone_information():
    # appending a newer failure never raises the round-robin lower envelope
    rng = np.random.default_rng(43)
    for _ in range(50):
        masked = random_masked(rng)
        if len(masked) == 0:
            continue
        newer = float(masked.times[-1] + rng.uniform(1e-6, 10.0))
        extended = mh(np.append(masked.times, newer), masked.n)
        t = newer + float(rng.uniform(0.0, 20.0))
        assert (sgrp_bounds(extended, Perfect(), PL, t).lower
                <= sgrp_bounds(masked, Perfect(), PL, t).lower + 1e-12)


class TestTrajectoryEvaluation:
    def test_matches_pointwise_prefixes(self):
        rng = np.random.default_rng(44)
        times = np.sort(rng.uniform(0.0, 60.0, size=30))
        model = ARA(2, 0.4)
        lower, upper = sgrp_bounds_at_events(times, 4, model, PL)
        for k in (0, 1, 5, 17, 29):
            prefix = mh(times[:k], 4, t_obs=times[k])
            pair = sgrp_bounds(prefix, model, PL, float(times[k]))
            assert lower[k] == pytest.approx(pair.lower, rel=1e-14)
            assert upper[k] == pytest.approx(pair.upper, rel=1e-14)

    def test_sandwich_smoke(self):
        model = ARA(1, 0.3)
        for seed in (1, 2):
            full = simulate_sgrp(5, model, PL, n_events=1000, seed=seed)
            lower, upper = sgrp_bounds_at_events(full.times, 5, model, PL)
            true = true_intensity_at_events(full, model, PL)
            assert np.all(true >= lower - 1e-9)
            assert np.all(true <= upper + 1e-9)


class TestBatchedRows:
    @pytest.mark.parametrize("n", sorted(EVENTS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_equal_prefix_envelopes_bitwise(self, case, n):
        model, hazard = CASES[case]
        times = simulate_sgrp(n, model, hazard, n_events=EVENTS[n], seed=500 + n).times
        lower, upper = sgrp_bounds_at_events(times, n, model, hazard)
        for k, t in enumerate(times.tolist()):
            pair = sgrp_bounds(mh(times[:k], n, t_obs=t), model, hazard, t)
            assert (lower[k], upper[k]) == (pair.lower, pair.upper), k

    @pytest.mark.parametrize("n,m,rho", [(1, 1, 0.3), (1, 12, 0.6), (3, 3, 0.5),
                                         (4, 9, 0.8), (7, 2, 0.0), (5, 2, 1.0)])
    def test_offsets_over_prefix_lengths_bitwise(self, n, m, rho):
        # row k of the W views matches the one-prefix call and the offsets
        # rebuilt from each prefix of the history; its lag 0 is the offset of
        # one component that failed at all of the prefix
        times = np.cumsum(np.random.default_rng(45).exponential(3.0, size=12 * n + 30))
        model = ARA(m, rho)
        lags = bounds.envelope_offset_rows(times, n, model)
        assert lags.shape == (times.size + 1, n)
        for k in range(times.size + 1):
            row = bounds.envelope_offset_row(times[:k], n, model)[:n]
            assert np.array_equal(lags[k], row)
            last_m = times[max(k - m, 0):k]
            assert lags[k][0] == (model.offsets_after(last_m)[-1] if k else 0.0)
            assert np.array_equal(row, envelope_offsets_from_history(model, times[:k], n))

    @pytest.mark.parametrize("block_rows", [1, 5, 64])
    def test_rows_do_not_depend_on_block_size(self, block_rows, monkeypatch):
        times = simulate_sgrp(4, ARA(3, 0.5), PL, n_events=600, seed=46).times
        whole = sgrp_bounds_at_events(times, 4, ARA(3, 0.5), PL)
        monkeypatch.setattr(bounds, "BLOCK_ROWS", block_rows)
        blocked = sgrp_bounds_at_events(times, 4, ARA(3, 0.5), PL)
        assert np.array_equal(blocked[0], whole[0])
        assert np.array_equal(blocked[1], whole[1])

    def test_empty_trajectory(self):
        lower, upper = sgrp_bounds_at_events(np.array([]), 3, ARA(1, 0.3), PL)
        assert lower.size == upper.size == 0


class TestEnvelopeCumulative:
    """The closed-form compensator against quadrature of the envelope rates."""

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("n", [1, 5, 100])
    @pytest.mark.parametrize("hazard", [PL, ConstantHazard(0.2)], ids=["power_law", "constant"])
    def test_matches_quadrature(self, hazard, n, m):
        rng = np.random.default_rng(47 + n + m)
        times = np.cumsum(rng.exponential(2.0, size=3 * n * m + 2))
        ara = ARA(m, 0.4)
        for k in (0, n // 2 + 1, times.size):
            row = bounds.envelope_offset_row(times[:k], n, ara)
            a = float(times[k - 1]) if k else 0.0
            for b in (a + 0.3, a + 25.0):
                lower, upper = bounds.envelope_cumulative(hazard, a, b, row)
                for got, side in ((lower, 0), (upper, 1)):
                    quad = intensity_integral(lambda t: bounds.envelope_rates(
                        hazard, t, row)[side])(a, b)
                    assert got == pytest.approx(quad, rel=1e-8)

    def test_rows_equal_single_intervals(self):
        times = np.cumsum(np.random.default_rng(48).exponential(3.0, size=40))
        rows = offset_rows(times, 4, ARA(2, 0.5))[1:-1]
        a, b = times[:-1], times[1:]
        lower, upper = bounds.envelope_cumulative(PL, a, b, rows)
        for r in range(a.size):
            one = bounds.envelope_cumulative(PL, a[r], b[r], rows[r])
            assert (lower[r], upper[r]) == one


class TestScalarRoute:
    """A float ``t`` takes one age row; it must equal the vector route bit for bit."""

    @staticmethod
    def vector_row(hazard, t, row):
        lower, upper = bounds.envelope_rates(hazard, np.array([t]), row[None])
        return lower[0], upper[0]

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 300])
    @pytest.mark.parametrize("hazard", [PL, ConstantHazard(0.2)], ids=["power_law", "constant"])
    def test_float_time_equals_vector_row(self, hazard, n):
        rng = np.random.default_rng(50 + n)
        times = np.cumsum(rng.exponential(2.0, size=2 * n + 3))
        for k in (0, n // 2, times.size):
            row = bounds.envelope_offset_row(times[:k], n, ARA(3, 0.4))
            last = float(times[k - 1]) if k else 0.0
            # row[0] leaves lag 0 at age 0
            for t in (float(row[0]), last, last + 0.7, last + 31.0):
                want = self.vector_row(hazard, t, row)
                for form in (t, np.float64(t), np.array(t)):
                    got = bounds.envelope_rates(hazard, form, row)
                    assert got == want, (k, t, type(form))

    def test_random_cases_equal_vector_row(self):
        rng = np.random.default_rng(51)
        for _ in range(300):
            n = int(rng.integers(1, 301))
            hazard = PowerLawHazard(float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 80.0)))
            times = np.cumsum(rng.exponential(2.0, size=int(rng.integers(0, 2 * n + 2))))
            row = bounds.envelope_offset_row(times, n, ARA(int(rng.integers(1, 5)), rng.uniform()))
            t = (float(times[-1]) if times.size else 0.0) + float(rng.exponential(5.0))
            assert bounds.envelope_rates(hazard, t, row) == self.vector_row(hazard, t, row)

    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("n", [1, 7, 100])
    def test_model_intensity_is_the_vector_row_mix(self, n, delta):
        times = np.cumsum(np.random.default_rng(52 + n).exponential(2.0, size=3 * n))
        for hazard in (PL, ConstantHazard(0.2)):
            am = ApproxModel(n, delta, hazard, ARA(2, 0.5))
            row = bounds.envelope_offset_row(times, n, am.repair)
            for t in (float(row[0]), float(times[-1]) + 4.0):
                lower, upper = self.vector_row(am.component_hazard(), t, row)
                assert am._intensity(t, row) == float(delta * lower + (1.0 - delta) * upper)


class TestListRoute:
    """A list of times gives Python floats; each equals its vector row bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 100])
    @pytest.mark.parametrize("hazard", [PL, ConstantHazard(0.2), RampHazard(0.5, 3.0)],
                             ids=["power_law", "constant", "ramp"])
    def test_list_of_times_equals_vector_rows(self, hazard, n):
        times = np.cumsum(np.random.default_rng(53 + n).exponential(2.0, size=2 * n + 3))
        row = bounds.envelope_offset_row(times, n, ARA(3, 0.4))
        ts = [float(row[0]), float(times[-1]), float(times[-1]) + 0.7, float(times[-1]) + 31.0]
        lower, upper = bounds.envelope_rates(hazard, ts, row)
        want = bounds.envelope_rates(hazard, np.array(ts), row)
        assert type(lower) is type(upper) is list
        assert lower == want[0].tolist() and upper == want[1].tolist()
        for delta in (0.0, 0.3, 1.0):
            am = ApproxModel(n, delta, hazard, ARA(3, 0.4))
            assert am._intensity(ts, row) == [am._intensity(t, row) for t in ts]


def bits(values):
    """The bytes of ``values`` as float64: equal only when bit for bit equal."""
    return np.asarray(values, dtype=float).tobytes()


class TestOneRoute:
    """The offset-row route against the column route it replaced, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 150), m=st.integers(1, 4), rho=st.floats(0.0, 1.0),
           delta=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           hazard=st.one_of(st.builds(PowerLawHazard, st.floats(1.0, 4.0), st.floats(1.0, 80.0)),
                            st.builds(ConstantHazard, st.floats(0.01, 10.0))),
           gaps=st.lists(st.floats(1e-6, 50.0), max_size=40),
           after=st.lists(st.sampled_from([0.0]) | st.floats(0.0, 100.0), min_size=1, max_size=5))
    def test_equals_the_column_route_bitwise(self, n, m, rho, delta, hazard, gaps, after):
        am = ApproxModel(n, delta, hazard, ARA(m, rho), Normalization.COMPONENT)
        times = np.cumsum(gaps)
        lags = bounds.envelope_offset_rows(times, n, am.repair)[-1]
        row = bounds.envelope_offset_row(times, n, am.repair)
        assert bits(row) == bits(np.append(lags, 0.0))
        last = float(times[-1]) if times.size else 0.0
        ts = [last + a for a in after]
        # a float, a list, a 1-D array
        for t in (ts[0], ts, np.array(ts)):
            want = envelope_rates_columns(hazard, t, lags)
            assert bits(bounds.envelope_rates(hazard, t, row)) == bits(want)
            want = model_intensity_columns(am, t, lags)
            assert bits(am._intensity(t, row)) == bits(want)
            assert bits(approx_intensity(am, mh(times, n), t)) == bits(want)
        pair = bounds.sgrp_bounds(mh(times, n), am.repair, hazard, ts[0])
        assert bits([pair.lower, pair.upper]) == bits(envelope_rates_columns(hazard, ts[0], lags))
        # 2-D rows: the left limit at each event over the offsets before it
        if times.size:
            lags = bounds.envelope_offset_rows(times, n, am.repair)[:-1]
            want = envelope_rates_columns(hazard, times, lags)
            assert bits(bounds.sgrp_bounds_at_events(times, n, am.repair, hazard)) == bits(want)
            rows = offset_rows(times, n, am.repair)[:-1]
            assert bits(bounds.envelope_rates(hazard, times, rows)) == bits(want)
            a = np.concatenate(([0.0], times[:-1]))
            got = bounds.envelope_cumulative(hazard, a, times, rows)
            want = envelope_cumulative_columns(hazard, a, times, lags)
            assert bits(got) == bits(want)

    @pytest.mark.parametrize("n", [1, 2, 100])
    @pytest.mark.parametrize("hazard", [PL, ConstantHazard(0.2)], ids=["power_law", "constant"])
    def test_float_list_and_array_give_the_same_float(self, hazard, n):
        times = np.cumsum(np.random.default_rng(54 + n).exponential(2.0, size=2 * n + 3))
        am = ApproxModel(n, 0.3, hazard, ARA(2, 0.4))
        masked = mh(times, n)
        row = bounds.envelope_offset_row(times, n, am.repair)
        for t in (float(times[-1]), float(times[-1]) + 0.7, float(times[-1]) + 31.0):
            value = am._intensity(t, row)
            assert type(value) is float
            assert am._intensity([t], row) == [value]
            assert am._intensity(np.array([t]), row).tolist() == [value]
            assert approx_intensity(am, masked, t) == value
            assert approx_intensity(am, masked, [t]).tolist() == [value]
            assert approx_intensity(am, masked, np.array([t])).tolist() == [value]
            lower, upper = bounds.envelope_rates(hazard, t, row)
            assert type(lower) is type(upper) is float
            assert bounds.envelope_rates(hazard, [t], row) == ([lower], [upper])
            got = bounds.envelope_rates(hazard, np.array([t]), row)
            assert (got[0].tolist(), got[1].tolist()) == ([lower], [upper])
            pair = bounds.sgrp_bounds(masked, am.repair, hazard, t)
            assert (pair.lower, pair.upper) == (lower, upper)


class TestHeterogeneousUpper:
    def test_identical_components_match_homogeneous_upper(self):
        masked = mh([2.0, 6.0], 3)
        model = ARA(1, 0.5)
        got = heterogeneous_upper(masked, [PL, PL, PL], model, 9.0)
        assert got == pytest.approx(sgrp_bounds(masked, model, PL, 9.0).upper, rel=1e-12)

    def test_no_failures_sums_rates(self):
        hazards = [PL.scaled(0.5), PL, PL.scaled(2.0)]
        got = heterogeneous_upper(mh([], 3), hazards, Perfect(), 5.0)
        assert got == pytest.approx(3.5 * PL.rate(5.0), rel=1e-12)

    def test_constant_pair(self):
        hazards = [ConstantHazard(0.1), ConstantHazard(0.2)]
        got = heterogeneous_upper(mh([1.0, 3.0], 2), hazards, ARA(1, 0.5), 4.0)
        assert got == pytest.approx(0.3, rel=1e-12)

    @staticmethod
    def true_intensities(hazards, model, times, t):
        """The true intensity at ``t`` under every labelling of ``times``.

        Component c carries the offset of its own failures, rebuilt from
        its history by the oracle.
        """
        times = np.asarray(times, dtype=float)
        return [sum(float(h.rate(t - offset_from_history(model, times[np.array(owner) == c])))
                    for c, h in enumerate(hazards))
                for owner in itertools.product(range(len(hazards)), repeat=times.size)]

    def test_order_of_the_hazards_does_not_matter(self):
        # the max over the last-failing component needs no weakest-first order
        for hazards in ([ConstantHazard(0.2), ConstantHazard(0.1)],
                        [PowerLawHazard(2.0, 6.0937), PL]):
            masked = mh([1.0, 3.0], 2)
            got = heterogeneous_upper(masked, hazards, ARA(1, 0.5), 4.0)
            assert got == heterogeneous_upper(masked, hazards[::-1], ARA(1, 0.5), 4.0)
        assert heterogeneous_upper(mh([1.0], 2), [ConstantHazard(0.2), ConstantHazard(0.1)],
                                   Perfect(), 4.0) == pytest.approx(0.3, rel=1e-15)

    def test_steeper_next_hazard_is_accepted(self):
        # the rates cross on (0, 100]: at x = 0.01 they are 0.00270 against
        # 0.00054, at 100 the steeper one is the larger
        first, second = PowerLawHazard(1.3, 40.0), PowerLawHazard(2.0, 6.0937)
        assert first.rate(0.01) > second.rate(0.01) and first.rate(100.0) <= second.rate(100.0)
        got = heterogeneous_upper(mh([1.0], 2), [first, second], Perfect(), 100.0)
        truths = self.true_intensities([first, second], Perfect(), [1.0], 100.0)
        assert got == pytest.approx(max(truths), rel=1e-14)

    def test_late_failure_on_the_steeper_component(self):
        # a counterexample to the weakest-first rule, which took PL(1.8, 60)
        # as the weaker at t = 300 and attributed the failure at 250 to it:
        # the failure on PL(1.3, 25) gives the larger true intensity
        hazards = [PowerLawHazard(1.8, 60.0), PowerLawHazard(1.3, 25.0)]
        got = heterogeneous_upper(mh([250.0], 2), hazards, Perfect(), 300.0)
        on_second = hazards[0].rate(300.0) + hazards[1].rate(50.0)
        assert on_second > hazards[1].rate(300.0) + hazards[0].rate(50.0)
        assert got == on_second

    def test_falling_beta_takes_the_larger_labelling(self):
        # the rate ratio PL(1.3, 40) / PL(2, 100) falls in x; at t = 100 the
        # masked failures at 20 and 60 on PL(1.3, 40) give the larger
        # intensity, 0.058441, where the weakest-first rule gave 0.05678
        first, second = PowerLawHazard(2.0, 100.0), PL
        masked, model = mh([20.0, 60.0], 2), ARA(1, 0.5)
        got = heterogeneous_upper(masked, [first, second], model, 100.0)
        assert got == first.rate(100.0) + second.rate(70.0)
        assert got == pytest.approx(0.058441, abs=5e-7)
        assert got == pytest.approx(max(self.true_intensities(
            [first, second], model, masked.times, 100.0)), rel=1e-14)
        late = heterogeneous_upper(masked, [first, second], model, 1000.0)
        assert late == first.rate(1000.0) + second.rate(970.0)

    def test_constant_beside_a_power_law(self):
        # one failure at 90 on the constant component leaves the power law
        # fresh, 17.6% above the weakest-first rule's value, which put the
        # failure on the power law
        masked = mh([90.0], 2)
        got = heterogeneous_upper(masked, [PL, ConstantHazard(0.1)], Perfect(), 100.0)
        assert got == PL.rate(100.0) + 0.1
        assert got == pytest.approx(1.176 * (0.1 + PL.rate(10.0)), rel=1e-3)
        assert got == heterogeneous_upper(masked, [ConstantHazard(0.1), PL], Perfect(), 100.0)

    def test_other_families_are_accepted(self):
        # any nondecreasing hazard: the ramp's failure at 1 on itself wins
        hazards = [RampHazard(0.1, 5.0), PL]
        got = heterogeneous_upper(mh([1.0], 2), hazards, Perfect(), 4.0)
        assert got == 0.1 * 4.0 + PL.rate(3.0)
        assert got == pytest.approx(max(self.true_intensities(hazards, Perfect(), [1.0], 4.0)),
                                    rel=1e-14)
        falling = PowerLawHazard(0.8, 10.0)
        with pytest.raises(DomainError, match="nondecreasing"):
            heterogeneous_upper(mh([1.0], 2), [PL, falling], Perfect(), 4.0)

    @settings(max_examples=300, deadline=None)
    @given(hazards=st.lists(st.one_of(
               st.builds(PowerLawHazard, st.floats(1.0, 4.0), st.floats(1.0, 80.0)),
               st.builds(ConstantHazard, st.floats(0.01, 10.0))), min_size=2, max_size=3),
           m=st.integers(1, 3), rho=st.floats(0.0, 1.0),
           gaps=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=5),
           after=st.sampled_from([0.0]) | st.floats(0.0, 50.0))
    def test_no_labelling_exceeds_it(self, hazards, m, rho, gaps, after):
        # every labelling of the masked times stays under the envelope; for
        # m = 1 the envelope is attained, so it is the least upper bound
        model, times = ARA(m, rho), np.cumsum(gaps)
        t = float(times[-1]) + after
        got = heterogeneous_upper(mh(times, len(hazards)), hazards, model, t)
        truths = self.true_intensities(hazards, model, times, t)
        assert max(truths) <= got + SANDWICH_SLACK
        if m == 1:
            assert got == pytest.approx(max(truths), rel=1e-13)

    def test_deep_memory_fails_in_floats_at_ages_of_ulps(self):
        # as the homogeneous upper envelope does: W(2) after 17 and 21
        # rounds to 21.0 under ARA(2, 1 - 2**-53), while a component failing
        # at 21 alone carries fl(rho * 21), an ulp below, so the labellings
        # with one failure per component exceed the largest over c
        hazards, model = [PowerLawHazard(1.0625, 1.0)] * 2, ARA(2, 1.0 - 2.0**-53)
        assert model.offset_after([17.0, 21.0]) == 21.0
        assert model.offset_after([21.0]) == 20.999999999999996
        got = heterogeneous_upper(mh([17.0, 21.0], 2), hazards, model, 21.0)
        truths = self.true_intensities(hazards, model, [17.0, 21.0], 21.0)
        assert got == pytest.approx(1.28519, abs=1e-5)
        assert max(truths) == pytest.approx(1.29148, abs=1e-5)
        assert max(truths) > got

    def test_wrong_component_count(self):
        with pytest.raises(DomainError):
            heterogeneous_upper(mh([1.0], 3), [PL, PL], Perfect(), 4.0)
