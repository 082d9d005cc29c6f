import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import sgrpsim.simulate as simulate
import sgrpsim.superpose as superpose
from history_oracle import (RampHazard, group_draws, grp_stream, grp_stream_from_history,
                            heap_merge, nhpp_stream, simulate_algorithm1_heap,
                            simulate_thinning_from_history, wrap_stacks)
from sgrpsim import (ARA, ApproxModel, ConstantHazard, DomainError, Kijima1,
                     Minimal, MaskedHistory, Normalization, Perfect, PowerLawHazard, mask,
                     approx_intensity, intensity_integral, ks_exp1, nhpp_sample,
                     rescaled_residuals, simulate_algorithm1, simulate_sgrp,
                     simulate_thinning, stream_rng)
from sgrpsim.bounds import envelope_offset_row
from sgrpsim.repair import next_failure_time
from sgrpsim.simulate import _squeeze
from sgrpsim.superpose import POISSON, SINGLE, _nudge_ties

PL = PowerLawHazard(1.3, 40.0)

#: nondecreasing hazards: power laws with beta in [1, 4], constants, and ramps
#: whose intensity goes exactly flat once every age passes the cap
HAZARDS = st.one_of(
    st.builds(PowerLawHazard, st.floats(1.0, 4.0), st.floats(1.0, 80.0)),
    st.builds(ConstantHazard, st.floats(0.01, 10.0)),
    st.builds(RampHazard, st.floats(0.01, 10.0), st.floats(0.01, 50.0)))
DELTAS = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)


@dataclass(frozen=True)
class JitteredPowerLaw(PowerLawHazard):
    """A power law whose rate kernel is off by one ulp, up or toward 0.

    The direction follows the parity of each value's bits, so the kernel is
    within 2 ulps of a nondecreasing rate but not itself monotone, as a
    vector pow that is not correctly rounded may be.
    """

    def rate_unchecked(self, ages):
        rate = np.asarray(super().rate_unchecked(ages))
        odd = (rate.view(np.int64) & 1).astype(bool)
        return np.nextafter(rate, np.where(odd, np.inf, 0.0))


class TestNhppSample:
    def test_unit_rate_is_running_sum_of_exponentials(self):
        # one block of the Poisson stream: the times at unit rate are the
        # running sums of the generator's exponentials
        got = nhpp_sample(ConstantHazard(1.0), 3, stream_rng(60))
        expect = np.cumsum(stream_rng(60).exponential(size=3))
        assert np.allclose(got, expect, rtol=1e-12)
        assert np.array_equal(got, expect)

    def test_zero_rate_stream_cannot_be_built(self):
        # the Poisson stream scale vanishes at delta=1, which the hazard
        # scaling refuses before any sampling can be requested
        with pytest.raises(DomainError):
            PL.scaled(0.0)

    def test_time_rescaled_increments_are_unit_exponential(self):
        rng = stream_rng(61)
        times = nhpp_sample(PL, 10_000, rng)
        residuals = np.diff(PL.cumulative(times), prepend=0.0)
        assert not ks_exp1(residuals).rejects[0.01]

    def test_strictly_increasing(self):
        times = nhpp_sample(PL, 5000, stream_rng(62))
        assert np.all(np.diff(times) > 0.0)

    def test_count_validation(self):
        # the count rule of every other count: 2.5 is refused, not cut to 2
        for count in (0, 2.5, np.inf, np.nan):
            with pytest.raises(DomainError, match="positive integer"):
                nhpp_sample(PL, count, stream_rng(1))
        got = nhpp_sample(PL, 2.0, stream_rng(1))
        assert got.size == 2
        assert got.tobytes() == nhpp_sample(PL, 2, stream_rng(1)).tobytes()


class TestAlgorithm1:
    def am(self, n=100, delta=0.5, rho=0.3):
        return ApproxModel(n, delta, PL, ARA(1, rho))

    def test_determinism(self):
        a = simulate_algorithm1(self.am(), 2000, seed=7)
        b = simulate_algorithm1(self.am(), 2000, seed=7)
        assert np.array_equal(a.times, b.times)

    def test_output_is_valid_masked_history(self):
        out = simulate_algorithm1(self.am(n=10), 3000, seed=8)
        assert isinstance(out, MaskedHistory)
        assert np.all(np.diff(out.times) > 0.0)
        assert out.n == 10

    def test_delta_zero_drops_component_streams(self):
        # only the Poisson stream and the single-component stream remain
        n, count, seed = 6, 400, 9
        am = ApproxModel(n, 0.0, PL, ARA(1, 0.3))
        got = simulate_algorithm1(am, count, seed=seed)
        base = am.component_hazard()
        nhpp = nhpp_stream(base.scaled(n - 1.0), stream_rng(seed, POISSON))
        (draws,) = group_draws(stream_rng(seed, SINGLE), 1)
        extra = grp_stream(am.repair, base.scaled(1.0), draws)
        expect = heap_merge((nhpp, extra), count)
        assert np.allclose(got.times, expect, rtol=0, atol=0)

    def test_delta_one_uses_only_component_streams(self):
        am = ApproxModel(4, 1.0, PL, ARA(1, 0.3))
        out = simulate_algorithm1(am, 500, seed=10)
        assert np.all(np.diff(out.times) > 0.0)

    @pytest.mark.parametrize("n", [2, 100])
    def test_delta_one_is_the_exact_superposition_bitwise(self, n):
        # at delta=1 the streams are n components under the repair rule with
        # the per-component hazard, keyed as simulate_sgrp keys its components
        am = ApproxModel(n, 1.0, PL, Kijima1(0.7))
        got = simulate_algorithm1(am, 3000, seed=14)
        full = simulate_sgrp(n, am.repair, am.component_hazard(), n_events=3000, seed=14)
        assert np.array_equal(got.times, full.times)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("stop", [{"n_events": 500}, {"horizon": 900.0}],
                             ids=["count", "horizon"])
    def test_single_stream_at_delta_one_is_the_bare_component_bitwise(self, stop, m):
        # n = 1, delta = 1 leaves one component stream, keyed as
        # simulate_sgrp keys its only component: the bare component's run
        am = ApproxModel(1, 1.0, PL, ARA(m, 0.3))
        got = simulate_algorithm1(am, seed=1, **stop)
        expect = mask(simulate_sgrp(1, am.repair, am.component_hazard(), seed=1, **stop))
        assert got.times.tobytes() == expect.times.tobytes()
        assert (got.n, got.t_obs) == (expect.n, expect.t_obs)

    def test_harmful_repair_rejected(self):
        with pytest.raises(DomainError):
            simulate_algorithm1(ApproxModel(2, 0.5, PL, ARA(1, -0.5)), 10, seed=1)

    def test_decreasing_hazard_runs(self):
        # the stream sampler needs no monotone rate, only an improving repair
        am = ApproxModel(3, 0.5, PowerLawHazard(0.8, 10.0), ARA(1, 0.3))
        out = simulate_algorithm1(am, 50, seed=1)
        assert len(out) == 50 and np.all(np.diff(out.times) > 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("repair", [Minimal(), ARA(1, 0.3), ARA(3, 0.0)], ids=repr)
    def test_times_past_the_float_range_are_refused(self, repair):
        # at eta = 1e307 the streams' times overflow before 40 are finite:
        # inf, then NaN once an offset multiplies inf. That is a domain
        # error, as in simulate_sgrp, not an empty merge
        am = ApproxModel(3, 0.5, PowerLawHazard(1.0, 1e307), repair)
        with pytest.raises(DomainError, match="float range"):
            simulate_algorithm1(am, 40, seed=1)

    def test_scale_run(self):
        out = simulate_algorithm1(self.am(), 20_000, seed=11)
        assert len(out) == 20_000
        assert np.all(np.diff(out.times) > 0.0)

    @pytest.mark.parametrize("n,delta,repair", [
        (5, 0.5, Kijima1(0.7)), (5, 0.0, Kijima1(0.7)), (5, 1.0, Kijima1(0.7)),
        (100, 0.5, Kijima1(0.7)), (1, 0.4, Kijima1(0.7)), (5, 0.5, ARA(3, 0.5)),
        (5, 0.5, Perfect()), (5, 0.5, Minimal()),
        (2, 0.5, Kijima1(0.7)), (2, 1.0, ARA(3, 0.5))])
    def test_streams_match_history_recomputation_bitwise(self, n, delta, repair):
        # the streams advance in lock step and carry their offsets
        # incrementally; each stream stepped one failure at a time on its
        # scalar draws of its group's generator, rebuilding its offset from
        # its whole history, merged by a heap, gives the same run
        self.assert_matches_heap_merge(ApproxModel(n, delta, PL, repair), 3000)

    @pytest.mark.parametrize("delta", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("repair,hazard,count", [
        pytest.param(ARA(1, 0.3), PL, 3000, id="ara1"),
        pytest.param(ARA(9, 0.3), PL, 3000, id="ara9"),
        pytest.param(ARA(1, 0.3), ConstantHazard(0.2), 3000, id="constant"),
        pytest.param(ARA(1, 0.3), PL, 1, id="count1"),
        pytest.param(ARA(1, 0.3), PL, 7, id="count7")])
    def test_many_streams_match_history_recomputation_bitwise(self, delta, repair,
                                                              hazard, count):
        # n=100 streams in one lock-step block; a count below n stops the
        # run before most streams have emitted anything
        self.assert_matches_heap_merge(ApproxModel(100, delta, hazard, repair), count)

    @pytest.mark.parametrize("n,delta", [(1, 0.4), (5, 0.0), (5, 0.5), (5, 1.0), (100, 0.5)])
    def test_horizon_run_is_the_prefix_of_a_count_run(self, n, delta):
        am = ApproxModel(n, delta, PL, Kijima1(0.7))
        whole = simulate_algorithm1(am, 3000, seed=13)
        horizon = float(whole.times[1800])
        got = simulate_algorithm1(am, seed=13, horizon=horizon)
        assert got.t_obs == horizon
        assert np.array_equal(got.times, whole.times[:1801])

    def test_stop_rule_required(self):
        with pytest.raises(ValueError):
            simulate_algorithm1(self.am(), seed=1)
        with pytest.raises(ValueError):
            simulate_algorithm1(self.am(), 10, seed=1, horizon=5.0)

    @pytest.mark.parametrize("cap", [1, 7, 64])
    @pytest.mark.parametrize("delta", [0.0, 0.5, 1.0])
    def test_run_does_not_depend_on_block_size(self, delta, cap, monkeypatch):
        # every stack (the Poisson stream is one) hands back at most ``cap``
        # steps per request, so the engine's schedule across the stack of
        # the n-stream and single-stream groups and the Poisson stream
        # changes; the run is the one of uncapped blocks, in both stop modes
        am = ApproxModel(5, delta, PL, ARA(2, 0.4))
        count = simulate_algorithm1(am, 600, seed=21)
        horizon = simulate_algorithm1(am, seed=21, horizon=0.5 * count.t_obs)
        wrap_stacks(monkeypatch, lambda k: min(k, cap))
        got = simulate_algorithm1(am, 600, seed=21)
        assert np.array_equal(got.times, count.times)
        got = simulate_algorithm1(am, seed=21, horizon=horizon.t_obs)
        assert np.array_equal(got.times, horizon.times)
        assert got.t_obs == horizon.t_obs

    @staticmethod
    def assert_matches_heap_merge(am, count):
        got = simulate_algorithm1(am, count, seed=12)
        expect = simulate_algorithm1_heap(am, count, seed=12, grp=grp_stream_from_history)
        assert np.array_equal(got.times, expect.times)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_block_requests_are_capped_at_count(self, n, monkeypatch):
        # with a decreasing hazard the first times are tiny, and extrapolating
        # the slowest stream's pace to the count-th smallest time asked for
        # billions of draws; every request is checked before it is forwarded,
        # so an uncapped one fails here without allocating. ARA(9, rho near 1)
        # offsets can round past the last failure: an unclamped age would make
        # a NaN step (a RuntimeWarning) and silently end its stream
        count, requests = 5000, []

        def checked(k):
            requests.append(k)
            assert k <= count
            return k

        wrap_stacks(monkeypatch, checked)
        am = ApproxModel(n, 0.5, PowerLawHazard(0.3, 1.0),
                         ARA(9, 0.999999))
        out = simulate_algorithm1(am, count, seed=0)
        assert requests and max(requests) <= count
        assert len(out) == count
        assert np.all(np.isfinite(out.times))
        assert np.all(np.diff(out.times) > 0.0)

    NEXT = float(np.nextafter(1.0, np.inf))

    @pytest.mark.parametrize("streams", [
        pytest.param([[1.0, 2.0], [1.0, 2.0], [1.0, 3.0]], id="ties-across-streams"),
        pytest.param([[1.0, 1.0, 1.0], [1.0, NEXT], [NEXT, 4.0]], id="cascading-run"),
        pytest.param([[0.0, 0.5], [0.0, 5e-324]], id="ties-at-zero"),
        pytest.param([[0.5, 1.0, 3.0], [2.0]], id="no-ties")])
    def test_merge_nudges_ties_as_the_heap_does(self, streams):
        # each stream is nondecreasing; the heap breaks ties by stream index
        # and moves a time not above the previous one to the next float up.
        # A nudge depends only on the times before it, so every prefix of
        # the sampler's merge (a sort, then the nudge) is the heap's merge of
        # that many times
        merged = np.sort(np.concatenate([np.asarray(s, dtype=float) for s in streams]))
        assert _nudge_ties(merged) == merged.size
        assert merged.size == sum(len(s) for s in streams)
        for count in range(1, merged.size + 1):
            heads = [itertools.chain(s, itertools.repeat(np.inf)) for s in streams]
            expect = heap_merge(heads, count)
            got = merged[:count]
            assert np.array_equal(got, expect)
            assert np.all(np.diff(got, prepend=0.0) > 0.0)


#: one run of a lock-step batch: exact superposition (else the stream
#: sampler), n, delta, repair, hazard, stop (a count, or a horizon where the
#: cumulative hazard reaches a float) and seed. The power laws share one of
#: three shapes, so runs stack often; a ramp has no per-column form and
#: steps in a stack of its own
BATCH_RUNS = st.tuples(
    st.booleans(), st.sampled_from([1, 2, 3, 5, 100]), DELTAS,
    st.builds(ARA, st.sampled_from([1, 2]), st.floats(0.0, 1.0)),
    st.one_of(st.builds(PowerLawHazard, st.sampled_from([1.0, 1.3, 2.5]), st.floats(1.0, 80.0)),
              st.builds(ConstantHazard, st.floats(0.01, 10.0)),
              st.builds(RampHazard, st.floats(0.01, 10.0), st.floats(0.01, 50.0))),
    st.integers(1, 300) | st.floats(0.05, 3.0), st.integers(0, 2**32))


class TestBatch:
    @settings(max_examples=40, deadline=None)
    @given(runs=st.lists(BATCH_RUNS, min_size=1, max_size=6))
    def test_each_run_of_a_batch_is_its_solo_run_bitwise(self, runs):
        # the engine advances every run's groups at once, its stacks mixing
        # runs; each history is the one its solo call gives, bit for bit
        plans, solos = [], []
        for exact, n, delta, repair, hazard, stop, seed in runs:
            count, horizon = ((stop, None) if isinstance(stop, int)
                              else (None, hazard.inverse_cumulative(stop)))
            if exact:
                plans.append(superpose._sgrp_run(n, repair, hazard, count, horizon, seed))
                solos.append(simulate_sgrp(n, repair, hazard, n_events=count, horizon=horizon,
                                           seed=seed))
            else:
                am = ApproxModel(n, delta, hazard, repair, Normalization.COMPONENT)
                try:
                    solo = simulate_algorithm1(am, count, seed, horizon=horizon)
                except DomainError:  # a subnormal delta can put a stream's eta past the float range
                    with pytest.raises(DomainError):
                        simulate._algorithm1_run(am, count, seed, horizon)
                    continue
                plans.append(simulate._algorithm1_run(am, count, seed, horizon))
                solos.append(solo)
        results = superpose._advance_streams([run for run, _ in plans])
        for (_, finish), result, solo in zip(plans, results, solos):
            got = finish(*result)
            assert np.array_equal(got.times, solo.times)
            if isinstance(solo, MaskedHistory):
                assert got.t_obs == solo.t_obs
            else:
                assert got.horizon == solo.horizon
                assert np.array_equal(got.labels, solo.labels)


class TestThinning:
    def test_determinism(self):
        am = ApproxModel(10, 0.5, PL, ARA(1, 0.3))
        a = simulate_thinning(am, n_events=500, seed=12)
        b = simulate_thinning(am, n_events=500, seed=12)
        assert np.array_equal(a.times, b.times)

    def test_constant_hazard_interevents_are_exponential(self):
        lam0 = 0.25
        am = ApproxModel(7, 0.6, ConstantHazard(lam0), ARA(2, 0.4))
        out = simulate_thinning(am, n_events=4000, seed=13)
        residuals = lam0 * np.diff(out.times, prepend=0.0)
        assert not ks_exp1(residuals).rejects[0.01]

    def test_single_component_matches_direct_sampler(self):
        # n=1 reduces the model to a bare repairable component; compare
        # inter-event distributions against the direct next-failure sampler
        model = ARA(1, 0.4)
        am = ApproxModel(1, 0.3, PL, model, Normalization.COMPONENT)
        thin = simulate_thinning(am, n_events=3000, seed=14)
        rng = stream_rng(15)
        direct = []
        for _ in range(3000):
            last = direct[-1] if direct else 0.0
            offset = model.offsets_after(direct[-model.m:])[-1] if direct else 0.0
            direct.append(next_failure_time(PL, offset, last, float(rng.exponential())))
        res = sps.ks_2samp(np.diff(thin.times, prepend=0.0),
                           np.diff(np.asarray(direct), prepend=0.0))
        assert res.pvalue > 0.005

    def test_horizon_stop(self):
        am = ApproxModel(5, 0.5, PL, ARA(1, 0.3))
        out = simulate_thinning(am, horizon=500.0, seed=16)
        assert out.t_obs == 500.0
        assert np.all(out.times < 500.0 + 1e-12)

    def test_decreasing_hazard_rejected(self):
        h = PowerLawHazard(0.8, 10.0)
        am = ApproxModel(3, 0.5, h, ARA(1, 0.3))
        with pytest.raises(DomainError, match="nondecreasing"):
            simulate_thinning(am, n_events=10, seed=17)

    def test_rescaling_residuals_pass(self):
        # quadrature of the pointwise model intensity over each inter-event
        # interval must recover unit exponentials
        am = ApproxModel(4, 0.5, PL, ARA(1, 0.3))
        out = simulate_thinning(am, n_events=600, seed=18)
        times = out.times
        residuals = np.empty(times.size)
        prev = 0.0
        for k in range(times.size):
            hist = MaskedHistory(times[:k], am.n,
                                 times[k - 1] if k else 0.0)
            integral = intensity_integral(lambda u: approx_intensity(am, hist, u))
            residuals[k] = integral(prev, float(times[k]))
            prev = float(times[k])
        assert not ks_exp1(residuals).rejects[0.01]

    #: (n, m, rho, delta): every (n, m) pair once, with rho and delta on two
    #: orthogonal Latin squares so that every (rho, delta) pair occurs
    BITWISE_CASES = [(n, m, (0.0, 0.3, 1.0)[(i + j) % 3], (0.0, 0.5, 1.0)[(i + 2 * j) % 3])
                     for i, n in enumerate((1, 5, 100)) for j, m in enumerate((1, 3, 9))]

    @pytest.mark.parametrize("n,m,rho,delta", BITWISE_CASES)
    def test_matches_whole_history_thinning_bitwise(self, n, m, rho, delta):
        # the sampler rolls its offsets by one step per accepted event; the
        # reference rebuilds them from the whole history, prefix by prefix,
        # and the run crosses from histories shorter than n*m to longer ones
        am = ApproxModel(n, delta, PL, ARA(m, rho))
        count = n * m + 300
        got = simulate_thinning(am, n_events=count, seed=20 + n + m)
        expect = simulate_thinning_from_history(am, n_events=count, seed=20 + n + m)
        assert np.array_equal(got.times, expect.times)
        horizon = float(got.times[count // 2])
        got = simulate_thinning(am, horizon=horizon, seed=21)
        expect = simulate_thinning_from_history(am, horizon=horizon, seed=21)
        assert np.array_equal(got.times, expect.times)
        assert got.t_obs == expect.t_obs == horizon

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 150), m=st.integers(1, 4), rho=st.floats(0.0, 1.0),
           delta=DELTAS, hazard=HAZARDS, count=st.integers(1, 60),
           cut=st.floats(0.05, 1.5), seed=st.integers(0, 2**32 - 1))
    def test_matches_whole_history_thinning_bitwise_everywhere(self, n, m, rho, delta,
                                                               hazard, count, cut, seed):
        # the majorant chain and the squeeze change no draw, decision or bit;
        # a horizon cut anywhere in the run clips the chain evaluated there
        am = ApproxModel(n, delta, hazard, ARA(m, rho))
        got = simulate_thinning(am, n_events=count, seed=seed)
        expect = simulate_thinning_from_history(am, n_events=count, seed=seed)
        assert np.array_equal(got.times, expect.times)
        horizon = cut * float(got.times[-1])
        got = simulate_thinning(am, horizon=horizon, seed=seed)
        expect = simulate_thinning_from_history(am, horizon=horizon, seed=seed)
        assert np.array_equal(got.times, expect.times)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 300), m=st.integers(1, 4), rho=st.floats(0.0, 1.0),
           delta=DELTAS,
           hazard=HAZARDS | st.builds(JitteredPowerLaw, st.floats(1.0, 4.0), st.floats(1.0, 80.0)),
           gaps=st.lists(st.floats(1e-6, 50.0), max_size=40),
           start=st.floats(0.0, 100.0), step=st.floats(0.0, 100.0) | st.just(None))
    def test_squeeze_bounds_the_float_intensity_from_below(self, n, m, rho, delta, hazard,
                                                           gaps, start, step):
        # for s <= t and nonnegative ages, fl((1 - kappa) * lam(s)) <= lam(t):
        # the float intensity falls by less than the sampler's kappa as t rises,
        # the next float up included, even where the rate kernel does not keep
        # the order of close ages
        am = ApproxModel(n, delta, hazard, ARA(m, rho), Normalization.COMPONENT)
        times = np.cumsum(gaps)
        row = envelope_offset_row(times, n, am.repair)
        s = max(float(times[-1]) if times.size else 0.0, float(row.max())) + start
        t = float(np.nextafter(s, np.inf)) if step is None else s + step
        lam_s, lam_t = am._intensity([s, t], row)
        assert _squeeze(n) * lam_s <= lam_t

    def test_one_rate_call_per_event(self, monkeypatch):
        # on the bench oracle config the doubling chain and the squeeze leave
        # about one rate-kernel call per event, where evaluating every window
        # end and every candidate alone made 2.63
        calls = []
        kernel = PowerLawHazard.rate_unchecked

        def counted(hazard, ages):
            calls.append(1)
            return kernel(hazard, ages)

        monkeypatch.setattr(PowerLawHazard, "rate_unchecked", counted)
        out = simulate_thinning(ApproxModel(100, 0.5, PL, ARA(1, 0.3)), n_events=4000, seed=1)
        assert len(out) == 4000
        assert len(calls) / len(out) <= 1.2


def test_rescaled_residuals_recover_nhpp_exponentials():
    times = nhpp_sample(PL, 200, stream_rng(19))
    draws = stream_rng(19).exponential(size=200)
    res = rescaled_residuals(times, lambda a, b: PL.cumulative(b) - PL.cumulative(a))
    assert np.allclose(res, draws, rtol=1e-9)


@pytest.mark.parametrize("sample", [
    lambda am, count: simulate_algorithm1(am, count, seed=1),
    lambda am, count: simulate_thinning(am, n_events=count, seed=1),
    lambda am, count: simulate_sgrp(am.n, am.repair, am.hazard, n_events=count, seed=1)],
    ids=["algorithm1", "thinning", "sgrp"])
def test_one_integer_count_rule(sample):
    # one rule for every sampler: 2.0 events is 2, and 2.5 is refused
    am = ApproxModel(5, 0.5, PL, ARA(1, 0.3))
    assert len(sample(am, 2.0)) == 2
    with pytest.raises(DomainError, match="n_events must be a positive integer"):
        sample(am, 2.5)
