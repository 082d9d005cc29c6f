import warnings
from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import sgrpsim.superpose as superpose
from history_oracle import (RampHazard, grp_stream, simulate_sgrp_from_history,
                            true_intensity_per_component, wrap_stacks)
from sgrpsim import (ARA, ApproxModel, ConstantHazard, DomainError, FullHistory, Kijima1,
                     MaskedHistory, Minimal, Normalization, Perfect, PowerLawHazard, mask,
                     simulate_algorithm1, simulate_sgrp, stream_rng, true_intensity_at_events,
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
#: events per component count; n=1 and n=2 step their streams on Python
#: floats, n=100 crosses a BLOCK_ROWS boundary
EVENTS = {1: 1200, 2: 1200, 5: 2000, 100: 5000}


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
        for seed in range(10):
            full = simulate_sgrp(int(rng.integers(1, 6)), ARA(1, 0.5), PL,
                                 n_events=int(rng.integers(1, 60)), seed=seed)
            assert len(mask(full)) == sum(arr.size for arr in full.per_component)
            assert consistent(full)

    def test_masked_invariants(self):
        with pytest.raises(DomainError):
            MaskedHistory(np.array([2.0, 1.0]), 2, 3.0)
        with pytest.raises(DomainError):
            MaskedHistory(np.array([1.0, 2.0]), 2, 1.5)
        with pytest.raises(DomainError):
            MaskedHistory(np.array([1.0]), 0, 2.0)
        with pytest.raises(DomainError, match="positive integer"):
            MaskedHistory(np.array([1.0]), 2.5, 2.0)
        assert MaskedHistory(np.array([1.0]), 2.0, 2.0).n == 2

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
                             PowerLawHazard(0.3, 1.0),
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


class RepeatedColumns:
    """A generator stand-in whose draw blocks repeat one column of draws."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator

    def standard_exponential(self, size):
        k, width = size
        return np.repeat(self.rng.standard_exponential(size=(k, 1)), width, axis=1)


def nudged(times):
    """Sorted ``times`` with each one not above the time before it (or 0) moved a float up."""
    out, prev = [], 0.0
    for t in times:
        prev = t if t > prev else float(np.nextafter(prev, np.inf))
        out.append(prev)
    return np.array(out)


def assert_components_carry_the_merged_times(full):
    for c, comp in enumerate(full.per_component):
        assert np.array_equal(comp, full.times[full.labels == c + 1])


def test_tie_break_is_lowest_component_index(monkeypatch):
    # components reading the same draws fail at equal times, and each tie
    # resolves by component order, as the heap's (time, index) does; each
    # later member of a tie moves a float up, in its component's times too
    n = 4
    monkeypatch.setattr(superpose, "stream_rng",
                        lambda seed, role: RepeatedColumns(stream_rng(seed, role)))
    full = simulate_sgrp(n, Minimal(), ConstantHazard(0.5), n_events=202, seed=8)
    assert np.array_equal(full.labels, np.tile(np.arange(1, n + 1), 51)[:202])
    assert np.array_equal(full.times, nudged(np.repeat(full.per_component[0], n)[:202]))
    assert_components_carry_the_merged_times(full)
    assert full.counts().tolist() == [51, 51, 50, 50]


def test_a_tie_nudged_past_the_horizon_is_cut(monkeypatch):
    # the horizon falls on a tie: its first member stays, the others move
    # past the horizon and leave the run with their components' times
    n = 4
    monkeypatch.setattr(superpose, "stream_rng",
                        lambda seed, role: RepeatedColumns(stream_rng(seed, role)))
    first = simulate_sgrp(n, Minimal(), ConstantHazard(0.5), n_events=40, seed=8).per_component[0]
    full = simulate_sgrp(n, Minimal(), ConstantHazard(0.5), horizon=float(first[5]), seed=8)
    assert full.times[-1] == first[5] and full.labels[-1] == 1
    assert full.counts().tolist() == [6, 5, 5, 5]
    assert_components_carry_the_merged_times(full)


#: exact cross-component ties from the real generator: a power law this
#: steep puts every failure within a few ulps of eta
TIES = (100, Minimal(), PowerLawHazard(1e13, 1.0))


@pytest.mark.parametrize("stop", ["count", "horizon"])
def test_ties_are_nudged_as_the_stream_sampler_nudges_them(stop):
    # one tie rule: the exact superposition nudges the heap merge's ties
    # apart, and delta = 1 of the stream sampler is it bit for bit
    n, model, hazard = TIES
    times, labels, _ = simulate_sgrp_from_history(n, model, hazard, n_events=300, seed=1)
    rank, counts = np.unique(times, return_counts=True)
    assert (counts > 1).sum() >= 20  # the raw merge holds ties
    run = dict(n_events=300)
    if stop == "horizon":  # on a tie: only its first member is kept
        run = dict(horizon=float(rank[np.flatnonzero(counts > 1)[10]]))
        keep = np.searchsorted(nudged(times), run["horizon"], side="right")
        times, labels = times[:keep], labels[:keep]
    full = simulate_sgrp(n, model, hazard, seed=1, **run)
    assert np.array_equal(full.times, nudged(times))
    assert np.array_equal(full.labels, labels)
    assert_components_carry_the_merged_times(full)
    am = ApproxModel(n, 1.0, hazard, model, Normalization.COMPONENT)
    stream = simulate_algorithm1(am, run.get("n_events"), seed=1, horizon=run.get("horizon"))
    assert np.array_equal(stream.times, mask(full).times)


@pytest.mark.parametrize("n", [1, 2, 5, 100])
def test_component_gaps_are_the_group_draws_over_the_rate(n):
    # under a constant rate and perfect repair, component c's j-th gap is
    # draw number j * n + c of the one generator, over the rate: its times
    # are the running sums of those gaps, bit for bit
    rate, seed = 0.5, 3
    full = simulate_sgrp(n, Perfect(), ConstantHazard(rate), n_events=40 * n, seed=seed)
    steps = int(full.counts().max())
    draws = stream_rng(seed, superpose.COMPONENTS).standard_exponential(steps * n)
    for c, comp in enumerate(full.per_component):
        assert np.array_equal(comp, np.cumsum(draws[c::n][:comp.size] / rate))
    assert full.counts().sum() == 40 * n


def assert_matches_heap_oracle(n, model, hazard, seed, **stop):
    full = simulate_sgrp(n, model, hazard, seed=seed, **stop)
    times, labels, per_component = simulate_sgrp_from_history(n, model, hazard,
                                                              seed=seed, **stop)
    assert np.array_equal(full.times, times)
    assert np.array_equal(full.labels, labels)
    assert len(full.per_component) == n
    for got, expect in zip(full.per_component, per_component):
        assert np.array_equal(got, expect)
    assert consistent(full)
    return full


#: ARA(9, rho near 1) under a decreasing hazard: offsets round past the last
#: failure, and the age is clamped at 0
CLAMP = (ARA(9, 0.999999), PowerLawHazard(0.3, 1.0))


@pytest.mark.parametrize("n", sorted(EVENTS))
@pytest.mark.parametrize("case", [*sorted(CASES), "clamp"])
def test_simulate_matches_history_sampler_bitwise(case, n):
    # the lock-step streams with incremental offsets give the trajectory of
    # components stepped one failure at a time on their scalar draws of the
    # group's generator, each rebuilding its offset from its whole history,
    # merged by a heap, in both stop modes
    model, hazard = CLAMP if case == "clamp" else CASES[case]
    seed = 300 + n
    full = assert_matches_heap_oracle(n, model, hazard, seed, n_events=EVENTS[n])
    assert len(full) == EVENTS[n]
    # a horizon between events, and one at an event, which is kept
    for horizon in (0.6 * float(full.times[-1]), float(full.times[EVENTS[n] // 2])):
        full = assert_matches_heap_oracle(n, model, hazard, seed, horizon=horizon)
        assert full.horizon == horizon


@pytest.mark.parametrize("cap", [1, 7, 64])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_simulate_does_not_depend_on_block_size(cap, n, monkeypatch):
    # the streams hand back at most ``cap`` steps per request; the engine
    # takes what it gets, and the run is the one of uncapped blocks
    assert_block_size_free(n, Kijima1(0.7), PL, cap, monkeypatch)


@pytest.mark.parametrize("cap", [1, 7, 64])
@pytest.mark.parametrize("case", ["ara3", "clamp"])
def test_deep_memory_does_not_depend_on_block_size(case, cap, monkeypatch):
    # five streams step as arrays written into their block in place; with
    # m >= 2 the offset state holds rows of earlier steps, and at cap 1 rows
    # of earlier blocks, which must stay as they were written
    model, hazard = CLAMP if case == "clamp" else CASES[case]
    assert_block_size_free(5, model, hazard, cap, monkeypatch)


def assert_block_size_free(n, model, hazard, cap, monkeypatch, seed=23):
    count = simulate_sgrp(n, model, hazard, n_events=600, seed=seed)
    horizon = simulate_sgrp(n, model, hazard, horizon=0.5 * float(count.times[-1]),
                            seed=seed)
    wrap_stacks(monkeypatch, lambda k: min(k, cap))
    for whole in (count, horizon):
        stop = (dict(n_events=len(whole)) if whole is count
                else dict(horizon=whole.horizon))
        got = simulate_sgrp(n, model, hazard, seed=seed, **stop)
        assert np.array_equal(got.times, whole.times)
        assert np.array_equal(got.labels, whole.labels)


def engine_work(monkeypatch, run):
    """Lock-step steps and blocks of the engine's stacks that ``run()`` takes."""
    work = {"steps": 0, "blocks": 0}

    def counted(block):
        work["steps"] += len(block)
        work["blocks"] += 1

    wrap_stacks(monkeypatch, lambda k: k, counted)
    run()
    return work


def test_wide_group_steps_end_near_the_cut(monkeypatch):
    # the slowest of 100 streams reaches the 6,000th time in about 80 steps;
    # a first block sized for it ends there, where sizing it for the mean
    # stream and extrapolating from the cut of the times drawn took 101
    work = engine_work(monkeypatch, lambda: simulate_sgrp(
        100, ARA(1, 0.3), PL.scaled(0.01), n_events=6000, seed=5))
    assert work["steps"] <= 85
    assert work["blocks"] == 1


def test_horizon_run_sizes_its_first_block_from_the_cumulative_hazard(monkeypatch):
    # the same run to the time of its 6,000th event: the cumulative hazard
    # at the horizon bounds each stream's expected count, so the first block
    # reaches the horizon, where starting at one step and doubling took 8
    horizon = float(simulate_sgrp(100, ARA(1, 0.3), PL.scaled(0.01), n_events=6000,
                                  seed=5).times[-1])
    work = engine_work(monkeypatch, lambda: simulate_sgrp(
        100, ARA(1, 0.3), PL.scaled(0.01), horizon=horizon, seed=5))
    assert work["blocks"] <= 2
    assert work["steps"] <= 100


@pytest.mark.parametrize("n", [1, 3, 100])
def test_horizon_whose_cumulative_hazard_underflows(n):
    # the first block still takes a step
    assert len(simulate_sgrp(n, Kijima1(0.7), PL, horizon=1e-300, seed=1)) == 0


@pytest.mark.parametrize("seed,steps", [(1, 1365), (31, 1283), (73, 1279)])
def test_narrow_group_steps_do_not_grow(seed, steps, monkeypatch):
    # the bounds-kijima config: five streams take no more steps than when
    # the first block was count * share steps and later blocks extrapolated
    # from the cut of the times drawn so far (that rule's steps on these
    # trajectories)
    work = engine_work(monkeypatch, lambda: simulate_sgrp(
        5, Kijima1(0.7), PL, n_events=6000, seed=seed))
    assert work["steps"] <= steps


@st.composite
def tied_floats(draw):
    """Float arrays, NaN-free, with some values copied onto others."""
    values = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=60))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, len(values) - 1),
                                            st.integers(0, len(values) - 1)), max_size=20)):
        values[dst] = values[src]
    return np.array(values)


@settings(max_examples=300, deadline=None)
@given(values=tied_floats())
@example(values=np.array([3.0, 1.0, 7.5, 2.0, 7.5]))  # a tie at the cut
@example(values=np.array([1.0, -0.0, 2.0, 0.0, -0.0]))  # 0.0 == -0.0
@example(values=np.full(9, 4.25))
@example(values=np.array([2.0, 1.0, 3.0]))  # no tie
def test_stable_order_is_the_stable_argsort(values):
    assert np.array_equal(superpose._stable_order(values),
                          np.argsort(values, kind="stable"))


@pytest.mark.parametrize("n", sorted(EVENTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_trajectory_equals_pointwise_at_every_event_bitwise(case, n):
    # against the per-component oracle, which is the pointwise intensity at
    # every event bit for bit (next test)
    model, hazard = CASES[case]
    full = simulate_sgrp(n, model, hazard, n_events=EVENTS[n], seed=400 + n)
    walked = true_intensity_at_events(full, model, hazard)
    assert np.array_equal(walked, true_intensity_per_component(full, model, hazard))


@pytest.mark.parametrize("n", [1, 5, 12])
@pytest.mark.parametrize("case", sorted(CASES))
def test_per_component_oracle_is_pointwise_bitwise(case, n):
    # at n = 12 a row of rates is summed pairwise, past numpy's unrolled block of 8
    model, hazard = CASES[case]
    full = simulate_sgrp(n, model, hazard, n_events=300, seed=400 + n)
    direct = np.array([true_system_intensity(full, model, hazard, t)
                       for t in full.times.tolist()])
    assert np.array_equal(true_intensity_per_component(full, model, hazard), direct)


@pytest.mark.parametrize("block_rows", [1, 7, 64])
def test_trajectory_does_not_depend_on_block_size(block_rows, monkeypatch):
    model = Kijima1(0.7)
    full = simulate_sgrp(5, model, PL, n_events=700, seed=17)
    whole = true_intensity_at_events(full, model, PL)
    monkeypatch.setattr(superpose, "BLOCK_ROWS", block_rows)
    assert np.array_equal(true_intensity_at_events(full, model, PL), whole)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_age_past_the_float_range_raises(n):
    # a harmful repair this strong overflows an age within a few failures;
    # Python floats and arrays alike stop on it, quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stop in (dict(n_events=50), dict(horizon=300.0)):
            with pytest.raises(DomainError, match="float range"):
                simulate_sgrp(n, ARA(2, -1e300), PL, seed=1, **stop)


class ZeroDraws:
    """A generator stand-in whose draws at the given (step, stream) places are 0.

    It counts the draws it hands out, stream i's j-th being number
    ``j * width + i``, and its ``bit_generator.state`` carries that count
    with the wrapped generator's state, so a restored state re-draws alike.
    """

    def __init__(self, rng, width, places):
        self.rng = rng
        self.zeros = [j * width + i for j, i in places]
        self.drawn = 0
        self.bit_generator = self

    @property
    def state(self):
        return self.rng.bit_generator.state, self.drawn

    @state.setter
    def state(self, value):
        self.rng.bit_generator.state, self.drawn = value

    def standard_exponential(self, size=None, out=None):
        block = self.rng.standard_exponential(size=size, out=out)
        flat = block.reshape(-1)
        for d in self.zeros:
            if self.drawn <= d < self.drawn + flat.size:
                flat[d - self.drawn] = 0.0
        self.drawn += flat.size
        return block


@pytest.mark.parametrize("size", [1, 7, 64])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("width", [3, 100])
def test_a_step_onto_its_predecessor_is_guarded_in_lock_step(width, m, size):
    # under rate(x) = x and ARA(m, 0.5) a zero draw lands a step exactly on
    # its predecessor: the age t - o is exact (o >= t / 2), the cumulative
    # hazard fl(a * a) / 2 inverts to a by sqrt, and o + (t - o) = t. So
    # next_failure_time nudges it one float up. One zero falls mid-block
    # (at block size 1 on a first row), one on the first row of a later
    # block, and a third beside it on another stream. Each block that holds
    # one is re-stepped guarded from its start, the offsets of earlier rows
    # and the draws restored, and every stream is the one stepped one
    # failure at a time on its draws
    model, hazard, seed = ARA(m, 0.5), RampHazard(1.0, 1e6), 41
    steps = max(3 * size, 8)
    places = [(3, 1), (2 * size, width - 1), (2 * size, 0)]
    rng = ZeroDraws(stream_rng(seed, superpose.COMPONENTS), width, places)
    streams = superpose._rejuvenating_streams([(model, hazard, rng, width, 1.0)])
    next(streams)
    got = np.concatenate([streams.send(size) for _ in range(steps // size)])

    draws = stream_rng(seed, superpose.COMPONENTS).standard_exponential(size=(steps, width))
    draws[tuple(zip(*places))] = 0.0
    expect = np.column_stack([list(grp_stream(model, hazard, draws[:, i].tolist()))
                              for i in range(width)])
    assert np.array_equal(got, expect)
    for j, i in places:
        assert expect[j, i] == np.nextafter(expect[j - 1, i], np.inf)


@pytest.mark.parametrize("size", [1, 7])
@pytest.mark.parametrize("m", [1, 3])
def test_a_stack_re_steps_every_group_from_its_own_draws(m, size):
    # two groups at rates 0.5 and 2 step as one stack on a per-column rate:
    # powers of two, so a zero draw lands a step on its predecessor as under
    # the ramp above. A block holding one re-draws both groups from their own
    # generators and re-steps the stack with the guard, the last zero falling
    # in the sixth block, and each group's streams are the ones stepped
    # alone on their draws
    model, seeds, widths = ARA(m, 0.5), [41, 42], [3, 4]
    hazards = [ConstantHazard(0.5), ConstantHazard(2.0)]
    places = [[(3, 1)], [(2 * size, 3), (5 * size, 0)]]
    rngs = [ZeroDraws(stream_rng(seed, superpose.COMPONENTS), width, where)
            for seed, width, where in zip(seeds, widths, places)]
    streams = superpose._rejuvenating_streams(
        [(model, hazard, rng, width, 0.5) for hazard, rng, width in zip(hazards, rngs, widths)])
    next(streams)
    both = np.concatenate([streams.send(size) for _ in range(6)])
    got = [both[:, :3], both[:, 3:]]

    for block, seed, width, hazard, where in zip(got, seeds, widths, hazards, places):
        draws = stream_rng(seed, superpose.COMPONENTS).standard_exponential(
            size=(len(block), width))
        draws[tuple(zip(*where))] = 0.0
        expect = np.column_stack([list(grp_stream(model, hazard, draws[:, i].tolist()))
                                  for i in range(width)])
        assert np.array_equal(block, expect)
        for j, i in where:
            assert expect[j, i] == np.nextafter(expect[j - 1, i], np.inf)


class CachedPowerLaw(PowerLawHazard):
    """A power law whose inverse cumulative hazard reads a cached 0-d array of ``eta``."""

    @cached_property
    def eta_array(self):
        return np.array(self.eta)

    def inverse_cumulative_unchecked(self, u):
        return self.eta_array * np.power(u, 1.0 / self.beta)


def test_a_cached_attribute_neither_keys_nor_rides_into_a_stack(monkeypatch):
    # the cached array, read before the batch, is no dataclass field: it
    # neither joins the stack key (an array does not hash) nor rides into the
    # per-column hazard (its stale eta would step both groups at the first's)
    hazards = [CachedPowerLaw(1.3, 40.0), CachedPowerLaw(1.3, 25.0)]
    solos = [simulate_sgrp(3, ARA(2, 0.4), h, n_events=200, seed=7) for h in hazards]
    assert all(h.eta_array.ndim == 0 for h in hazards)
    widths = []
    wrap_stacks(monkeypatch, lambda k: k, lambda block: widths.append(block.shape[1]))
    plans = [superpose._sgrp_run(3, ARA(2, 0.4), h, 200, None, 7) for h in hazards]
    results = superpose._advance_streams([run for run, _ in plans])
    assert set(widths) == {6}  # one stack of both runs
    for (_, finish), result, solo in zip(plans, results, solos):
        got = finish(*result)
        assert np.array_equal(got.times, solo.times)
        assert np.array_equal(got.labels, solo.labels)


def test_horizon_must_be_finite():
    # both samplers check their stop rule here; an infinite horizon would
    # never stop the blocks
    with pytest.raises(DomainError, match="finite"):
        superpose._check_stop(None, np.inf)


def test_trajectory_of_an_empty_history():
    full = simulate_sgrp(3, Kijima1(0.7), PL, horizon=1e-9, seed=1)
    assert len(full) == 0
    assert true_intensity_at_events(full, Kijima1(0.7), PL).size == 0
