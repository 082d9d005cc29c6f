import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from history_oracle import offset_from_history, offset_step_fold
from sgrpsim import (ARA, ConstantHazard, DomainError, Kijima1, Minimal, Perfect,
                     PowerLawHazard, check_history, intensity_integral, ks_exp1,
                     repair_from_config, simulate_sgrp, stream_rng)
from sgrpsim.repair import next_failure_time

PL = PowerLawHazard(1.3, 40.0)
EPS = float(np.finfo(float).eps)


def random_history(rng, max_len=12, scale=50.0):
    n = int(rng.integers(0, max_len))
    return np.sort(rng.uniform(0.0, scale, size=n))


def unclamped_offset(model, times):
    """The geometric sum behind the offset, added as ``ARA.offset_step`` adds it."""
    acc = 0.0
    w = model.rho
    for s in reversed(list(times[-model.m:])):
        acc += w * float(s)
        w *= 1.0 - model.rho
    return acc


def short_history(start_gaps):
    """A strictly increasing history: ``start``, then each gap ``f * 10**-k`` relative."""
    start, gaps = start_gaps
    times = [start]
    for k, f in gaps:
        t = times[-1] * (1.0 + f * 10.0 ** -k)
        times.append(t if t > times[-1] else float(np.nextafter(times[-1], np.inf)))
    return times


def draw_next(model, hazard, times, rng):
    """The next failure after ``times`` from one Exp(1) variate of ``rng``."""
    last = times[-1] if len(times) else 0.0
    offset = model.offsets_after(times[-model.m:])[-1] if len(times) else 0.0
    return next_failure_time(hazard, offset, last, float(rng.exponential()))


class TestEffectiveAgeOffset:
    def test_two_step_memory(self):
        # rho * (T2 + (1-rho) * T1) with rho = 0.5
        assert ARA(2, 0.5).offsets_after([2.0, 5.0])[-1] == 3.0

    def test_replacement_resets_to_last_time(self):
        assert ARA(1, 1.0).offsets_after([7.2])[-1] == 7.2

    def test_zero_effectiveness(self):
        assert ARA(3, 0.0).offsets_after([1.0, 4.0, 9.0])[-1] == 0.0

    def test_empty_history(self):
        # no failures, no offsets: the intensity is the fresh rate
        for model in (ARA(2, 0.5), Perfect(), Minimal(), Kijima1(0.3)):
            assert model.offsets_after([]).size == 0
            assert model.conditional_intensity(PL, [], 5.0) == PL.rate(5.0)

    @pytest.mark.parametrize("model", [pytest.param(Kijima1(0.7), id="Kijima1(a=0.7)"),
                                       pytest.param(Kijima1(1.4), id="Kijima1(a=1.4)"),
                                       ARA(1, 0.3),
                                       ARA(3, 0.5), ARA(2, 0.0), ARA(4, 1.0),
                                       pytest.param(Perfect(), id="Perfect()"),
                                       pytest.param(Minimal(), id="Minimal()")],
                             ids=repr)
    def test_steps_match_history_recomputation_bitwise(self, model):
        # after every failure, the carried offset equals the offset rebuilt
        # from the whole history, and so do the one-pass offsets, over the
        # whole history and over its last m failures alone
        rng = np.random.default_rng(71)
        times = np.cumsum(rng.exponential(7.0, size=400))
        after = model.offsets_after(times)
        state = model.offset_state()
        for k, t in enumerate(times.tolist()):
            state, offset = model.offset_step(state, t)
            expect = offset_from_history(model, times[:k + 1])
            assert offset == expect
            assert after[k] == expect
            last_m = times[max(k + 1 - model.m, 0):k + 1]
            assert model.offsets_after(last_m)[-1] == expect
            assert model.offsets_after(last_m.tolist())[-1] == expect

    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0, -0.5])
    def test_memory_one_step_is_the_general_fold_bitwise(self, rho):
        # m = 1 returns its first product without the fold's loop: the same
        # state, and the same offset bit for bit, for a float time and for a
        # row of lock-step times (the smallest subnormal first, whose product
        # under rho = -0.5 is -0.0)
        model = ARA(1, rho)
        rng = np.random.default_rng(5)
        floats = [5e-324, *np.cumsum(rng.exponential(7.0, size=40)).tolist()]
        rows = np.cumsum(rng.exponential(7.0, size=(40, 5)), axis=0)
        rows[0, 0] = 5e-324
        for times in (floats, list(rows)):
            state = fold_state = model.offset_state()
            for t in times:
                state, offset = model.offset_step(state, t)
                fold_state, expect = offset_step_fold(model, fold_state, t)
                assert len(state) == 1 and state[0] is fold_state[0] is t
                assert type(offset) is type(expect)
                assert np.asarray(offset).tobytes() == np.asarray(expect).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 1.0, 1.0 - 2.0**-53, 0.999998756338047])
    def test_offset_after_is_the_offset_rebuilt_from_the_history(self, rho, m):
        # the offset after a whole history, read from its last m failures,
        # is the geometric sum over the history bit for bit, clamped alike,
        # and 0.0 for no failures; under ARA(3, 0.999998756338047) the sums
        # of the last four prefixes of NAN_HISTORY round past their last
        # failure
        model = ARA(m, rho)
        rng = np.random.default_rng(29)
        for size in range(7):
            spread = np.cumsum(rng.exponential(7.0, size=size))
            for times in (spread, spread.tolist(), self.NAN_HISTORY[:size]):
                got = model.offset_after(times)
                assert np.float64(got).tobytes() == \
                    np.float64(offset_from_history(model, times)).tobytes()

    #: a history whose ARA(5, rho near 1) float sums pass four of its
    #: failures; unclamped, they made the envelopes at its last time NaN
    NAN_HISTORY = [34.11336886250655, 34.11336886250718, 34.1133688625073,
                   34.11336886250876, 34.11336886250966, 34.113368862511436]

    @settings(max_examples=400, deadline=None)
    @given(m=st.integers(1, 9),
           rho=(st.floats(0.0, 1.0) | st.integers(1, 64).map(lambda k: 1.0 - k * EPS)
                | st.just(1.0 - 1e-6)),
           times=st.tuples(st.floats(1e-3, 1e3),
                           st.lists(st.tuples(st.integers(0, 12), st.floats(1.0, 2.0)),
                                    max_size=11)).map(short_history))
    @example(m=5, rho=0.999998756338047, times=NAN_HISTORY)
    def test_offset_never_passes_its_failure(self, m, rho, times):
        # relative gaps down to 1e-12 and rho near 1, where the float sum
        # for m >= 2 can round past the last failure
        times = np.array(times)
        model = ARA(m, rho)
        after = model.offsets_after(times)
        assert (after <= times).all()
        state, fold = model.offset_state(), []
        for t in times.tolist():
            state, offset = model.offset_step(state, t)
            fold.append(offset)
        assert np.array(fold).tobytes() == after.tobytes()
        if m == 1:
            assert after.tobytes() == (rho * times).tobytes()
        for k in range(times.size):
            expect = unclamped_offset(model, times[:k + 1])
            assert after[k] == (expect if expect <= times[k] else times[k])


class TestConditionalIntensity:
    def test_perfect_single_replacement(self):
        got = Perfect().conditional_intensity(PL, [10.0], 15.0)
        assert got == pytest.approx(PL.rate(5.0), rel=1e-15)

    def test_kijima_recursion(self):
        # V2 = 0.5*4 + 0.5*6 = 5, intensity at t=12 is rate(5 + 2)
        got = Kijima1(0.5).conditional_intensity(PL, [4.0, 10.0], 12.0)
        assert got == pytest.approx(PL.rate(7.0), rel=1e-12)

    def test_ara_single_failure(self):
        got = ARA(1, 0.3).conditional_intensity(PL, [20.0], 20.0)
        assert got == pytest.approx(PL.rate(14.0), rel=1e-15)

    def test_time_before_last_failure_rejected(self):
        with pytest.raises(DomainError):
            Perfect().conditional_intensity(PL, [10.0], 9.0)

    def test_vector_times(self):
        t = np.array([10.0, 12.0, 20.0])
        out = Minimal().conditional_intensity(PL, [10.0], t)
        assert np.allclose(out, PL.rate(t))

    def test_offset_clamped_at_last_failure_on_deep_memory_history(self):
        # under ARA(9, 0.999999) the float sum behind the offset of 6
        # prefixes of this trajectory rounds past their last failure; no
        # offset passes it, so those 6 equal it and the age there is 0
        hazard = PowerLawHazard(0.3, 1.0)
        model = ARA(9, 0.999999)
        times = simulate_sgrp(1, model, hazard, n_events=5000, seed=0).times
        offsets = model.offsets_after(times).tolist()
        assert all(o <= t for o, t in zip(offsets, times.tolist()))
        over = [k for k in range(1, times.size + 1)
                if unclamped_offset(model, times[:k]) > times[k - 1]]
        assert len(over) == 6
        for k in over:
            last = float(times[k - 1])
            assert offsets[k - 1] == last
            assert model.conditional_intensity(hazard, times[:k], last) == hazard.rate(0.0)
            later = last + 0.5
            assert model.conditional_intensity(hazard, times[:k], later) == hazard.rate(later - last)


class TestEquivalences:
    def test_perfect_is_full_one_step_reduction(self):
        rng = np.random.default_rng(21)
        ara = ARA(1, 1.0)
        perfect = Perfect()
        for _ in range(50):
            hist = random_history(rng)
            t = (hist[-1] if hist.size else 0.0) + rng.uniform(0.0, 30.0)
            assert ara.conditional_intensity(PL, hist, t) == \
                perfect.conditional_intensity(PL, hist, t)

    def test_minimal_is_zero_effectiveness(self):
        rng = np.random.default_rng(22)
        minimal = Minimal()
        for m in (1, 2, 5):
            ara = ARA(m, 0.0)
            for _ in range(20):
                hist = random_history(rng)
                t = (hist[-1] if hist.size else 0.0) + rng.uniform(0.0, 30.0)
                assert ara.conditional_intensity(PL, hist, t) == \
                    minimal.conditional_intensity(PL, hist, t)

    def test_kijima_matches_one_step_reduction(self):
        # V_k = V_{k-1} + a X_k gives the offset T_N - V_N = (1 - a) T_N
        rng = np.random.default_rng(23)
        for a in (0.0, 0.4, 1.0):
            kij, ara = Kijima1(a), ARA(1, 1.0 - a)
            for _ in range(20):
                hist = random_history(rng)
                t = (hist[-1] if hist.size else 0.0) + rng.uniform(0.0, 30.0)
                assert kij.conditional_intensity(PL, hist, t) == pytest.approx(
                    ara.conditional_intensity(PL, hist, t), rel=1e-12)
                v = 0.0
                prev = 0.0
                for s in hist.tolist():
                    v += a * (s - prev)
                    prev = s
                offset = kij.offsets_after(hist)[-1] if hist.size else 0.0
                assert offset == pytest.approx(
                    prev - v, rel=1e-12, abs=1e-12)

    def test_constructors_return_ara(self):
        assert Perfect() == ARA(1, 1.0)
        assert Minimal() == ARA(1, 0.0)
        for a in (0.0, 0.3, 0.7, 1.0, 1.4):
            assert Kijima1(a) == ARA(1, 1.0 - a)
            assert type(Kijima1(a)) is ARA


class TestRepairImproves:
    def test_last_repair_lowers_intensity(self):
        rng = np.random.default_rng(24)
        for hazard in (PL, PowerLawHazard(2.0, 10.0)):
            for _ in range(60):
                m = int(rng.integers(1, 4))
                rho = float(rng.uniform(0.0, 1.0))
                model = ARA(m, rho)
                hist = random_history(rng, max_len=10)
                if hist.size == 0:
                    continue
                t = hist[-1] + float(rng.uniform(0.0, 40.0))
                with_last = model.conditional_intensity(hazard, hist, t)
                without = model.conditional_intensity(hazard, hist[:-1], t)
                assert with_last <= without + 1e-15

    def test_chain_never_exceeds_initial_rate(self):
        rng = np.random.default_rng(25)
        for _ in range(60):
            model = ARA(int(rng.integers(1, 4)), float(rng.uniform(0.0, 1.0)))
            hist = random_history(rng)
            t = (hist[-1] if hist.size else 0.0) + float(rng.uniform(0.0, 40.0))
            assert model.conditional_intensity(PL, hist, t) <= PL.rate(t) + 1e-15


class TestSampler:
    def test_forced_exponential_constant_rate(self):
        # a fresh component: offset 0 after no failure at 0
        got = next_failure_time(ConstantHazard(0.1), 0.0, 0.0, 0.5)
        assert got == pytest.approx(5.0, rel=1e-15)

    def test_forced_exponential_replacement(self):
        offset = Perfect().offsets_after([40.0])[-1]
        got = next_failure_time(PL, offset, 40.0, 1.0)
        assert got == pytest.approx(80.0, rel=1e-15)

    def test_strictly_after_last_failure(self):
        rng = np.random.default_rng(26)
        for model in (ARA(2, 0.6), Perfect(), Minimal(), Kijima1(0.5)):
            hist = [3.0, 8.0, 11.0]
            for _ in range(30):
                assert draw_next(model, PL, hist, rng) > 11.0

    def test_seed_determinism(self):
        for model in (ARA(1, 0.3), Kijima1(0.7)):
            a = draw_next(model, PL, [5.0], stream_rng(99))
            b = draw_next(model, PL, [5.0], stream_rng(99))
            assert a == b


def test_sampler_time_rescaling():
    # integrated conditional intensity between samples must be Exp(1);
    # integration by quadrature keeps the check independent of the
    # inverse-cumulative algebra the sampler uses
    model = ARA(1, 0.3)
    rng = stream_rng(1234)
    times = []
    for _ in range(300):
        times.append(draw_next(model, PL, times, rng))
    residuals = np.empty(len(times))
    prev = 0.0
    for k, t in enumerate(times):
        hist = times[:k]
        integral = intensity_integral(
            lambda u: model.conditional_intensity(PL, hist, u))
        residuals[k] = integral(prev, t)
        # the closed form the acceptance gate uses agrees to quad's tolerance
        o = model.offsets_after(hist[-model.m:])[-1] if hist else 0.0
        closed = PL.cumulative(t - o) - PL.cumulative(prev - o)
        assert closed == pytest.approx(residuals[k], rel=1e-7)
        prev = t
    assert not ks_exp1(residuals).rejects[0.01]


class TestValidation:
    def test_history_must_increase(self):
        with pytest.raises(DomainError):
            check_history([1.0, 1.0])
        with pytest.raises(DomainError):
            check_history([3.0, 2.0])
        with pytest.raises(DomainError):
            check_history([-1.0, 2.0])

    @staticmethod
    def accepted_by_min_diff(times):
        """The earlier test of a history: its first time and the smallest gap."""
        arr = np.asarray(times, dtype=float)
        if arr.size and not arr[0] >= 0.0:
            return False
        with np.errstate(invalid="ignore"):  # inf - inf
            return not (arr.size > 1 and not float(np.min(np.diff(arr))) > 0.0)

    @settings(max_examples=500, deadline=None)
    @given(base=st.lists(st.floats(0.0, 1e6) | st.floats(0.0, 1e-300), max_size=10),
           distinct=st.booleans(),
           edits=st.lists(st.tuples(st.integers(0, 11), st.sampled_from(
               ["nan", "inf", "-inf", "tie", "-0.0", "subnormal", "swap"])), max_size=3))
    @example(base=[], distinct=True, edits=[(0, "nan")])
    @example(base=[], distinct=True, edits=[(0, "-0.0")])
    @example(base=[0.0], distinct=True, edits=[(1, "-0.0")])
    @example(base=[0.0], distinct=True, edits=[(0, "-0.0")])
    @example(base=[0.0], distinct=True, edits=[(1, "subnormal")])
    @example(base=[1.0], distinct=True, edits=[(1, "inf"), (2, "inf")])
    def test_strict_increase_refuses_what_the_smallest_gap_refused(self, base, distinct, edits):
        # one comparison of neighbours refuses NaN anywhere, ties, decreases
        # and a negative first time, exactly as the smallest difference did
        times = sorted(set(base)) if distinct else sorted(base)
        for at, kind in edits:
            k = min(at, len(times))
            if kind == "tie" and times:
                times.insert(k, times[min(k, len(times) - 1)])
            elif kind == "subnormal":
                x = times[k - 1] if k else 0.0
                times.insert(k, float(np.nextafter(x, np.inf)))
            elif kind == "swap" and k + 1 < len(times):
                times[k], times[k + 1] = times[k + 1], times[k]
            elif kind in ("nan", "inf", "-inf", "-0.0"):
                times.insert(k, float(kind))
        try:
            check_history(times)
            accepted = True
        except DomainError:
            accepted = False
        assert accepted == self.accepted_by_min_diff(times)

    def test_rho_cap(self):
        with pytest.raises(DomainError):
            ARA(1, 1.2)

    def test_harmful_repair_flagged(self):
        model = ARA(1, -0.5)
        assert not model.is_improving
        assert ARA(1, 0.5).is_improving

    def test_kijima_negative_rejected(self):
        with pytest.raises(DomainError):
            Kijima1(-0.1)
        assert not Kijima1(1.5).is_improving

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), -float("inf"), -1e-300])
    def test_kijima_refuses_nonfinite_and_negative(self, a):
        # Kijima1 checks a itself, so that its message names a
        with pytest.raises(DomainError, match="age accumulation factor"):
            Kijima1(a)

    def test_memory_must_be_positive_integer(self):
        with pytest.raises(DomainError):
            ARA(0, 0.5)


class TestConfig:
    @pytest.mark.parametrize("cfg,expected", [
        ({"model": "ara", "m": 1, "rho": 0.3}, ARA(1, 0.3)),
        ({"model": "kijima1", "a": 0.5}, Kijima1(0.5)),
        ({"model": "perfect"}, Perfect()),
        ({"model": "minimal"}, Minimal()),
    ])
    def test_literals(self, cfg, expected):
        assert repair_from_config(cfg) == expected

    def test_round_trip(self):
        for model in (ARA(2, 0.7), Kijima1(0.2), Perfect(), Minimal()):
            assert repair_from_config(model.to_config()) == model

    def test_unknown_model(self):
        from sgrpsim import ConfigError
        with pytest.raises(ConfigError):
            repair_from_config({"model": "ari"})
