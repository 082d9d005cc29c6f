import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from sgrpsim import (ConfigError, ConstantHazard, DomainError, PowerLawHazard,
                     hazard_from_config)

PL = PowerLawHazard(1.3, 40.0)


class TestRate:
    def test_power_law_at_scale(self):
        assert PL.rate(40.0) == pytest.approx(1.3 / 40.0, rel=1e-15)

    def test_constant_ignores_time(self):
        assert ConstantHazard(0.1).rate(17.3) == 0.1

    def test_power_law_origin(self):
        assert PL.rate(0.0) == 0.0

    def test_vector_input(self):
        t = np.array([0.0, 10.0, 40.0])
        out = PL.rate(t)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(0.0325, rel=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            PL.rate(-1.0)
        with pytest.raises(DomainError):
            PL.rate(np.array([1.0, -2.0]))

    def test_nan_time_rejected(self):
        for h in (PL, ConstantHazard(0.1)):
            with pytest.raises(DomainError):
                h.rate(np.nan)
            with pytest.raises(DomainError):
                h.rate(np.array([1.0, np.nan]))
            with pytest.raises(DomainError):
                h.cumulative(np.nan)
            with pytest.raises(DomainError):
                h.inverse_cumulative(np.nan)

    @pytest.mark.parametrize("h", [PL, PowerLawHazard(1.0, 7.0), ConstantHazard(0.1)])
    def test_unchecked_kernel_equals_rate_bitwise(self, h):
        ages = np.concatenate([[0.0], np.random.default_rng(3).uniform(0.0, 500.0, 200)])
        for shape in ((201,), (3, 67)):
            a = ages.reshape(shape)
            assert np.array_equal(h.rate_unchecked(a), h.rate(a))
        # the public rate still validates
        with pytest.raises(DomainError):
            h.rate(-1.0)


class TestCumulative:
    def test_power_law_at_scale(self):
        assert PL.cumulative(40.0) == 1.0

    def test_constant(self):
        assert ConstantHazard(0.1).cumulative(10.0) == 1.0

    def test_power_law_doubling(self):
        # frozen via quadrature of the rate over [0, 80]
        assert PL.cumulative(80.0) == pytest.approx(2.4622888266898326, rel=1e-12)
        quad, _ = integrate.quad(PL.rate, 0.0, 80.0, epsrel=1e-10)
        assert PL.cumulative(80.0) == pytest.approx(quad, abs=1e-8)

    def test_negative_time_rejected(self):
        with pytest.raises(DomainError):
            PL.cumulative(-0.5)


class TestInverseCumulative:
    def test_power_law_unit(self):
        assert PL.inverse_cumulative(1.0) == 40.0

    def test_constant(self):
        assert ConstantHazard(0.1).inverse_cumulative(0.5) == 5.0

    def test_zero_maps_to_zero(self):
        assert PL.inverse_cumulative(0.0) == 0.0
        assert ConstantHazard(2.0).inverse_cumulative(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            PL.inverse_cumulative(-1e-9)

    @pytest.mark.parametrize("h", [PL, ConstantHazard(0.37), PowerLawHazard(2.5, 3.0)])
    def test_round_trip(self, h):
        u = np.logspace(-6, 3, 200)
        back = h.cumulative(h.inverse_cumulative(u))
        assert np.all(np.abs(back - u) <= 1e-9 * np.maximum(1.0, u))


class TestMonotonicity:
    @pytest.mark.parametrize("h", [PL, PowerLawHazard(1.0, 5.0), PowerLawHazard(3.0, 12.0)])
    def test_rate_nondecreasing(self, h):
        rng = np.random.default_rng(11)
        t = np.sort(rng.uniform(0.0, 300.0, size=400))
        r = h.rate(t)
        assert np.all(np.diff(r) >= 0.0)

    def test_cumulative_strictly_increasing(self):
        rng = np.random.default_rng(12)
        t = np.unique(rng.uniform(0.0, 300.0, size=400))
        assert np.all(np.diff(PL.cumulative(t)) > 0.0)


def test_quadrature_consistency():
    rng = np.random.default_rng(13)
    for h in (PL, ConstantHazard(0.25), PowerLawHazard(2.0, 17.0)):
        for t in rng.uniform(1e-3, 200.0, size=8):
            quad, _ = integrate.quad(h.rate, 0.0, t, epsrel=1e-9)
            assert h.cumulative(t) == pytest.approx(quad, rel=1e-7)


class TestDecreasingGuard:
    def test_rejected_by_default(self):
        with pytest.raises(DomainError):
            PowerLawHazard(0.8, 10.0)

    def test_flag_allows_construction(self):
        h = PowerLawHazard(0.8, 10.0, allow_decreasing=True)
        assert not h.is_nondecreasing
        assert h.rate(1.0) > h.rate(2.0)

    def test_nondecreasing_flag(self):
        assert PL.is_nondecreasing
        assert ConstantHazard(1.0).is_nondecreasing


class TestScaled:
    def test_power_law_rate_scales(self):
        h = PL.scaled(0.01)
        t = np.array([0.5, 7.0, 40.0, 333.0])
        assert np.allclose(h.rate(t), 0.01 * PL.rate(t), rtol=1e-12)
        assert np.allclose(h.cumulative(t), 0.01 * PL.cumulative(t), rtol=1e-12)

    def test_constant_scales(self):
        assert ConstantHazard(0.4).scaled(0.5).rate0 == 0.2

    def test_zero_factor_rejected(self):
        with pytest.raises(DomainError):
            PL.scaled(0.0)
        with pytest.raises(DomainError):
            ConstantHazard(1.0).scaled(-1.0)

    @pytest.mark.parametrize("beta,factor", [(1.0, 2.225073858507e-311), (0.3, 1e-100)])
    def test_factor_past_the_float_range_rejected(self, beta, factor):
        # eta * factor ** (-1 / beta) overflows: a domain error, not an OverflowError
        with pytest.raises(DomainError, match="float range"):
            PowerLawHazard(beta, 5.0, allow_decreasing=True).scaled(factor)


class TestConfig:
    def test_power_law_literal(self):
        h = hazard_from_config({"family": "power_law", "beta": 1.3, "eta": 40.0})
        assert h == PL

    def test_constant_literal(self):
        h = hazard_from_config({"family": "constant", "rate": 0.1})
        assert h == ConstantHazard(0.1)

    def test_round_trip(self):
        for h in (PL, ConstantHazard(0.1)):
            assert hazard_from_config(h.to_config()) == h

    def test_allow_decreasing_round_trip(self):
        h = PowerLawHazard(0.8, 10.0, allow_decreasing=True)
        assert h.to_config()["allow_decreasing"] is True
        assert hazard_from_config(h.to_config()) == h
        # the flag is emitted only when set, so default dicts are unchanged
        assert PL.to_config() == {"family": "power_law", "beta": 1.3, "eta": 40.0}

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_allow_decreasing_must_be_a_boolean(self, flag):
        with pytest.raises(ConfigError, match="allow_decreasing"):
            hazard_from_config({"family": "power_law", "beta": 1.3, "eta": 40.0,
                                "allow_decreasing": flag})

    def test_bad_family(self):
        with pytest.raises(ConfigError):
            hazard_from_config({"family": "weibull"})
        with pytest.raises(ConfigError):
            hazard_from_config({"beta": 1.0})


HAZARDS = st.one_of(
    st.builds(PowerLawHazard, st.floats(0.05, 8.0), st.floats(1e-3, 1e3),
              allow_decreasing=st.just(True)),
    st.builds(ConstantHazard, st.floats(1e-3, 1e3)))
VALUES = st.one_of(st.just(0.0), st.floats(0.0, 1e6))
KERNELS = (("rate", "rate_unchecked"), ("cumulative", "cumulative_unchecked"),
           ("inverse_cumulative", "inverse_cumulative_unchecked"))


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestKernelContract:
    """The public methods are their family's kernels plus validation, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(h=HAZARDS, x=VALUES)
    def test_scalar_gives_the_kernel_float(self, h, x):
        for public, kernel in KERNELS:
            with np.errstate(divide="ignore"):
                want = getattr(h, kernel)(np.asarray(x))
            for arg in (x, np.float64(x), np.asarray(x)):  # scalar and 0-d
                with np.errstate(divide="raise"):  # rate(0) of beta < 1 is a quiet inf
                    got = getattr(h, public)(arg)
                assert type(got) is float
                assert bits(got) == bits(want)

    @settings(max_examples=200, deadline=None)
    @given(h=HAZARDS, x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3,
                                                                 min_side=0, max_side=5),
                                   elements=VALUES))
    def test_array_gives_the_kernel_array(self, h, x):
        for public, kernel in KERNELS:
            with np.errstate(divide="ignore"):
                want = getattr(h, kernel)(x)
            with np.errstate(divide="raise"):
                got = getattr(h, public)(x)
            assert isinstance(got, np.ndarray) and got.shape == x.shape
            assert bits(got) == bits(want)

    @settings(max_examples=100, deadline=None)
    @given(h=HAZARDS, bad=st.one_of(st.just(np.nan), st.floats(max_value=-1e-300)),
           shape=st.sampled_from([(), (1,), (3,), (2, 2)]))
    def test_negative_or_nan_refused(self, h, bad, shape):
        x = np.full(shape, bad) if shape else bad
        for public, _ in KERNELS:
            with pytest.raises(DomainError):
                getattr(h, public)(x)
            if shape:  # one bad value among good ones
                y = np.ones(shape)
                y.flat[-1] = bad
                with pytest.raises(DomainError):
                    getattr(h, public)(y)

    def test_families_define_only_the_kernels(self):
        for family in (PowerLawHazard, ConstantHazard):
            for public, kernel in KERNELS:
                assert public not in vars(family)
                assert kernel in vars(family)
