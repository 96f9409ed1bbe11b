import math
import statistics
from fractions import Fraction
from math import comb

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from isosquare.analysis import (FitResult, ProfilePoint, alpha_limit,
                                alpha_theoretical, cross_binomial_sum,
                                fit_exponent, fluctuation_profile,
                                geometric_grid, model_probability)
from isosquare.enumeration import CountSample

from conftest import check_record


class TestModelProbability:
    def test_k1(self):
        assert model_probability(1, 0) == Fraction(1, 6)
        assert model_probability(1, 2) == Fraction(1, 3)

    def test_k3_l3(self):
        assert model_probability(3, 3) == Fraction(20 + 35, 192)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            model_probability(3, 5)
        with pytest.raises(ValueError):
            model_probability(0, 0)

    def test_normalization_identity(self):
        # summing both binomial rows over the full l range reconstructs
        # the denominator exactly
        for k in range(1, 20):
            total = sum(comb(2 * k, l) for l in range(2 * k + 1)) \
                + sum(comb(2 * k + 1, l) for l in range(2 * k + 2))
            assert total == 3 * 2 ** (2 * k)


class TestAlpha:
    def test_theoretical_value(self):
        assert alpha_theoretical() == pytest.approx(0.75488750, abs=1e-8)

    def test_definitional_inversion(self):
        assert 2 ** alpha_theoretical() == pytest.approx(1.6875, abs=1e-12)

    def test_log_identity(self):
        assert alpha_theoretical() == pytest.approx(math.log2(27) - 4,
                                                    abs=1e-12)

    def test_limit_k1(self):
        assert alpha_limit(1) == pytest.approx(math.log2(3) - 2, abs=1e-12)

    def test_limit_k10(self):
        assert alpha_limit(10) == pytest.approx(
            -2 + math.log2(comb(30, 10)) / 10, abs=1e-12)

    def test_vandermonde(self):
        for k in range(1, 61):
            assert cross_binomial_sum(k) == comb(3 * k, k)

    def test_exact_vs_loggamma_paths_agree(self):
        # the log-gamma form against the exact binomial C(3k, k) for every
        # k up to 61, across the range an exact sum would be cheap
        for k in range(1, 62):
            exact = -2 + math.log(comb(3 * k, k)) / (k * math.log(2))
            assert alpha_limit(k) == pytest.approx(exact, abs=1e-12)

    def test_monotone_convergence(self):
        ks = [10, 100, 1000, 10**4, 10**5]
        vals = [alpha_limit(k) for k in ks]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < alpha_theoretical()
        assert alpha_theoretical() - vals[-1] < 5e-4


class TestRecords:
    def test_fit_result(self):
        check_record(FitResult, {"alpha_hat": 0.75, "intercept": -1.5,
                                 "residual_rms": 0.01, "sample_count": 12})

    def test_profile_point(self):
        check_record(ProfilePoint, {"n": 1024, "log2_n": 10.0, "value": 0.5})


class TestFitExponent:
    def test_planted_exponent(self):
        # exact planted power law, no rounding error
        samples = [CountSample(2**j, 2 ** (3 * j)) for j in range(4, 24, 4)]
        fit = fit_exponent(samples)
        assert fit.alpha_hat == pytest.approx(3.0, abs=1e-9)
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-9)

    def test_fractional_planted_exponent(self):
        # fractional counts keep the planted law exact to float precision
        samples = [CountSample(10**j, 10 ** (0.75 * j)) for j in range(2, 7)]
        fit = fit_exponent(samples)
        assert fit.alpha_hat == pytest.approx(0.75, abs=1e-9)

    def test_constant_counts(self):
        samples = [CountSample(n, 7) for n in (10, 100, 1000)]
        fit = fit_exponent(samples)
        assert fit.alpha_hat == pytest.approx(0.0, abs=1e-12)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_exponent([CountSample(10, 5)])
        with pytest.raises(ValueError):
            fit_exponent([CountSample(10, 0), CountSample(20, 0)])

    def test_all_samples_share_one_n(self):
        with pytest.raises(ValueError):
            fit_exponent([CountSample(100, 5), CountSample(100, 7)])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(CountSample, st.integers(2, 2**40),
                              st.integers(1, 2**40)),
                    min_size=2, unique_by=lambda s: s.n))
    def test_same_floats_as_statistics(self, samples):
        # statistics.linear_regression is the reference the fit reproduces
        xs = [math.log(s.n) for s in samples]
        ys = [math.log(s.count) for s in samples]
        slope, intercept = statistics.linear_regression(xs, ys)
        rms = math.sqrt(sum((y - slope * x - intercept) ** 2
                            for x, y in zip(xs, ys)) / len(samples))
        fit = fit_exponent(samples)
        assert fit.sample_count == len(samples)
        assert [v.hex() for v in fit[:3]] == [
            v.hex() for v in (slope, intercept, rms)]


class TestFluctuationProfile:
    def test_definitional_inversion(self):
        alpha = 0.6
        samples = [CountSample(n, 1) for n in (2, 10, 100)]
        points = fluctuation_profile(samples, alpha)
        for p, s in zip(points, samples):
            assert p.value == pytest.approx(
                math.log(s.n) / s.n**alpha, rel=1e-12)
            assert p.log2_n == pytest.approx(math.log2(s.n), rel=1e-12)

    def test_synthetic_constant_profile(self):
        alpha = alpha_theoretical()
        ns = [2**j for j in range(5, 40)]
        samples = [CountSample(n, n**alpha / math.log(n)) for n in ns]
        for p in fluctuation_profile(samples, alpha):
            assert p.value == pytest.approx(1.0, abs=1e-9)

    def test_zero_count_flagged(self):
        points = fluctuation_profile([CountSample(5, 0)], 0.75)
        assert points[0].value == 0.0

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            fluctuation_profile([CountSample(5, 1)], 0.0)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            fluctuation_profile([CountSample(1, 1)], 0.75)


class TestGeometricGrid:
    def test_quarter_octave(self):
        grid = geometric_grid(1024, 4096)
        assert grid[0] == 1024 and grid[-1] <= 4096
        assert len(grid) == 9  # four points per octave, both ends

    def test_strictly_increasing_unique(self):
        grid = geometric_grid(2, 10**6)
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            geometric_grid(100, 10)
        with pytest.raises(ValueError):
            geometric_grid(10, 100, ratio=1.0)
        with pytest.raises(ValueError, match="ratio must be > 1"):
            geometric_grid(10, 100, ratio=float("nan"))
        # limit * (1 + 1e-12) must stay a finite float
        with pytest.raises(ValueError, match="below 2\\^1023"):
            geometric_grid(1, 10**400)
        with pytest.raises(ValueError, match="1024-bit limit"):
            geometric_grid(1, 1 << 1023)

    def test_step_beyond_every_float_ends_grid(self):
        # ratio**2 overflows a float: the grid ends after ratio**1
        assert geometric_grid(1, 10**301, 1e300) == [1, int(1e300)]

    def test_ratio_near_one_does_work_per_point(self):
        calls = 0

        class CountingRatio(float):  # counts the powers the grid takes
            def __pow__(self, i):
                nonlocal calls
                calls += 1
                assert calls <= 10_000, "work grows with the index, not points"
                return float(self) ** i

        assert geometric_grid(1, 10, CountingRatio(1 + 1e-10)) == list(
            range(1, 11))
