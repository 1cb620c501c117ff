import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from segscan import (DegenerateScaleError, NoiseModel, Profile, SimSpec,
                     ValidationError, build_prefix_sums, estimate_sigma_mad,
                     log_p_value, p_value, simulate, z_statistic)
from segscan.stats import OpCounter, log_p_value_batch, segment_stats


class TestPrefixSums:
    def test_small_example(self):
        ps = build_prefix_sums(Profile([1.0, 2.0, 3.0]))
        assert ps.cumulative.tolist() == [0.0, 1.0, 3.0, 6.0]
        assert ps.n == 3
        assert ps.range_sum(1, 3) == 5.0

    def test_empty_profile_rejected_upstream(self):
        with pytest.raises(ValidationError):
            Profile([])

    def test_matches_direct_summation(self):
        # oracle: numpy pairwise summation over the raw slice, not cumsum
        rng = np.random.default_rng(11)
        values = rng.normal(size=1000)
        ps = build_prefix_sums(Profile(values))
        pairs = [(0, 1000), (0, 1), (999, 1000)]
        pairs += [tuple(sorted(rng.integers(0, 1001, size=2))) for _ in range(3000)]
        for left, right in pairs:
            if left == right:
                continue
            direct = float(np.sum(values[left:right]))
            got = ps.range_sum(left, right)
            assert got == pytest.approx(direct, rel=1e-9, abs=1e-9)

    def test_segment_means_long_profile(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=10_000)
        ps = build_prefix_sums(Profile(values))
        for _ in range(2000):
            left, right = sorted(rng.integers(0, 10_001, size=2))
            if left == right:
                continue
            direct_mean = float(np.sum(values[left:right])) / (right - left)
            mean = ps.range_sum(left, right) / (right - left)
            assert mean == pytest.approx(direct_mean, rel=1e-9, abs=1e-9)

    def test_counter_counts_construction(self):
        counter = OpCounter()
        build_prefix_sums(Profile(np.ones(50)), counter)
        assert counter.count == 50  # one add per point


class TestSigmaMad:
    def test_hand_example(self):
        noise = estimate_sigma_mad(Profile([-1.0, 0.0, 1.0]))
        assert noise.sigma == pytest.approx(1.4826)
        assert noise.background == 0.0

    def test_degenerate_mad(self):
        with pytest.raises(DegenerateScaleError):
            estimate_sigma_mad(Profile([1.0, 1.0, 1.0, 1.0]))

    def test_too_short(self):
        with pytest.raises(ValidationError):
            estimate_sigma_mad(Profile([1.0]))

    def test_shift_invariance(self):
        rng = np.random.default_rng(13)
        values = rng.normal(size=501)
        base = estimate_sigma_mad(Profile(values)).sigma
        shifted = estimate_sigma_mad(Profile(values + 17.5)).sigma
        assert shifted == pytest.approx(base, rel=1e-12)

    def test_scale_linearity(self):
        rng = np.random.default_rng(14)
        values = rng.normal(size=501)
        base = estimate_sigma_mad(Profile(values)).sigma
        scaled = estimate_sigma_mad(Profile(values * 3.0)).sigma
        assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_monte_carlo_standard_normal(self):
        profile, _ = simulate(SimSpec(length=10_000, seed=42))
        noise = estimate_sigma_mad(profile)
        assert 0.95 <= noise.sigma <= 1.05

    def test_invalid_sigma(self):
        with pytest.raises(ValidationError):
            NoiseModel(sigma=0.0)


class TestZStatistic:
    def test_zero_sum(self):
        assert z_statistic(0.0, 4, NoiseModel(1.0)) == 0.0

    def test_direct_formula(self):
        assert z_statistic(8.0, 16, NoiseModel(1.0)) == pytest.approx(2.0)

    def test_single_point_with_background(self):
        assert z_statistic(2.0, 1, NoiseModel(2.0, background=1.0)) == pytest.approx(0.5)


class TestPValue:
    def test_z_zero(self):
        assert p_value(0.0) == 1.0

    def test_five_percent_point(self):
        # frozen from the standard normal quantile: Phi^-1(0.975) = 1.959964
        assert p_value(1.959964) == pytest.approx(0.05, abs=1e-6)
        oracle = 2.0 * scipy_stats.norm.sf(1.959964)
        assert p_value(1.959964) == pytest.approx(oracle, rel=1e-12)

    def test_symmetry(self):
        assert p_value(-1.959964) == p_value(1.959964)
        zs = np.linspace(0.0, 10.0, 501)
        for z in zs[::25]:
            assert log_p_value(-z) == log_p_value(z)

    def test_strictly_decreasing_in_abs_z(self):
        zs = np.linspace(0.0, 10.0, 1001)
        ps = log_p_value_batch(zs)
        assert np.all(np.diff(ps) < 0)

    def test_one_sided(self):
        assert p_value(0.0, sides="one") == pytest.approx(0.5)
        assert p_value(3.0, sides="one") == pytest.approx(scipy_stats.norm.sf(3.0), rel=1e-12)
        # one-sided: negative z is uninteresting
        assert p_value(-3.0, sides="one") > 0.99

    def test_log_p_consistency(self):
        for z in (0.0, 0.5, 1.0, 3.0, 8.0, 20.0, 35.0):
            assert math.exp(log_p_value(z)) == pytest.approx(p_value(z), rel=1e-10)

    def test_log_p_no_underflow(self):
        lp = log_p_value(50.0)
        assert math.isfinite(lp)
        assert lp < -1000.0


def test_segment_stats_matches_scalar_ops():
    rng = np.random.default_rng(15)
    values = rng.normal(size=300)
    profile = Profile(values)
    ps = build_prefix_sums(profile)
    noise = NoiseModel(1.3, background=0.2)
    mean, z, log_p = segment_stats(ps, noise, 37, 120, "two")
    total = float(np.sum(values[37:120]))
    assert mean == pytest.approx(total / 83, rel=1e-9)
    assert z == pytest.approx(z_statistic(total, 83, noise), rel=1e-9)
    assert log_p == pytest.approx(log_p_value(z), rel=1e-12)
