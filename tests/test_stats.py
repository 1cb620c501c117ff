import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats
from scipy.special import log_ndtr

import segscan.stats as segscan_stats
from segscan import (DegenerateScaleError, NoiseModel, Profile, ScanConfig, SimSpec,
                     ValidationError, build_prefix_sums, estimate_sigma_mad, log_p_value,
                     scan, simulate, z_statistic)
from segscan.refinement import _floor
from segscan.stats import (_A_MAX, _NODES_PER_UNIT, LOG_P_SCALAR_BELOW, LOG_TWO, OpCounter,
                           _log_p_values, log_p_value_batch, segment_stats, z_cut)


class TestPrefixSums:
    def test_small_example(self):
        ps = build_prefix_sums(Profile([1.0, 2.0, 3.0]))
        # n + 1 float64 values, the first 0, read-only
        assert isinstance(ps, np.ndarray)
        assert ps.dtype == np.float64
        assert ps.tolist() == [0.0, 1.0, 3.0, 6.0]
        assert not ps.flags.writeable
        assert ps.item(3) - ps.item(1) == 5.0

    @pytest.mark.parametrize("values", [
        [1.7e308] * 10 + [0.0] * 990,
        # every prefix sum finite, the window sum of the last two not
        [1.7e308, -1.7e308, -1.7e308],
    ], ids=["running-sum", "window-sum"])
    def test_overflow_rejected(self, values):
        with pytest.raises(ValidationError, match="prefix sums overflow"):
            build_prefix_sums(Profile(values))

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
            got = ps.item(right) - ps.item(left)
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
            mean = (ps.item(right) - ps.item(left)) / (right - left)
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

    @pytest.mark.parametrize("background", [math.inf, -math.inf, math.nan])
    def test_nonfinite_background_rejected(self, background):
        with pytest.raises(ValidationError, match="background level must be finite"):
            NoiseModel(1.0, background=background)

    @staticmethod
    def _assert_matches_np_median(values):
        values = np.array(values, dtype=np.float64)
        mad = np.median(np.abs(values - np.median(values)))
        profile = Profile(values.copy())
        if mad == 0.0:
            with pytest.raises(DegenerateScaleError):
                estimate_sigma_mad(profile)
        else:
            sigma = estimate_sigma_mad(profile).sigma
            assert sigma == 1.4826 * mad, (sigma.hex(), (1.4826 * mad).hex())
        # the partitions work on a copy
        assert np.array_equal(profile.values, values)

    # few distinct values, so ties, 0.0 and -0.0 are common at both middle
    # ranks; odd and even sizes
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25, -2.5, 3.0, 1e-300,
                                            -7e12, 5e-324]),
                           min_size=2, max_size=60))
    @example(values=[-0.0, 0.0])
    @example(values=[1.0, -0.0, 0.0, -1.0, 3.0])
    # middle values whose halves underflow: (a + b) / 2 and a / 2 + b / 2 differ
    @example(values=[0.0, 0.0, 5e-324, 5e-324, 1.0, 1.0])
    def test_matches_np_median_bit_for_bit(self, values):
        self._assert_matches_np_median(values)

    @pytest.mark.parametrize("n", [100_000, 100_001])
    def test_long_profile_matches_np_median_bit_for_bit(self, n):
        values = np.random.default_rng(n).normal(size=n)
        values[::7] = np.round(values[::7], 1)
        self._assert_matches_np_median(values)


class TestZStatistic:
    def test_zero_sum(self):
        assert z_statistic(0.0, 4, NoiseModel(1.0)) == 0.0

    def test_direct_formula(self):
        assert z_statistic(8.0, 16, NoiseModel(1.0)) == pytest.approx(2.0)

    def test_single_point_with_background(self):
        assert z_statistic(2.0, 1, NoiseModel(2.0, background=1.0)) == pytest.approx(0.5)


def _erfc_p(z, sides="two"):
    # reference tail probability through erfc, independent of the kernel
    if sides == "two":
        return math.erfc(abs(z) / math.sqrt(2.0))
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def p_value(z, sides="two"):
    return math.exp(log_p_value(z, sides))


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
            assert math.exp(log_p_value(z)) == pytest.approx(_erfc_p(z), rel=1e-10)
        for z in (-3.0, 0.0, 3.0, 8.0):
            assert math.exp(log_p_value(z, "one")) == pytest.approx(_erfc_p(z, "one"),
                                                                    rel=1e-10)

    def test_log_p_no_underflow(self):
        lp = log_p_value(50.0)
        assert math.isfinite(lp)
        assert lp < -1000.0


def _ulps(x, y):
    # distance in representable doubles; +0.0 and -0.0 are the same point
    def rank(v):
        bits = int(np.float64(v).view(np.int64))
        return bits if bits >= 0 else -(bits & (2**63 - 1))
    return abs(rank(x) - rank(y))


def _mp_log_p_one_sided(z):
    # 50-digit reference for log Phi(-z); z < 0 goes through log1p, since
    # 1 - Phi(z) rounds to 1 at 50 digits once z < -15
    with mpmath.workdps(50):
        z = mpmath.mpf(z)
        if z >= 0:
            return float(mpmath.log(mpmath.ncdf(-z)))
        return float(mpmath.log1p(-mpmath.ncdf(z)))


_NODES = np.arange(round(_A_MAX * _NODES_PER_UNIT) + 1) / _NODES_PER_UNIT
# where the nearest node changes
_MIDPOINTS = (_NODES[1:] + _NODES[:-1]) / 2
# the table's edges and its first and last pieces
_NODE_EDGES = [0.0, 5e-324, _MIDPOINTS[0], _NODES[1], _MIDPOINTS[-1], _A_MAX,
               math.nextafter(_A_MAX, math.inf)]


class TestTailKernel:
    """The in-repo log Phi(-a) kernel behind log_p_value and log_p_value_batch."""

    @settings(max_examples=80, deadline=None)
    @given(a=st.one_of(st.floats(0.0, 40.0), st.floats(0.0, 1e4),
                       st.sampled_from(_MIDPOINTS.tolist()), st.sampled_from(_NODE_EDGES)),
           step=st.sampled_from([-1, 0, 1]))
    @example(a=1e4, step=0)
    @example(a=37.0, step=1)
    def test_log_phi_within_8_ulp_of_scipy_and_mpmath(self, a, step):
        if step:
            a = math.nextafter(a, math.inf * step)
        if a < 0.0:
            return
        got = log_p_value(a, "one")  # log Phi(-a), what log_ndtr(-a) gives
        assert _ulps(got, float(log_ndtr(-a))) <= 8
        assert _ulps(got, _mp_log_p_one_sided(a)) <= 8

    @settings(max_examples=60, deadline=None)
    @given(z=st.one_of(st.floats(-40.0, 0.0), st.sampled_from((-_MIDPOINTS).tolist())))
    @example(z=-40.0)
    @example(z=-37.0)
    @example(z=-37.5)
    @example(z=-38.2)
    def test_one_sided_negative_z_within_8_ulp_of_mpmath(self, z):
        # log p = log(1 - Phi(z)) here. scipy's log_ndtr drifts past 8 ulp
        # on positive arguments above about 3, so only mpmath is the judge.
        assert _ulps(log_p_value(z, "one"), _mp_log_p_one_sided(z)) <= 8

    @settings(max_examples=60, deadline=None)
    @given(z=st.floats(-1e4, 1e4))
    @example(z=0.0)
    @example(z=-0.0)
    def test_two_sided_is_log_two_plus_log_phi(self, z):
        assert log_p_value(z).hex() == (LOG_TWO + log_p_value(abs(z), "one")).hex()

    @settings(max_examples=60, deadline=None)
    @given(zs=st.lists(st.one_of(st.floats(-1e4, 1e4), st.floats(-40.0, 40.0),
                                 st.sampled_from(_NODE_EDGES + [-x for x in _NODE_EDGES]),
                                 st.sampled_from([1e200, -1e200, math.inf, -math.inf])),
                       min_size=1, max_size=20),
           sides=st.sampled_from(["one", "two"]))
    @example(zs=[37.5, -37.5, 38.3, -38.3, 1e4, -1e4, 0.0, -0.0], sides="one")
    def test_scalar_equals_batch_bit_for_bit(self, zs, sides):
        batch = log_p_value_batch(np.array(zs), sides)
        for z, b in zip(zs, batch.tolist()):
            assert log_p_value(z, sides).hex() == b.hex() == log_p_value_batch([z], sides)[0].hex()

    @settings(max_examples=60, deadline=None)
    @given(zs=st.sampled_from([0, 1, LOG_P_SCALAR_BELOW - 1, LOG_P_SCALAR_BELOW,
                               LOG_P_SCALAR_BELOW + 1, 300]).flatmap(
               lambda size: st.lists(
                   st.one_of(st.floats(-1e4, 1e4), st.floats(-40.0, 40.0),
                             st.sampled_from([0.0, -0.0, math.nan, 37.5, -37.5, 38.3, -38.3,
                                              1e200, -1e200])),
                   min_size=size, max_size=size)),
           sides=st.sampled_from(["one", "two"]))
    @example(zs=[], sides="two")
    @example(zs=[-0.0, 0.0, math.nan, -38.3, 38.3, -3.0, 3.0], sides="one")
    def test_log_p_values_equals_batch_bit_for_bit(self, zs, sides):
        # _log_p_values picks the scalar or the batch kernel by size; either
        # must give the batch kernel's values, also for |z| > 37, one-sided
        # z < 0, signed zeros and nan
        z = np.array(zs, dtype=np.float64)
        got = _log_p_values(z, sides)
        assert got.dtype == np.float64 and got.shape == z.shape
        assert [v.hex() for v in got.tolist()] == [
            v.hex() for v in log_p_value_batch(z, sides).tolist()]

    @pytest.mark.parametrize("sides, far", [("two", 40.0), ("two", -40.0), ("one", -1.0)])
    def test_short_array_with_handed_on_values_takes_one_batch_call(self, monkeypatch, sides,
                                                                   far):
        # a value the scalar kernel hands on costs a batch call of its own,
        # so a short array holding any goes to the batch kernel whole
        calls = []
        batch = log_p_value_batch
        monkeypatch.setattr(segscan_stats, "log_p_value_batch", lambda *a: calls.append(a) or batch(*a))
        z = np.array([1.0, far, 2.0, far], dtype=np.float64)
        assert [v.hex() for v in _log_p_values(z, sides).tolist()] == [
            v.hex() for v in batch(z, sides).tolist()]
        assert len(calls) == 1
        calls.clear()
        _log_p_values(np.array([1.0, 2.0]), sides)
        assert not calls

    @pytest.mark.parametrize("sides", ["two", "one"])
    def test_scalar_equals_batch_on_every_piece(self, sides):
        # every node and midpoint, both signs: a few pieces carry a tilt
        # (stats._tilt_to_monotone) that random draws seldom reach
        zs = np.concatenate([_NODES, _MIDPOINTS, -_NODES, -_MIDPOINTS])
        batch = log_p_value_batch(zs, sides).tolist()
        assert [log_p_value(z, sides).hex() for z in zs.tolist()] == [b.hex() for b in batch]

    @pytest.mark.parametrize("sides", ["two", "one"])
    def test_non_increasing_across_node_boundaries(self, sides):
        centres = np.concatenate([_MIDPOINTS, _NODES])
        around = [centres]
        for _ in range(4):
            around.insert(0, np.nextafter(around[0], 0.0))
            around.append(np.nextafter(around[-1], 1e3))
        grid = np.stack(around, axis=1)
        log_p = log_p_value_batch(grid.ravel(), sides).reshape(grid.shape)
        assert (np.diff(log_p, axis=1) <= 0.0).all()

    @settings(max_examples=300, deadline=None)
    @given(b=st.one_of(st.floats(-45.0, 45.0), st.floats(36.0, 1e4), st.floats(-1e4, -36.0),
                       st.sampled_from(_MIDPOINTS.tolist() + (-_MIDPOINTS).tolist()),
                       st.sampled_from(_NODE_EDGES + [-x for x in _NODE_EDGES])),
           below=st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 10.0)),
           step=st.sampled_from([-1, 0, 1]), sides=st.sampled_from(["two", "one"]))
    @example(b=_MIDPOINTS[0], below=0.0, step=1, sides="two")
    @example(b=-_MIDPOINTS[0], below=0.0, step=1, sides="one")
    @example(b=37.0, below=0.0, step=1, sides="two")
    @example(b=-40.0, below=0.0, step=0, sides="one")
    def test_key_below_floor_has_no_smaller_log_p(self, b, below, step, sides):
        # refinement skips the log p of any z whose key (|z| two-sided, z
        # one-sided) lies below _floor of the key it must beat; that is
        # sound only if such a key never has a strictly smaller log p
        if step:
            b = math.nextafter(b, math.inf * step)
        if sides == "two":
            b = abs(b)
        a = math.nextafter(_floor(b), -math.inf) - below
        if sides == "two" and a < 0.0:
            return
        assert log_p_value(a, sides) >= log_p_value(b, sides)

    @pytest.mark.parametrize("sides", ["two", "one"])
    def test_key_below_floor_has_no_smaller_log_p_on_every_piece(self, sides):
        # every node and midpoint, both signs one-sided, and the key just
        # below each one's floor
        centres = np.concatenate([_NODES, _MIDPOINTS])
        b = np.concatenate([centres, np.nextafter(centres, 0.0), np.nextafter(centres, 1e3)])
        if sides == "one":
            b = np.concatenate([b, -b])
        a = np.nextafter(np.array([_floor(x) for x in b.tolist()]), -math.inf)
        keep = a >= 0.0 if sides == "two" else np.ones(a.size, bool)
        assert (log_p_value_batch(a[keep], sides) >= log_p_value_batch(b[keep], sides)).all()

    def test_zero_gives_p_one_exactly(self):
        assert log_p_value(0.0) == 0.0
        assert log_p_value(-0.0) == 0.0
        assert log_p_value_batch([0.0, -0.0]).tolist() == [0.0, 0.0]

    def test_nan_propagates(self):
        for sides in ("one", "two"):
            assert math.isnan(log_p_value(math.nan, sides))
            assert np.isnan(log_p_value_batch([math.nan, -1.0], sides)[0])


@pytest.mark.parametrize("sides, p_s", [("two", 0.5), ("two", 1e-3), ("two", 1e-300),
                                         ("two", 5e-324), ("one", 0.9), ("one", 0.6),
                                         ("one", 0.5), ("one", 1e-3), ("one", 5e-324)])
def test_z_cut_is_tight(sides, p_s):
    # the cut is the least passing z loosened by a relative 1e-6: the cut
    # itself fails the exact test, a z 2e-6 (relative) above it passes
    log_p_max = math.log(p_s)
    cut = z_cut(log_p_max, sides)
    assert log_p_value(cut, sides) > log_p_max
    assert log_p_value(cut + 2e-6 * (1.0 + abs(cut)), sides) <= log_p_max


def test_z_cut_at_p_one():
    assert z_cut(0.0, "one") == -math.inf
    assert z_cut(0.0, "two") == -1e-6


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


@settings(max_examples=40, deadline=None)
@given(values=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=60),
       background=st.floats(-3.0, 3.0).filter(lambda b: b != 0.0),
       sigma=st.sampled_from([0.05, 1.0, 4.0]),
       sides=st.sampled_from(["one", "two"]))
# |z| far past 38, where the two-sided p underflows outside log space
@example(values=[0.0] * 10 + [50.0] * 20 + [-50.0] * 20, background=1.0,
         sigma=0.05, sides="two")
@example(values=[0.0] * 10 + [50.0] * 20 + [-50.0] * 20, background=-1.0,
         sigma=0.05, sides="one")
def test_scan_rows_equal_scalar_kernels(values, background, sigma, sides):
    # the batch path (scan) and the scalar path (segment_stats, whose
    # operations refinement writes out inline) must agree bit for bit:
    # refinement compares re-scored windows with scanned log p by strict <
    profile = Profile(np.array(values))
    ps = build_prefix_sums(profile)
    noise = NoiseModel(sigma, background=background)
    cfg = ScanConfig(w_max=40, p_s=1.0, sides=sides, background=background)
    table = scan(profile, ps, noise, cfg)
    assert len(table) > 0
    for i in range(len(table)):
        start, end = int(table.start[i]), int(table.end[i])
        _, z, log_p = segment_stats(ps, noise, start, end, sides)
        assert (table.z[i], table.log_p[i]) == (z, log_p)
