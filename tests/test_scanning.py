import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from segscan import (Candidate, CandidateTable, NoiseModel, Profile, RefineContext, ScanConfig,
                     ValidationError, build_prefix_sums, enumerate_candidates_dense, finalize,
                     predicted_op_counts, scan, window_lengths)
from segscan import scanning
from segscan.stats import OpCounter, log_p_value_batch, z_cut

from candidate_tables import exhaustive_scan


class TestScanConfig:
    def test_defaults_match_documented_values(self):
        cfg = ScanConfig()
        assert (cfg.w_min, cfg.w_max, cfg.rho) == (1, 300, 1.1)
        assert (cfg.p_s, cfg.alpha, cfg.k_refine) == (1e-3, 0.01, 10)
        assert cfg.p_b is None and cfg.background == 0.0 and cfg.sides == "two"

    @pytest.mark.parametrize("kwargs", [
        dict(w_min=0), dict(w_max=0), dict(rho=1.0), dict(p_s=0.0),
        dict(p_s=1.5), dict(alpha=0.0), dict(k_refine=1), dict(sides="both"),
        dict(background=math.inf), dict(background=math.nan),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            ScanConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("k_refine", 2.5), ("w_min", 1.5), ("w_max", True), ("k_refine", False),
        ("k_refine", 10.0), ("w_max", np.float64(40.0)), ("w_min", "1"),
    ])
    def test_non_integer_sizes_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be an integer"):
            ScanConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("p_s", True), ("alpha", False), ("rho", True), ("background", True), ("p_b", True),
        ("alpha", "0.5"), ("p_s", "1e-3"), ("rho", "2"), ("background", "0"), ("p_b", "1"),
    ])
    def test_non_real_parameters_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be a real number, got"):
            ScanConfig(**{field: value})

    def test_numpy_real_parameters_accepted(self):
        cfg = ScanConfig(rho=np.float64(1.5), p_s=np.float32(0.25), alpha=np.float64(0.05),
                         p_b=np.float64(0.5), background=np.float32(-1.0), w_max=40)
        assert (cfg.rho, cfg.p_s, cfg.alpha, cfg.p_b, cfg.background) == (1.5, 0.25, 0.05,
                                                                          0.5, -1.0)

    def test_numpy_integer_sizes_accepted(self):
        cfg = ScanConfig(w_min=np.int64(2), w_max=np.int32(40), k_refine=np.int64(4))
        assert (cfg.w_min, cfg.w_max, cfg.k_refine) == (2, 40, 4)

    def test_clamp_to_profile_length(self):
        cfg = ScanConfig(w_max=300).clamped(50)
        assert cfg.w_max == 50

    def test_clamp_below_w_min_rejected(self):
        with pytest.raises(ValidationError):
            ScanConfig(w_min=10).clamped(5)


class TestWindowLengths:
    def test_single_scale(self):
        assert window_lengths(ScanConfig(w_min=5, w_max=5, rho=1.1)) == [5]

    def test_small_range(self):
        # ceil(1.1**i) deduplicated: 1, 2, 2, ..., 3
        assert window_lengths(ScanConfig(w_min=1, w_max=3, rho=1.1)) == [1, 2, 3]

    def test_ceil_excludes_overshoot(self):
        # 10, 12, then ceil(14.4) = 15 > 14 drops out
        assert window_lengths(ScanConfig(w_min=10, w_max=14, rho=1.2)) == [10, 12]

    def test_structure(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            w_min = int(rng.integers(1, 20))
            w_max = w_min + int(rng.integers(0, 400))
            rho = float(1.0 + rng.uniform(0.01, 1.5))
            lengths = window_lengths(ScanConfig(w_min=w_min, w_max=w_max, rho=rho))
            assert lengths[0] == w_min
            assert lengths[-1] <= w_max
            assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_overflowing_growth_stops_at_w_min(self):
        # 2 * 1e308 is inf; the comparison runs before ceil, which would raise
        assert window_lengths(ScanConfig(w_min=2, w_max=300, rho=1e308)) == [2]


def _flat_profile(n):
    return Profile(np.zeros(n) + 0.0), NoiseModel(1.0)


class TestScan:
    def test_constant_zero_profile(self):
        profile, noise = _flat_profile(100)
        ps = build_prefix_sums(profile)
        assert len(scan(profile, ps, noise, ScanConfig())) == 0

    def test_block_signal_top_candidate_matches_exhaustive_eval(self):
        # independent oracle: evaluate the same scan grid with fsum + scipy
        values = np.zeros(50)
        values[20:30] = 5.0
        profile = Profile(values)
        noise = NoiseModel(1.0)
        cfg = ScanConfig(w_min=1, w_max=32)
        got = scan(profile, build_prefix_sums(profile), noise, cfg)
        best_key, best = None, None
        for w in window_lengths(cfg):
            stride = math.ceil(w / 5)
            starts = sorted(set(range(0, 50 - w + 1, stride)) | {50 - w})
            for s in starts:
                z = math.fsum(values[s:s + w]) / w * math.sqrt(w)
                log_p = math.log(2.0) + scipy_stats.norm.logsf(abs(z))
                key = (log_p, -w, s)
                if best_key is None or key < best_key:
                    best_key, best = key, (s, s + w)
        assert got.candidate(0).interval == best
        assert got.candidate(0).log_p == pytest.approx(best_key[0], abs=1e-9)

    def test_stride_for_w7(self):
        # ceil(7/5) = 2: starts 0, 2, 4, ... plus the right-aligned tail
        profile, noise = _flat_profile(20)
        cands = scan(profile, build_prefix_sums(profile), noise,
                     ScanConfig(w_min=7, w_max=7, p_s=1.0))
        starts = sorted(cands.start.tolist())
        assert starts == [0, 2, 4, 6, 8, 10, 12, 13]

    def test_right_aligned_tail_window(self):
        profile, noise = _flat_profile(11)
        cands = scan(profile, build_prefix_sums(profile), noise,
                     ScanConfig(w_min=6, w_max=6, p_s=1.0))
        assert set(cands.start.tolist()) == {0, 2, 4, 5}

    def test_no_candidate_above_ps(self):
        rng = np.random.default_rng(8)
        profile = Profile(rng.normal(size=2000))
        noise = NoiseModel(1.0)
        cands = scan(profile, build_prefix_sums(profile), noise, ScanConfig(p_s=0.01))
        assert all(log_p <= math.log(0.01) for log_p in cands.log_p.tolist())

    def test_candidates_match_direct_recompute(self):
        rng = np.random.default_rng(9)
        values = rng.normal(size=2000)
        values[400:450] += 1.5
        profile = Profile(values)
        noise = NoiseModel(1.0, background=0.0)
        cands = scan(profile, build_prefix_sums(profile), noise, ScanConfig(p_s=0.05))
        assert len(cands)
        for c in map(cands.candidate, range(0, len(cands), 7)):
            total = math.fsum(values[c.start:c.end])
            z = (total / c.length) * math.sqrt(c.length)
            assert c.z == pytest.approx(z, rel=1e-9, abs=1e-9)

    def test_sorted_and_deterministic(self):
        rng = np.random.default_rng(10)
        profile = Profile(rng.normal(size=1500))
        noise = NoiseModel(1.0)
        ps = build_prefix_sums(profile)
        first = scan(profile, ps, noise, ScanConfig(p_s=0.2))
        second = scan(profile, ps, noise, ScanConfig(p_s=0.2))
        for column in ("start", "end", "z", "log_p"):
            assert np.array_equal(getattr(first, column), getattr(second, column))
        keys = [first.candidate(i).sort_key for i in range(len(first))]
        assert keys == sorted(keys)

    def test_exhaustive_mode_covers_every_placement(self):
        profile, noise = _flat_profile(40)
        cands = exhaustive_scan(profile, build_prefix_sums(profile), noise,
                                ScanConfig(w_min=1, w_max=40, p_s=1.0))
        assert len(cands) == sum(40 - w + 1 for w in range(1, 41))

    def test_one_sided_keeps_only_positive(self):
        values = np.zeros(60)
        values[10:20] = 4.0
        values[40:50] = -4.0
        profile = Profile(values)
        noise = NoiseModel(1.0)
        cands = scan(profile, build_prefix_sums(profile), noise,
                     ScanConfig(sides="one"))
        assert len(cands)
        assert all(z > 0 for z in cands.z.tolist())


_STAGES = {
    "scan": lambda profile, ps, noise, cfg: scan(profile, ps, noise, cfg),
    "RefineContext": lambda profile, ps, noise, cfg: RefineContext(ps=ps, noise=noise, cfg=cfg),
    "finalize": lambda profile, ps, noise, cfg: finalize(profile, [], cfg, noise=noise, ps=ps,
                                                         m_total=0),
    "enumerate_candidates_dense":
        lambda profile, ps, noise, cfg: enumerate_candidates_dense(profile, noise, cfg),
}


class TestBackgroundAgreement:
    # the z tests and the cutoff read NoiseModel.background, segment_profile
    # builds the model from ScanConfig.background: a stage given both
    # refuses a pair that differs, by any amount
    @pytest.mark.parametrize("stage", sorted(_STAGES))
    @pytest.mark.parametrize("noise_bg, cfg_bg", [(0.3, 0.0), (0.0, -1.5), (1.0, 1.0 + 1e-12)])
    def test_disagreeing_pair_raises(self, stage, noise_bg, cfg_bg):
        profile = Profile(np.linspace(-1.0, 2.0, 50))
        ps = build_prefix_sums(profile)
        with pytest.raises(ValidationError, match="background") as info:
            _STAGES[stage](profile, ps, NoiseModel(1.0, noise_bg), ScanConfig(background=cfg_bg))
        assert repr(noise_bg) in str(info.value) and repr(cfg_bg) in str(info.value)


def _unfiltered_scan(values, noise, cfg, exhaustive=False):
    # reference: log_p for every window of the grid, exact filter, lexsort
    n = len(values)
    cfg = cfg.clamped(n)
    cum = np.concatenate(([0.0], np.cumsum(values)))
    columns = []
    lengths = range(cfg.w_min, cfg.w_max + 1) if exhaustive else window_lengths(cfg)
    for w in lengths:
        stride = 1 if exhaustive else math.ceil(w / 5)
        starts = np.array(sorted(set(range(0, n - w + 1, stride)) | {n - w}))
        sums = cum[starts + w] - cum[starts]
        z = (sums / w - noise.background) * np.sqrt(w) / noise.sigma
        log_p = log_p_value_batch(z, cfg.sides)
        keep = log_p <= math.log(cfg.p_s)
        columns.append((starts[keep], starts[keep] + w, z[keep], log_p[keep]))
    start, end, z, log_p = (np.concatenate(c) for c in zip(*columns))
    order = np.lexsort((start, start - end, log_p))
    return start[order], end[order], z[order], log_p[order]


def _assert_matches_reference(values, noise, cfg, exhaustive=False):
    # the scan refuses a config whose background differs from the noise model's
    cfg = replace(cfg, background=noise.background)
    values = np.array(values, dtype=np.float64)
    profile = Profile(values)
    run = exhaustive_scan if exhaustive else scan
    table = run(profile, build_prefix_sums(profile), noise, cfg)
    expected = _unfiltered_scan(values, noise, cfg, exhaustive)
    for column, want in zip(("start", "end", "z", "log_p"), expected):
        got = getattr(table, column)
        assert got.dtype == want.dtype and np.array_equal(got, want), column


def _at_bound(background, sigma, w, p_s, sides, ulps, upper=True):
    """(values, background, sigma): one window of w points whose sum is
    ``ulps`` ulp outside (negative: inside) the unloosened sum-space bound
    w * background +- cut * sigma * sqrt(w)."""
    cut = z_cut(math.log(p_s), sides)
    sign = 1.0 if upper else -1.0
    total = w * background + sign * (cut * sigma * math.sqrt(w))
    for _ in range(abs(ulps)):
        total = math.nextafter(total, math.copysign(math.inf, sign * ulps))
    # the first w - 1 points are the background itself, so every prefix sum
    # before the last is exact and the last one is the chosen total
    return [background] * (w - 1) + [total - (w - 1) * background], background, sigma


@st.composite
def _near_background(draw):
    """Values within a few sigma of a background near +-1e6, where s / w -
    background cancels most of its digits."""
    background = draw(st.floats(5e5, 2e6)) * draw(st.sampled_from([1.0, -1.0]))
    sigma = draw(st.floats(1e-3, 1.0))
    offsets = draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=60))
    return [background + sigma * o for o in offsets], background, sigma


_P_S = st.sampled_from([1.0, 0.5, 1e-3, 1e-300, 5e-324])
_SIDES = st.sampled_from(["one", "two"])


class TestPrefilter:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=60),
           background=st.floats(-3.0, 3.0).filter(lambda b: b != 0.0),
           sigma=st.sampled_from([0.05, 1.0, 4.0]), p_s=_P_S, sides=_SIDES,
           w_min=st.integers(1, 2))
    @example(values=[0.0] * 10 + [50.0] * 20 + [-50.0] * 20, background=1.0,
             sigma=0.05, p_s=5e-324, sides="two", w_min=1)
    # one-sided at p_s = 1 the cut is -inf: windows at z < -100 must stay
    @example(values=[-50.0] * 30, background=2.0, sigma=0.05, p_s=1.0, sides="one", w_min=1)
    # every sum is exactly its bound's centre: no scale has a hit
    @example(values=[1.5] * 20, background=1.5, sigma=1.0, p_s=1e-3, sides="two", w_min=1)
    # n == w_max == 38 after clamping, and 38 is a scan length: the longest
    # scale is one window over the whole profile, with no tail window
    @example(values=[4.0] * 19 + [-1.0] * 19, background=0.5, sigma=1.0, p_s=0.5,
             sides="two", w_min=1)
    # w_min > 1: the scales are 5, 6, ..., 12, 13, 15, ..., 34, 38
    @example(values=[0.0] * 15 + [3.0] * 12 + [-2.0] * 20, background=0.25, sigma=1.0,
             p_s=0.5, sides="one", w_min=5)
    def test_matches_unfiltered_reference(self, values, background, sigma, p_s, sides, w_min):
        _assert_matches_reference(values, NoiseModel(sigma, background=background),
                                  ScanConfig(w_min=w_min, w_max=40, p_s=p_s, sides=sides))

    @settings(max_examples=60, deadline=None)
    @given(case=_near_background(), p_s=_P_S, sides=_SIDES)
    # Sums one ulp inside the unloosened bound whose computed z still passes
    # the exact test: only the slack keeps them. 29 and 31 are scan lengths.
    @example(case=_at_bound(17098909.0, 1e-4, 29, 1e-3, "one", -1), p_s=1e-3, sides="one")
    @example(case=_at_bound(-18490527.0, 1e-4, 29, 1e-3, "one", -1), p_s=1e-3, sides="one")
    @example(case=_at_bound(8446326.0, 1e-4, 31, 1e-3, "two", -1), p_s=1e-3, sides="two")
    @example(case=_at_bound(8446326.0, 1e-4, 31, 1e-3, "two", -1, upper=False),
             p_s=1e-3, sides="two")
    # sums a few ulp on either side of the bound
    @example(case=_at_bound(1e6, 1e-3, 7, 1e-3, "two", 3), p_s=1e-3, sides="two")
    @example(case=_at_bound(1e6, 1e-3, 7, 1e-3, "two", -3, upper=False), p_s=1e-3, sides="two")
    @example(case=_at_bound(-1e6, 1e-3, 12, 1e-300, "one", 2), p_s=1e-300, sides="one")
    @example(case=_at_bound(-1e6, 1e-3, 12, 1e-300, "one", -2), p_s=1e-300, sides="one")
    def test_matches_reference_under_cancellation(self, case, p_s, sides):
        values, background, sigma = case
        _assert_matches_reference(values, NoiseModel(sigma, background=background),
                                  ScanConfig(w_max=40, p_s=p_s, sides=sides))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(-20.0, 20.0), min_size=8, max_size=150),
           w_min=st.integers(1, 8), span=st.integers(0, 80), rho=st.floats(1.01, 2.0),
           p_s=_P_S, sides=_SIDES)
    def test_strides_and_tails_vary(self, values, w_min, span, rho, p_s, sides):
        cfg = ScanConfig(w_min=w_min, w_max=w_min + span, rho=rho, p_s=p_s, sides=sides)
        _assert_matches_reference(values, NoiseModel(1.0, background=0.5), cfg)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-20.0, 20.0), min_size=4, max_size=50),
           w_min=st.integers(1, 4), span=st.integers(0, 50), p_s=_P_S, sides=_SIDES)
    def test_exhaustive_matches_stride_one_reference(self, values, w_min, span, p_s, sides):
        cfg = ScanConfig(w_min=w_min, w_max=w_min + span, p_s=p_s, sides=sides)
        _assert_matches_reference(values, NoiseModel(1.0, background=-0.25), cfg,
                                  exhaustive=True)

    @pytest.mark.parametrize("level", [0.0, 3.0, -2.5])
    @pytest.mark.parametrize("sides", ["one", "two"])
    @pytest.mark.parametrize("w_min, rho", [(1, 1.1), (3, 1.7)])
    def test_constant_profile_orders_ties_by_length_then_start(self, level, sides,
                                                                w_min, rho):
        # z is 0 everywhere, so every log p ties
        cfg = ScanConfig(w_min=w_min, w_max=120, rho=rho, p_s=1.0, sides=sides,
                         background=level)
        values = np.full(400, level)
        _assert_matches_reference(values, NoiseModel(1.0, background=level), cfg)
        table = scan(Profile(values), build_prefix_sums(Profile(values)),
                     NoiseModel(1.0, background=level), cfg)
        assert np.unique(table.log_p).size == 1
        lengths = table.end - table.start
        assert np.all(np.diff(lengths) <= 0)


    @pytest.mark.parametrize("sides", ["one", "two"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_integer_profile_orders_ties_like_stable_sort(self, seed, sides):
        # small integers give many windows of one length and sum, and some
        # of different lengths with one z, so log p ties at many ranks
        values = np.random.default_rng(seed).integers(-3, 4, size=600).astype(np.float64)
        cfg = ScanConfig(w_max=64, p_s=0.2, sides=sides)
        table = scan(Profile(values), build_prefix_sums(Profile(values)), NoiseModel(1.0), cfg)
        assert np.unique(table.log_p).size < len(table) // 4
        _assert_matches_reference(values, NoiseModel(1.0), cfg)


_BLOCK = scanning._TAIL_BLOCK
_COLUMNS = (("start", np.int64), ("end", np.int64), ("z", np.float64), ("log_p", np.float64))


def _scan_values(values, noise, cfg):
    profile = Profile(np.asarray(values, dtype=np.float64))
    return scan(profile, build_prefix_sums(profile), noise, cfg)


class TestTailBlocks:
    """scan's tail runs in blocks of _TAIL_BLOCK rows; tables that span several."""

    # ~3.4 blocks of rows two-sided or one-sided, ~4.5 against background 0.3
    _MULTI = np.random.default_rng(3).standard_normal(4700)

    @pytest.mark.parametrize("kwargs", [{}, {"sides": "one"}, {"background": 0.3}])
    def test_multi_block_matches_unfiltered_reference(self, kwargs):
        cfg = ScanConfig(p_s=0.5, **kwargs)
        noise = NoiseModel(1.0, background=cfg.background)
        rows = len(_scan_values(self._MULTI, noise, cfg))
        assert rows > 3 * _BLOCK and rows % _BLOCK
        if not kwargs:
            assert rows < 4 * _BLOCK
        _assert_matches_reference(self._MULTI, noise, cfg)

    def test_exactly_one_block(self):
        # lengths 3 and 1, both at stride 1: 2n - 2 windows, all kept at p_s 1
        n = _BLOCK // 2 + 1
        cfg = ScanConfig(w_min=1, w_max=3, rho=3.0, p_s=1.0)
        values = np.random.default_rng(4).standard_normal(n)
        assert len(_scan_values(values, NoiseModel(1.0), cfg)) == _BLOCK
        _assert_matches_reference(values, NoiseModel(1.0), cfg)

    def test_no_hits(self):
        table = _scan_values(np.zeros(500), NoiseModel(1.0), ScanConfig())
        assert len(table) == 0 and table.windows > 0
        _assert_matches_reference(np.zeros(500), NoiseModel(1.0), ScanConfig())

    def test_rows_failing_the_exact_test_in_a_multi_block_table(self):
        # Every |z| = 2 window passes the loosened sum bounds but has log p
        # just above log p_s, so the exact test drops a few thousand rows,
        # which sort last; the many ties take the stable order.
        log_p2 = log_p_value_batch(np.array([2.0])).item()
        cfg = ScanConfig(w_max=40, p_s=math.exp(log_p2 - 1e-9))
        assert z_cut(math.log(cfg.p_s)) < 2.0
        values = np.random.default_rng(5).integers(-3, 4, size=6000).astype(np.float64)
        table = _scan_values(values, NoiseModel(1.0), cfg)
        looser = _scan_values(values, NoiseModel(1.0), replace(cfg, p_s=math.exp(log_p2 + 1e-9)))
        assert len(table) > 2 * _BLOCK and len(looser) - len(table) > 1000
        assert not np.any(np.abs(table.z) == 2.0)
        _assert_matches_reference(values, NoiseModel(1.0), cfg)

    @pytest.mark.parametrize("keys", [
        np.array([0.0, -0.0] * 50 + [-1.0, 0.0, -0.0] * 20),
        np.random.default_rng(6).standard_normal(300),
        np.empty(0),
    ], ids=["signed-zero-ties", "distinct", "empty"])
    def test_stable_argsort_returns_the_keys_in_stable_order(self, keys):
        # the tail takes the sorted keys as the log_p column, so they must
        # be the stable order's keys bit for bit, zero signs included
        order, ordered = scanning._stable_argsort(keys)
        expected = np.argsort(keys, kind="stable")
        assert np.array_equal(order, expected)
        assert ordered.tobytes() == keys[expected].tobytes()

    @pytest.mark.parametrize("values", [_MULTI, np.zeros(500)], ids=["multi-block", "empty"])
    def test_columns_stand_alone(self, values):
        table = _scan_values(values, NoiseModel(1.0), ScanConfig(p_s=0.5))
        columns = [getattr(table, name) for name, _ in _COLUMNS]
        for column, (name, dtype) in zip(columns, _COLUMNS):
            assert column.dtype == dtype and column.flags.c_contiguous, name
            assert column.size == len(table), name
        for i, first in enumerate(columns):
            for second in columns[i + 1:]:
                assert not np.shares_memory(first, second)

    def test_peak_memory_is_bounded_by_the_table(self):
        # Runs of broad +-0.5-1 sigma segments over half of 100k points, so
        # about one window in ten is a row. The tail holds about seven
        # row-sized arrays (2.6 times the table's four allows for them), the
        # per-scale loop three n + 1 buffers: 10 bytes per point.
        rng = np.random.default_rng(26)
        n = 100_000
        values = rng.standard_normal(n)
        pos = 100
        while pos + 3000 < n:
            length = int(rng.integers(300, 3001))
            values[pos:pos + length] += rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0)
            pos += length + int(rng.integers(50, 501) if rng.random() < 0.5
                                else rng.integers(2000, 6501))
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table = scan(profile, ps, NoiseModel(1.0), ScanConfig())
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        table_bytes = sum(getattr(table, name).nbytes for name, _ in _COLUMNS)
        assert len(table) > 50_000
        assert peak <= 2.6 * table_bytes + 10 * (n + 1)


@st.composite
def _scale_configs(draw):
    w_min = draw(st.integers(1, 40))
    return ScanConfig(w_min=w_min, w_max=draw(st.integers(w_min, 400)),
                      rho=draw(st.floats(1.01, 4.0)), sides=draw(_SIDES))


class TestPredictedOpCounts:
    def test_single_scale_example(self):
        c_b, c_star = predicted_op_counts(100, ScanConfig(w_min=10, w_max=10, rho=1.1))
        assert (c_b, c_star) == (900, 190)

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 600), cfg=_scale_configs())
    @example(n=1000, cfg=ScanConfig())
    @example(n=1000, cfg=ScanConfig(w_min=2, w_max=300, rho=1e308))
    @example(n=100, cfg=ScanConfig(w_min=10, w_max=10))
    def test_direct_evaluation_oracle(self, n, cfg):
        assume(n >= cfg.w_min)
        w_max = min(cfg.w_max, n)  # the scan's clamp
        brute, memo, lengths = 0.0, float(n), []
        i = 0
        while cfg.w_min * cfg.rho ** i <= w_max:
            w = cfg.w_min * cfg.rho ** i
            brute += (n - w) * w
            memo += n - w
            if math.ceil(w) not in lengths:
                lengths.append(math.ceil(w))
            i += 1
        assert predicted_op_counts(n, cfg) == (round(brute), round(memo))
        assert window_lengths(cfg.clamped(n)) == lengths

    @pytest.mark.parametrize("n", [37, 50, 100, 250])
    def test_short_profile_counts_only_the_scales_it_scans(self, n):
        # the scales longer than the profile are never placed; counting them
        # made C_b negative (-289,726 at n = 50)
        counts = predicted_op_counts(n, ScanConfig())
        assert counts == predicted_op_counts(n, ScanConfig().clamped(n))
        assert min(counts) > 0
        with pytest.raises(ValidationError):
            predicted_op_counts(n, ScanConfig(w_min=n + 1, w_max=n + 1))

    def test_memoized_always_cheaper(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            w_min = int(rng.integers(2, 10))
            w_max = w_min + int(rng.integers(0, 100))
            cfg = ScanConfig(w_min=w_min, w_max=w_max, rho=float(rng.uniform(1.05, 2.0)))
            n = w_max + int(rng.integers(10, 2000))
            c_b, c_star = predicted_op_counts(n, cfg)
            assert c_star < c_b

    def test_counter_within_constant_factor(self):
        rng = np.random.default_rng(6)
        profile = Profile(rng.normal(size=2000))
        cfg = ScanConfig()
        counter = OpCounter()
        ps = build_prefix_sums(profile, counter)
        scan(profile, ps, NoiseModel(1.0), cfg, counter=counter)
        _, c_star = predicted_op_counts(2000, cfg)
        assert counter.count <= 3 * c_star

    @staticmethod
    def _assert_counts_each_placement_once(n, cfg):
        profile = Profile(np.random.default_rng(n).normal(size=n))
        counter = OpCounter()
        table = scan(profile, build_prefix_sums(profile), NoiseModel(1.0), cfg, counter=counter)
        placements = sum(len(set(range(0, n - w + 1, math.ceil(w / 5))) | {n - w})
                         for w in window_lengths(cfg.clamped(n)))
        assert counter.count == table.windows == placements

    @pytest.mark.parametrize("n, cfg", [
        (2000, ScanConfig()),
        (37, ScanConfig()),
        (1000, ScanConfig(w_min=3, w_max=90, rho=1.7)),
        (501, ScanConfig(w_min=7, w_max=7)),
        (64, ScanConfig(w_min=2, w_max=64, rho=2.0, sides="one")),
    ])
    def test_counter_counts_each_placement_once(self, n, cfg):
        self._assert_counts_each_placement_once(n, cfg)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 1500), cfg=_scale_configs())
    def test_counter_counts_each_placement_once_property(self, n, cfg):
        assume(n >= cfg.w_min)
        self._assert_counts_each_placement_once(n, cfg)

    def test_exhaustive_counter_counts_every_placement(self):
        profile = Profile(np.random.default_rng(2).normal(size=90))
        counter = OpCounter()
        table = exhaustive_scan(profile, build_prefix_sums(profile), NoiseModel(1.0),
                                ScanConfig(w_min=2, w_max=30), counter=counter)
        assert counter.count == table.windows == sum(90 - w + 1 for w in range(2, 31))


# rho in (1, 1.001] gives tens of thousands of scales before the dedup; a rho
# closer to 1 would take minutes to lay out
_RHO = st.one_of(st.floats(1e-4, 1e-3).map(lambda d: 1.0 + d), st.floats(1.001, 4.0))


class TestScaleLayout:
    """The per-config layout scan caches against the uncached formulas."""

    @settings(max_examples=60, deadline=None)
    @given(w_min=st.integers(1, 40), span=st.integers(0, 360), rho=_RHO,
           n=st.integers(1, 600))
    @example(w_min=1, span=299, rho=1.1, n=1000)
    @example(w_min=1, span=1, rho=1.00001, n=2)
    @example(w_min=3, span=200, rho=1.001, n=50)
    def test_cached_layout_matches_formulas(self, w_min, span, rho, n):
        assume(n >= w_min)
        cfg = ScanConfig(w_min=w_min, w_max=w_min + span, rho=rho).clamped(n)
        w, stride = scanning._scale_layout(cfg.w_min, cfg.w_max, cfg.rho)
        lengths = window_lengths(cfg)[::-1]
        strides = [math.ceil(length / 5) for length in lengths]
        assert w.dtype == stride.dtype == np.int64
        assert w.tolist() == lengths
        assert stride.tolist() == strides
        profile = Profile(np.random.default_rng(n).normal(size=n))
        table = scan(profile, build_prefix_sums(profile), NoiseModel(1.0), cfg)
        assert table.windows == sum((n - length) // step + 1 + ((n - length) % step > 0)
                                    for length, step in zip(lengths, strides))

    def test_cached_arrays_are_read_only(self):
        for column in scanning._scale_layout(1, 300, 1.1):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 7

    def test_one_config_under_two_sigmas_matches_uncached_scans(self):
        # one ScanConfig, two profiles, two noise models: the cached layout
        # holds nothing that depends on n, sigma or the background
        cfg = ScanConfig(w_max=60, rho=1.3, p_s=0.05, background=0.5)
        rng = np.random.default_rng(12)
        profiles = [Profile(rng.normal(0.5, 1.0, size=400)), Profile(rng.normal(0.5, 3.0, 900))]
        noises = [NoiseModel(1.0, background=0.5), NoiseModel(2.5, background=0.5)]
        cached = [scan(p, build_prefix_sums(p), noise, cfg) for p, noise in zip(profiles, noises)]
        for profile, noise, table in zip(profiles, noises, cached):
            scanning._scale_layout.cache_clear()
            fresh = scan(profile, build_prefix_sums(profile), noise, cfg)
            for column in ("start", "end", "z", "log_p", "windows"):
                assert np.array_equal(getattr(table, column), getattr(fresh, column)), column
            _assert_matches_reference(profile.values, noise, cfg)


class TestCandidateRecord:
    def test_fields_repr_and_properties(self):
        cand = Candidate(3, 10, 2.5, -4.0)
        assert (cand.start, cand.end, cand.z, cand.log_p) == (3, 10, 2.5, -4.0)
        assert repr(cand) == "Candidate(start=3, end=10, z=2.5, log_p=-4.0)"
        assert Candidate(start=3, end=10, z=2.5, log_p=-4.0) == cand
        assert (cand.length, cand.interval, cand.sort_key) == (7, (3, 10), (-4.0, -7, 3))

    def test_equality_and_hashing_follow_the_fields(self):
        cand = Candidate(3, 10, 2.5, -4.0)
        assert cand == Candidate(3, 10, 2.5, -4.0)
        assert hash(cand) == hash(Candidate(3, 10, 2.5, -4.0))
        assert cand != Candidate(3, 10, 2.5, -4.5)
        assert len({cand, Candidate(3, 10, 2.5, -4.0), Candidate(4, 10, 2.5, -4.0)}) == 2

    def test_immutable(self):
        cand = Candidate(3, 10, 2.5, -4.0)
        with pytest.raises(AttributeError):
            cand.start = 4

    def test_table_without_a_window_count(self):
        # positional construction from the four columns still works
        table = CandidateTable(np.array([0]), np.array([2]), np.array([1.0]), np.array([-1.0]))
        assert table.windows is None
        assert table.candidate(0) == Candidate(0, 2, 1.0, -1.0)
