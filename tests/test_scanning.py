import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from segscan import (NoiseModel, Profile, ScanConfig, ValidationError,
                     build_prefix_sums, predicted_op_counts, scan,
                     window_lengths)
from segscan.stats import OpCounter, log_p_value_batch


class TestScanConfig:
    def test_defaults_match_documented_values(self):
        cfg = ScanConfig()
        assert (cfg.w_min, cfg.w_max, cfg.rho) == (1, 300, 1.1)
        assert (cfg.p_s, cfg.alpha, cfg.k_refine) == (1e-3, 0.01, 10)
        assert cfg.p_b is None and cfg.background == 0.0 and cfg.sides == "two"

    @pytest.mark.parametrize("kwargs", [
        dict(w_min=0), dict(w_max=0), dict(rho=1.0), dict(p_s=0.0),
        dict(p_s=1.5), dict(alpha=0.0), dict(k_refine=1), dict(sides="both"),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            ScanConfig(**kwargs)

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
        cands = scan(profile, build_prefix_sums(profile), noise,
                     ScanConfig(w_min=1, w_max=40, p_s=1.0), exhaustive=True)
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


def _unfiltered_scan(values, noise, cfg):
    # reference: log_p for every window of the sparse grid, exact filter, lexsort
    n = len(values)
    cum = np.concatenate(([0.0], np.cumsum(values)))
    columns = []
    for w in window_lengths(cfg.clamped(n)):
        starts = np.array(sorted(set(range(0, n - w + 1, math.ceil(w / 5))) | {n - w}))
        sums = cum[starts + w] - cum[starts]
        z = (sums / w - noise.background) * np.sqrt(w) / noise.sigma
        log_p = log_p_value_batch(z, cfg.sides)
        keep = log_p <= math.log(cfg.p_s)
        columns.append((starts[keep], starts[keep] + w, z[keep], log_p[keep]))
    start, end, z, log_p = (np.concatenate(c) for c in zip(*columns))
    order = np.lexsort((start, start - end, log_p))
    return start[order], end[order], z[order], log_p[order]


class TestPrefilter:
    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=60),
           background=st.floats(-3.0, 3.0).filter(lambda b: b != 0.0),
           sigma=st.sampled_from([0.05, 1.0, 4.0]),
           p_s=st.sampled_from([1.0, 0.5, 1e-3, 1e-300, 5e-324]),
           sides=st.sampled_from(["one", "two"]))
    @example(values=[0.0] * 10 + [50.0] * 20 + [-50.0] * 20, background=1.0,
             sigma=0.05, p_s=5e-324, sides="two")
    # one-sided at p_s = 1 the cut is -inf: windows at z < -100 must stay
    @example(values=[-50.0] * 30, background=2.0, sigma=0.05, p_s=1.0, sides="one")
    def test_matches_unfiltered_reference(self, values, background, sigma, p_s, sides):
        values = np.array(values)
        profile = Profile(values)
        noise = NoiseModel(sigma, background=background)
        cfg = ScanConfig(w_max=40, p_s=p_s, sides=sides)
        table = scan(profile, build_prefix_sums(profile), noise, cfg)
        expected = _unfiltered_scan(values, noise, cfg)
        for column, want in zip(("start", "end", "z", "log_p"), expected):
            assert np.array_equal(getattr(table, column), want), column


class TestPredictedOpCounts:
    def test_single_scale_example(self):
        c_b, c_star = predicted_op_counts(100, ScanConfig(w_min=10, w_max=10, rho=1.1))
        assert (c_b, c_star) == (900, 190)

    def test_direct_evaluation_oracle(self):
        cfg = ScanConfig()
        c_b, c_star = predicted_op_counts(1000, cfg)
        brute = memo = 0.0
        i = 0
        while cfg.w_min * cfg.rho ** i <= cfg.w_max:
            w = cfg.w_min * cfg.rho ** i
            brute += (1000 - w) * w
            memo += 1000 - w
            i += 1
        assert c_b == round(brute)
        assert c_star == round(1000 + memo)

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
