import math
import re

import numpy as np
import pytest

from segscan import (NoiseModel, Profile, ScanConfig, ValidationError, bh_select_log,
                     finalize)
from segscan.scanning import Candidate
from segscan.stats import build_prefix_sums, segment_stats


def _bh_oracle(p_values, alpha, m_total=None):
    # literal quadratic statement of the BH rule
    m = max(m_total or 0, len(p_values))
    order = sorted(range(len(p_values)), key=lambda i: p_values[i])
    k = 0
    for rank in range(1, len(p_values) + 1):
        if p_values[order[rank - 1]] <= rank * alpha / m:
            k = rank
    mask = [False] * len(p_values)
    for rank in range(k):
        mask[order[rank]] = True
    threshold = p_values[order[k - 1]] if k else 0.0
    return threshold, mask


def bh_select(p_values, alpha, m_total):
    # BH on plain p-values through the log-space procedure
    with np.errstate(divide="ignore"):
        log_threshold, mask = bh_select_log(np.log(p_values), alpha, m_total=m_total)
    return math.exp(log_threshold), mask


class TestBhSelect:
    def test_hand_worked_example(self):
        threshold, mask = bh_select([0.001, 0.02, 0.04], alpha=0.05, m_total=3)
        assert mask.tolist() == [True, True, True]
        assert threshold == pytest.approx(0.04)

    def test_none_rejected(self):
        threshold, mask = bh_select([0.5, 0.9], alpha=0.01, m_total=2)
        assert mask.tolist() == [False, False]
        assert threshold == 0.0

    def test_empty(self):
        threshold, mask = bh_select([], alpha=0.05, m_total=0)
        assert threshold == 0.0
        assert mask.size == 0

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            m = int(rng.integers(1, 60))
            p = np.round(rng.uniform(size=m) ** 2, 6)
            alpha = float(rng.uniform(0.005, 0.2))
            threshold, mask = bh_select(p, alpha, m_total=m)
            oracle_threshold, oracle_mask = _bh_oracle(p.tolist(), alpha)
            assert mask.tolist() == oracle_mask
            assert threshold == pytest.approx(oracle_threshold)

    def test_large_instance(self):
        rng = np.random.default_rng(42)
        p = rng.uniform(size=10_000)
        p[:300] = rng.uniform(0, 1e-4, size=300)
        threshold, mask = bh_select(p, alpha=0.05, m_total=p.size)
        _, oracle_mask = _bh_oracle(p.tolist(), 0.05)
        assert mask.tolist() == oracle_mask

    def test_rejections_form_prefix_of_sorted_order(self):
        rng = np.random.default_rng(43)
        p = rng.uniform(size=200)
        _, mask = bh_select(p, alpha=0.1, m_total=p.size)
        ranked = np.sort(p)
        rejected = np.sort(p[mask])
        assert np.array_equal(rejected, ranked[:rejected.size])

    def test_appending_p_one_never_adds_rejections(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            m = int(rng.integers(1, 40))
            p = (rng.uniform(size=m) ** 3).tolist()
            _, mask = bh_select(p, alpha=0.05, m_total=m)
            _, mask2 = bh_select(p + [1.0], alpha=0.05, m_total=m + 1)
            # the original entries' flags are monotone non-increasing
            assert all(b <= a for a, b in zip(mask, mask2[:-1]))

    def test_m_total_widens_family(self):
        p = [1e-4, 5e-4, 2e-3]
        _, mask_own = bh_select(p, alpha=0.01, m_total=len(p))
        assert mask_own.tolist() == [True, True, True]
        # rank-1 critical value falls to 0.01/50 = 2e-4: only 1e-4 survives
        _, mask_wide = bh_select(p, alpha=0.01, m_total=50)
        assert mask_wide.tolist() == [True, False, False]
        _, mask_wider = bh_select(p, alpha=0.01, m_total=10_000)
        assert mask_wider.tolist() == [False, False, False]


class TestBiologicalCutoff:
    # Blocks of 2,000 points at background + mean, 100 apart: even a mean
    # 0.1 off the background has z ~ 4.5, so BH alone calls every block and
    # any flag cleared below was cleared by the cutoff.
    def _finalize(self, means, p_b, background=0.0):
        values = np.full(2100 * len(means), background)
        intervals = [(2100 * i, 2100 * i + 2000) for i in range(len(means))]
        for (start, end), mu in zip(intervals, means):
            values[start:end] += mu
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        noise = NoiseModel(1.0, background=background)
        segments = [Candidate(start, end, 0.0, 0.0) for start, end in intervals]
        uncut = finalize(profile, segments, ScanConfig(background=background),
                         noise=noise, ps=ps, m_total=len(segments))
        assert all(r.significant for r in uncut.records)
        return finalize(profile, segments, ScanConfig(p_b=p_b, background=background),
                        noise=noise, ps=ps, m_total=len(segments))

    def test_small_mean_cleared(self):
        out = self._finalize([0.3], p_b=0.5)
        assert out.records[0].significant is False

    def test_absolute_value_kept(self):
        out = self._finalize([-0.9], p_b=0.5)
        assert out.records[0].significant is True

    def test_all_records_retained(self):
        out = self._finalize([0.1, 0.9, -0.2], p_b=0.5)
        assert len(out.records) == 3
        assert [r.significant for r in out.records] == [False, True, False]

    def test_nonzero_background(self):
        # measured from the background both objects carry: 1.1 is 0.1 off
        # it, 1.7 is 0.7 off it
        out = self._finalize([0.1, 0.7], p_b=0.5, background=1.0)
        assert [r.mean for r in out.records] == pytest.approx([1.1, 1.7])
        assert [r.significant for r in out.records] == [False, True]

    def test_nan_cutoff_rejected(self):
        with pytest.raises(ValidationError, match="p_b"):
            ScanConfig(p_b=math.nan)

    def test_bh_threshold_ignores_cutoff(self):
        uncut = self._finalize([0.3, -0.2], p_b=0.0)
        cut = self._finalize([0.3, -0.2], p_b=0.5)
        assert not any(r.significant for r in cut.records)
        assert cut.bh_threshold == uncut.bh_threshold > 0.0


class TestFinalize:
    def _setup(self, values, intervals):
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        noise = NoiseModel(1.0)
        segments = []
        for start, end in intervals:
            mean, z, log_p = segment_stats(ps, noise, start, end, "two")
            segments.append(Candidate(start, end, z, log_p))
        return profile, ps, noise, segments

    def test_empty(self):
        profile, ps, noise, selected = self._setup(np.zeros(20) + 0.1, [])
        result = finalize(profile, selected, ScanConfig(), noise=noise, ps=ps,
                          m_total=len(selected))
        assert result.records == ()
        assert result.bh_threshold == 0.0

    @pytest.mark.parametrize("sides", ["two", "one"])
    def test_statistics_match_segment_stats_bit_for_bit(self, sides):
        # finalize scores every segment in one batch; each record must hold
        # segment_stats' values exactly, whatever stale statistics came in.
        # Heavy tails and a 60-point block of 8.0 put some |z| past 37.
        rng = np.random.default_rng(5)
        values = 0.4 + 3.0 * rng.standard_t(2, size=2000)
        values[700:760] += 8.0
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        noise = NoiseModel(1.3, background=0.4)
        cuts = (sorted(rng.choice(np.arange(1, 690), size=100, replace=False).tolist())
                + [700, 760]
                + sorted(rng.choice(np.arange(770, 2000), size=200, replace=False).tolist()))
        stale = [Candidate(s, e, 0.0, 0.0) for s, e in zip(cuts[::2], cuts[1::2])]
        cfg = ScanConfig(sides=sides, background=0.4)
        result = finalize(profile, stale, cfg, noise=noise, ps=ps, m_total=len(stale))
        assert [(r.start, r.end) for r in result.records] == [c.interval for c in stale]
        assert max(abs(r.z) for r in result.records) > 37.0
        for record in result.records:
            expected = segment_stats(ps, noise, record.start, record.end, sides)
            got = (record.mean, record.z, record.log_p)
            assert [type(x) for x in got] == [float] * 3
            assert [x.hex() for x in got] == [x.hex() for x in expected]
            assert type(record.significant) is bool

    @pytest.mark.parametrize("intervals, pair", [
        ([(0, 10), (5, 20)], "[0, 10) before [5, 20)"),
        ([(30, 40), (0, 10)], "[30, 40) before [0, 10)"),
        ([(0, 5), (5, 9), (8, 12), (20, 30), (25, 28)], "[5, 9) before [8, 12)"),
    ], ids=["overlap", "out-of-order", "first-bad-pair"])
    def test_overlapping_or_unordered_segments_rejected(self, intervals, pair):
        # finalize takes merge_adjacent's output as it is and names the first bad pair
        profile, ps, noise, segments = self._setup(np.zeros(40), intervals)
        with pytest.raises(ValidationError, match=re.escape(pair)):
            finalize(profile, segments, ScanConfig(), noise=noise, ps=ps,
                     m_total=len(segments))

    def test_touching_segments_accepted(self):
        profile, ps, noise, segments = self._setup(np.zeros(40), [(0, 5), (5, 9), (9, 40)])
        result = finalize(profile, segments, ScanConfig(), noise=noise, ps=ps,
                          m_total=len(segments))
        assert [(r.start, r.end) for r in result.records] == [(0, 5), (5, 9), (9, 40)]

    def test_single_strong_segment(self):
        values = np.zeros(100)
        values[40:60] = 4.0
        profile, ps, noise, selected = self._setup(values, [(40, 60)])
        result = finalize(profile, selected, ScanConfig(), noise=noise, ps=ps,
                          m_total=len(selected))
        assert len(result.records) == 1
        assert result.records[0].significant

    def test_flags_match_composed_oracle(self):
        rng = np.random.default_rng(45)
        values = rng.normal(size=600)
        values[50:70] += 3.0
        values[200:210] += 1.0
        values[400:480] += 2.2
        intervals = [(50, 70), (200, 210), (400, 480), (520, 523)]
        profile, ps, noise, selected = self._setup(values, intervals)
        cfg = ScanConfig(p_b=0.5)
        result = finalize(profile, selected, cfg, noise=noise, ps=ps, m_total=500)
        # independent recomputation: direct stats + quadratic BH + cutoff rule
        p_direct = []
        means = []
        for start, end in intervals:
            total = math.fsum(values[start:end])
            n = end - start
            z = (total / n) * math.sqrt(n)
            p_direct.append(math.erfc(abs(z) / math.sqrt(2)))
            means.append(total / n)
        _, oracle_mask = _bh_oracle(p_direct, cfg.alpha, m_total=500)
        expected = [flag and abs(mu) >= 0.5 for flag, mu in zip(oracle_mask, means)]
        assert [r.significant for r in result.records] == expected

    def test_idempotent_on_own_output(self):
        rng = np.random.default_rng(46)
        values = rng.normal(size=300)
        values[100:140] += 2.5
        profile, ps, noise, selected = self._setup(values, [(100, 140), (200, 205)])
        cfg = ScanConfig()
        first = finalize(profile, selected, cfg, noise=noise, ps=ps, m_total=len(selected))
        again = finalize(profile,
                         [Candidate(r.start, r.end, r.z, r.log_p)
                          for r in first.records],
                         cfg, noise=noise, ps=ps, m_total=len(first.records))
        assert again.records == first.records
        assert again.bh_threshold == first.bh_threshold

    def test_flags_consistent_with_threshold(self):
        rng = np.random.default_rng(47)
        values = rng.normal(size=500)
        values[50:90] += 2.0
        values[300:310] += 1.2
        profile, ps, noise, selected = self._setup(values, [(50, 90), (300, 310), (400, 402)])
        result = finalize(profile, selected, ScanConfig(), noise=noise, ps=ps, m_total=200)
        for record in result.records:
            if record.significant:
                assert record.p_value <= result.bh_threshold * (1 + 1e-12)
            else:
                assert record.p_value > result.bh_threshold

    def test_threshold_stays_positive_when_p_underflows(self):
        # z = 6 * sqrt(100) = 60: p = exp(log_p) underflows to 0.0
        values = np.zeros(2000)
        values[1000:1100] = 6.0
        profile, ps, noise, selected = self._setup(values, [(1000, 1100)])
        result = finalize(profile, selected, ScanConfig(), noise=noise, ps=ps,
                          m_total=len(selected))
        record, = result.records
        assert record.significant
        assert math.exp(record.log_p) == 0.0
        assert result.bh_threshold > 0.0
        assert record.p_value <= result.bh_threshold
