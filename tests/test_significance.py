import math

import numpy as np
import pytest

from segscan import (NoiseModel, Profile, ScanConfig, SegmentRecord,
                     ValidationError, apply_biological_cutoff, bh_select,
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


class TestBhSelect:
    def test_hand_worked_example(self):
        threshold, mask = bh_select([0.001, 0.02, 0.04], alpha=0.05)
        assert mask.tolist() == [True, True, True]
        assert threshold == pytest.approx(0.04)

    def test_none_rejected(self):
        threshold, mask = bh_select([0.5, 0.9], alpha=0.01)
        assert mask.tolist() == [False, False]
        assert threshold == 0.0

    def test_empty(self):
        threshold, mask = bh_select([], alpha=0.05)
        assert threshold == 0.0
        assert mask.size == 0

    def test_matches_quadratic_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            m = int(rng.integers(1, 60))
            p = np.round(rng.uniform(size=m) ** 2, 6)
            alpha = float(rng.uniform(0.005, 0.2))
            threshold, mask = bh_select(p, alpha)
            oracle_threshold, oracle_mask = _bh_oracle(p.tolist(), alpha)
            assert mask.tolist() == oracle_mask
            assert threshold == pytest.approx(oracle_threshold)

    def test_large_instance(self):
        rng = np.random.default_rng(42)
        p = rng.uniform(size=10_000)
        p[:300] = rng.uniform(0, 1e-4, size=300)
        threshold, mask = bh_select(p, alpha=0.05)
        _, oracle_mask = _bh_oracle(p.tolist(), 0.05)
        assert mask.tolist() == oracle_mask

    def test_rejections_form_prefix_of_sorted_order(self):
        rng = np.random.default_rng(43)
        p = rng.uniform(size=200)
        _, mask = bh_select(p, alpha=0.1)
        ranked = np.sort(p)
        rejected = np.sort(p[mask])
        assert np.array_equal(rejected, ranked[:rejected.size])

    def test_appending_p_one_never_adds_rejections(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            m = int(rng.integers(1, 40))
            p = (rng.uniform(size=m) ** 3).tolist()
            _, mask = bh_select(p, alpha=0.05)
            _, mask2 = bh_select(p + [1.0], alpha=0.05)
            # the original entries' flags are monotone non-increasing
            assert all(b <= a for a, b in zip(mask, mask2[:-1]))

    def test_m_total_widens_family(self):
        p = [1e-4, 5e-4, 2e-3]
        _, mask_default = bh_select(p, alpha=0.01)
        assert mask_default.tolist() == [True, True, True]
        # rank-1 critical value falls to 0.01/50 = 2e-4: only 1e-4 survives
        _, mask_wide = bh_select(p, alpha=0.01, m_total=50)
        assert mask_wide.tolist() == [True, False, False]
        _, mask_wider = bh_select(p, alpha=0.01, m_total=10_000)
        assert mask_wider.tolist() == [False, False, False]

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            bh_select([0.5, 1.2], alpha=0.05)
        with pytest.raises(ValidationError):
            bh_select([0.5], alpha=0.0)


class TestBiologicalCutoff:
    def _records(self, means, significant=True):
        return [SegmentRecord(start=10 * i, end=10 * i + 5, mean=mu, z=1.0,
                              log_p=math.log(0.5), significant=significant)
                for i, mu in enumerate(means)]

    def test_small_mean_cleared(self):
        out = apply_biological_cutoff(self._records([0.3]), p_b=0.5, background=0.0)
        assert out[0].significant is False

    def test_absolute_value_kept(self):
        out = apply_biological_cutoff(self._records([-0.9]), p_b=0.5, background=0.0)
        assert out[0].significant is True

    def test_all_records_retained(self):
        records = self._records([0.1, 0.9, -0.2])
        out = apply_biological_cutoff(records, p_b=0.5, background=0.0)
        assert len(out) == 3
        assert [r.significant for r in out] == [False, True, False]

    def test_nonzero_background(self):
        out = apply_biological_cutoff(self._records([1.1]), p_b=0.5, background=1.0)
        assert out[0].significant is False


class TestFinalize:
    def _setup(self, values, intervals):
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        noise = NoiseModel(1.0)
        segments = []
        for start, end in intervals:
            mean, z, log_p = segment_stats(ps, noise, start, end, "two")
            segments.append(Candidate(start, end, z, log_p))
        return profile, noise, segments

    def test_empty(self):
        profile, noise, selected = self._setup(np.zeros(20) + 0.1, [])
        result = finalize(profile, selected, ScanConfig(), noise=noise)
        assert result.records == ()
        assert result.bh_threshold == 0.0

    def test_single_strong_segment(self):
        values = np.zeros(100)
        values[40:60] = 4.0
        profile, noise, selected = self._setup(values, [(40, 60)])
        result = finalize(profile, selected, ScanConfig(), noise=noise)
        assert len(result.records) == 1
        assert result.records[0].significant

    def test_flags_match_composed_oracle(self):
        rng = np.random.default_rng(45)
        values = rng.normal(size=600)
        values[50:70] += 3.0
        values[200:210] += 1.0
        values[400:480] += 2.2
        intervals = [(50, 70), (200, 210), (400, 480), (520, 523)]
        profile, noise, selected = self._setup(values, intervals)
        cfg = ScanConfig(p_b=0.5)
        result = finalize(profile, selected, cfg, noise=noise, m_total=500)
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
        profile, noise, selected = self._setup(values, [(100, 140), (200, 205)])
        cfg = ScanConfig()
        first = finalize(profile, selected, cfg, noise=noise)
        again = finalize(profile,
                         [Candidate(r.start, r.end, r.z, r.log_p)
                          for r in first.records],
                         cfg, noise=noise)
        assert again.records == first.records
        assert again.bh_threshold == first.bh_threshold

    def test_flags_consistent_with_threshold(self):
        rng = np.random.default_rng(47)
        values = rng.normal(size=500)
        values[50:90] += 2.0
        values[300:310] += 1.2
        profile, noise, selected = self._setup(values, [(50, 90), (300, 310), (400, 402)])
        result = finalize(profile, selected, ScanConfig(), noise=noise, m_total=200)
        for record in result.records:
            if record.significant:
                assert record.p_value <= result.bh_threshold * (1 + 1e-12)
            else:
                assert record.p_value > result.bh_threshold
