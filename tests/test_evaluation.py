import numpy as np
import pytest

from segscan import (NoiseModel, PlantedSegment, Profile, ScanConfig,
                     ValidationError, brute_force_segment, positions_mask,
                     score)


class TestPositionsMask:
    def test_no_segments(self):
        assert positions_mask([], 5).tolist() == [False] * 5

    def test_single_segment(self):
        assert positions_mask([(2, 4)], 5).tolist() == [False, False, True, True, False]

    def test_accepts_objects_with_attrs(self):
        mask = positions_mask([PlantedSegment(1, 3, 0.5)], 4)
        assert mask.tolist() == [False, True, True, False]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            positions_mask([(3, 9)], 5)


class TestScore:
    def test_perfect_prediction(self):
        mask = positions_mask([(1, 4)], 6)
        report = score(mask, mask)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)
        assert not report.degenerate

    def test_direct_formula_values(self):
        pred = np.array([True, True, True, False])
        truth = np.array([True, True, False, True])
        report = score(pred, truth)
        assert (report.tp, report.fp, report.fn) == (2, 1, 1)
        assert report.precision == pytest.approx(2 / 3)
        assert report.recall == pytest.approx(2 / 3)
        assert report.f1 == pytest.approx(2 / 3)

    def test_empty_prediction(self):
        report = score(np.zeros(5, bool), positions_mask([(0, 2)], 5))
        assert report.recall == 0.0
        assert report.f1 == 0.0
        assert report.degenerate  # 0/0 precision

    def test_empty_vs_empty_flagged(self):
        report = score(np.zeros(4, bool), np.zeros(4, bool))
        assert report.f1 == 0.0
        assert report.degenerate

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            score(np.zeros(4, bool), np.zeros(5, bool))

    def test_identities_against_counting_loop(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            n = int(rng.integers(1, 200))
            pred = rng.random(n) < 0.3
            truth = rng.random(n) < 0.3
            report = score(pred, truth)
            tp = sum(1 for a, b in zip(pred, truth) if a and b)
            fp = sum(1 for a, b in zip(pred, truth) if a and not b)
            fn = sum(1 for a, b in zip(pred, truth) if not a and b)
            assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
            if tp + fp and tp + fn and tp:
                p, r = tp / (tp + fp), tp / (tp + fn)
                assert report.f1 == pytest.approx(2 * p * r / (p + r))

    def test_f1_bounds(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            pred = rng.random(50) < 0.4
            truth = rng.random(50) < 0.4
            report = score(pred, truth)
            assert 0.0 <= report.f1 <= 1.0
            if report.f1 == 1.0:
                assert np.array_equal(pred, truth) and pred.any()


class TestBruteForce:
    def test_constant_zero_profile(self):
        picked = brute_force_segment(Profile(np.zeros(50)), NoiseModel(1.0))
        assert picked == []

    def test_spike_selects_singleton(self):
        values = np.zeros(20)
        values[7] = 6.0
        picked = brute_force_segment(Profile(values), NoiseModel(1.0))
        assert [c.interval for c in picked] == [(7, 8)]

    def test_refusal_over_max_n(self):
        with pytest.raises(ValidationError, match="max_n"):
            brute_force_segment(Profile(np.zeros(501)), NoiseModel(1.0))
        # explicit override allows it
        picked = brute_force_segment(Profile(np.zeros(501)), NoiseModel(1.0), max_n=600)
        assert picked == []

    def test_disjoint_and_greedy_consistent(self):
        rng = np.random.default_rng(53)
        values = rng.normal(size=150)
        values[30:45] += 2.5
        values[90:91] += 5.0
        picked = brute_force_segment(Profile(values), NoiseModel(1.0))
        intervals = [c.interval for c in picked]
        assert intervals
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
        ranked = sorted(picked, key=lambda c: c.sort_key)
        for i, cand in enumerate(ranked):
            assert cand.log_p <= np.log(ScanConfig().p_s)

    def test_matches_exhaustive_scan_and_select(self):
        # light version of the oracle-equivalence acceptance gate
        from segscan import build_prefix_sums, scan, select_nonoverlapping
        rng = np.random.default_rng(54)
        values = rng.normal(size=120)
        values[40:60] += 2.0
        profile = Profile(values)
        noise = NoiseModel(1.0)
        cfg = ScanConfig()
        pipeline = select_nonoverlapping(
            scan(profile, build_prefix_sums(profile), noise, cfg, exhaustive=True))
        oracle = brute_force_segment(profile, noise, cfg=cfg)
        assert [c.interval for c in pipeline] == [c.interval for c in oracle]
