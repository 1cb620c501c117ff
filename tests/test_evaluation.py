import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segscan import (Candidate, NoiseModel, PlantedSegment, Profile, ScanConfig,
                     ValidationError, brute_force_segment, build_prefix_sums,
                     enumerate_candidates_dense, greedy_disjoint, positions_mask,
                     scan, score, select_nonoverlapping)

from candidate_tables import table_from_candidates


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

    def test_rows_in_candidate_key_order(self):
        rng = np.random.default_rng(55)
        table = enumerate_candidates_dense(Profile(rng.normal(size=90)), NoiseModel(1.0),
                                           ScanConfig(w_max=40, p_s=0.2))
        rows = [table.candidate(i) for i in range(len(table))]
        assert len(rows) > 100
        assert [c.sort_key for c in rows] == sorted(c.sort_key for c in rows)

    @pytest.mark.parametrize("start, end", [(-1, 3), (4, 4), (5, 2)])
    def test_greedy_rejects_bad_rows(self, start, end):
        table = table_from_candidates([Candidate(0, 2, 1.0, -9.0),
                                       Candidate(start, end, 1.0, -8.0)])
        with pytest.raises(ValidationError, match="start < end"):
            greedy_disjoint(table)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(5, 120), w_min=st.integers(1, 5),
       w_span=st.integers(0, 75), sides=st.sampled_from(["one", "two"]),
       background=st.sampled_from([0.0, 0.3, -0.5]), p_s=st.floats(1e-8, 1.0))
def test_exhaustive_scan_and_select_match_oracle(seed, n, w_min, w_span, sides, background, p_s):
    # values from a seeded generator, not from hypothesis, so no two windows
    # tie in exact arithmetic and round apart differently on the two routes
    profile = Profile(np.random.default_rng(seed).normal(size=n))
    cfg = ScanConfig(w_min=w_min, w_max=w_min + w_span, p_s=p_s, background=background,
                     sides=sides)
    noise = NoiseModel(1.0, background)
    pipeline = select_nonoverlapping(
        scan(profile, build_prefix_sums(profile), noise, cfg, exhaustive=True))
    oracle = brute_force_segment(profile, noise, cfg=cfg)
    assert [c.interval for c in pipeline] == [c.interval for c in oracle]
