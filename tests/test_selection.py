import math

import numpy as np
import pytest

from segscan import (BoundarySet, Candidate, ValidationError,
                     select_nonoverlapping)


def _cand(start, end, p):
    z = 5.0  # z is irrelevant to selection
    return Candidate(start, end, z, math.log(p))


def _random_candidates(rng, count, n=200):
    out = []
    for _ in range(count):
        start = int(rng.integers(0, n - 1))
        end = start + int(rng.integers(1, min(40, n - start) + 1))
        out.append(_cand(start, end, float(rng.uniform(1e-12, 1e-3))))
    return out


def _greedy_oracle(candidates):
    # linear-scan reference: same ranking, no trees or bisection
    picked = []
    for cand in sorted(candidates, key=lambda c: (c.log_p, c.start - c.end, c.start)):
        if all(cand.end <= q.start or cand.start >= q.end for q in picked):
            picked.append(cand)
    return sorted((c.interval for c in picked))


class TestBoundarySet:
    def test_empty_never_overlaps(self):
        assert not BoundarySet().overlaps(0, 10)

    def test_half_open_adjacency(self):
        bs = BoundarySet()
        bs.insert(10, 20)
        assert not bs.overlaps(20, 25)
        assert not bs.overlaps(0, 10)

    def test_containment(self):
        bs = BoundarySet()
        bs.insert(10, 20)
        assert bs.overlaps(15, 16)
        assert bs.overlaps(0, 100)

    def test_insert_overlapping_rejected(self):
        bs = BoundarySet()
        bs.insert(5, 10)
        with pytest.raises(ValidationError):
            bs.insert(9, 12)

    def test_remove(self):
        bs = BoundarySet()
        bs.insert(5, 10)
        bs.remove(5, 10)
        assert len(bs) == 0
        with pytest.raises(ValidationError):
            bs.remove(5, 10)

    def test_limits(self):
        bs = BoundarySet()
        bs.insert(10, 20)
        bs.insert(40, 50)
        assert bs.left_limit(30) == 20
        assert bs.left_limit(5) == 0
        assert bs.right_limit(30, 100) == 40
        assert bs.right_limit(60, 100) == 100

    def test_empty_query_rejected(self):
        with pytest.raises(ValidationError):
            BoundarySet().overlaps(5, 5)


class TestSelect:
    def test_disjoint_pair_both_selected(self):
        a, b = _cand(0, 10, 1e-6), _cand(20, 30, 1e-4)
        assert [c.interval for c in select_nonoverlapping([a, b])] == [(0, 10), (20, 30)]

    def test_overlap_better_p_wins(self):
        a = _cand(0, 10, 1e-6)
        b = _cand(5, 15, 1e-4)
        assert [c.interval for c in select_nonoverlapping([a, b])] == [(0, 10)]

    def test_adjacent_not_overlapping(self):
        a, b = _cand(0, 10, 1e-6), _cand(10, 20, 1e-4)
        assert len(select_nonoverlapping([a, b])) == 2

    def test_tie_break_longer_then_leftmost(self):
        p = 1e-5
        short = _cand(0, 5, p)
        long_right = _cand(3, 13, p)
        picked = select_nonoverlapping([short, long_right])
        assert [c.interval for c in picked] == [(3, 13)]

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            candidates = _random_candidates(rng, 50)
            got = [c.interval for c in select_nonoverlapping(candidates)]
            assert sorted(got) == _greedy_oracle(candidates)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(22)
        candidates = _random_candidates(rng, 80)
        base = [c.interval for c in select_nonoverlapping(candidates)]
        for _ in range(5):
            shuffled = list(candidates)
            rng.shuffle(shuffled)
            assert [c.interval for c in select_nonoverlapping(shuffled)] == base

    def test_output_disjoint_and_greedy_consistent(self):
        rng = np.random.default_rng(23)
        candidates = _random_candidates(rng, 300, n=500)
        picked = select_nonoverlapping(candidates)
        intervals = [c.interval for c in picked]
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
        # no discarded candidate is disjoint from every better-ranked selection
        chosen = {c.interval for c in picked}
        committed = []
        for cand in sorted(candidates, key=lambda c: c.sort_key):
            overlaps = any(cand.start < e and s < cand.end for s, e in committed)
            if not overlaps:
                assert cand.interval in chosen
                committed.append(cand.interval)
