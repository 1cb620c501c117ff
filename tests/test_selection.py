import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segscan import (Candidate, ValidationError, greedy_disjoint,
                     select_nonoverlapping, selection)
from segscan.selection import BoundarySet

from candidate_tables import table_from_candidates


def _cand(start, end, p):
    z = 5.0  # z is irrelevant to selection
    return Candidate(start, end, z, math.log(p))


def _select(candidates):
    return select_nonoverlapping(table_from_candidates(candidates))


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
        assert BoundarySet().add(0, 10)

    def test_half_open_adjacency(self):
        bs = BoundarySet()
        bs.insert(10, 20)
        assert bs.add(20, 25)
        # touching intervals store their shared edge 10 twice
        assert bs.add(0, 10)
        assert not bs.add(9, 10)
        assert not bs.add(10, 11)
        assert not bs.add(19, 21)
        assert bs.add(25, 26)
        assert bs.edges[:-1] == [0, 10, 10, 20, 20, 25, 25, 26]

    def test_containment(self):
        bs = BoundarySet()
        bs.insert(10, 20)
        assert not bs.add(15, 16)
        assert not bs.add(0, 100)
        assert bs.edges[:-1] == [10, 20]

    def test_insert_overlapping_rejected(self):
        bs = BoundarySet()
        bs.insert(5, 10)
        with pytest.raises(ValidationError):
            bs.insert(9, 12)

    def test_empty_query_rejected(self):
        with pytest.raises(ValidationError):
            BoundarySet().add(5, 5)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 8), st.booleans()),
                    max_size=40))
    def test_matches_linear_scan(self, ops):
        # random inserts and probes on a short axis, so touching and nested
        # intervals are common; a probe adds to a copy of the set
        bs, stored = BoundarySet(), []
        for start, length, store in ops:
            end = start + length
            expected = any(start < e and s < end for s, e in stored)
            target = bs if store else copy.deepcopy(bs)
            assert target.add(start, end) is not expected
            if store and not expected:
                stored.append((start, end))
            assert bs.edges[:-1] == sorted(x for iv in stored for x in iv)


class TestSelect:
    def test_disjoint_pair_both_selected(self):
        a, b = _cand(0, 10, 1e-6), _cand(20, 30, 1e-4)
        assert [c.interval for c in _select([a, b])] == [(0, 10), (20, 30)]

    def test_overlap_better_p_wins(self):
        a = _cand(0, 10, 1e-6)
        b = _cand(5, 15, 1e-4)
        assert [c.interval for c in _select([a, b])] == [(0, 10)]

    def test_adjacent_not_overlapping(self):
        a, b = _cand(0, 10, 1e-6), _cand(10, 20, 1e-4)
        assert len(_select([a, b])) == 2

    def test_tie_break_longer_then_leftmost(self):
        p = 1e-5
        short = _cand(0, 5, p)
        long_right = _cand(3, 13, p)
        picked = _select([short, long_right])
        assert [c.interval for c in picked] == [(3, 13)]

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            candidates = _random_candidates(rng, 50)
            got = [c.interval for c in _select(candidates)]
            assert sorted(got) == _greedy_oracle(candidates)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(22)
        candidates = _random_candidates(rng, 80)
        base = [c.interval for c in _select(candidates)]
        for _ in range(5):
            shuffled = list(candidates)
            rng.shuffle(shuffled)
            assert [c.interval for c in _select(shuffled)] == base

    def test_output_disjoint_and_greedy_consistent(self):
        rng = np.random.default_rng(23)
        candidates = _random_candidates(rng, 300, n=500)
        picked = _select(candidates)
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


@st.composite
def _pools(draw):
    """Distinct intervals on a short axis, with nested and touching partners.

    log p comes from a set of four values, so many rows tie and the length
    and start tie-breaks decide; nesting and touching are added explicitly
    rather than left to chance.
    """
    n = draw(st.integers(2, 40))
    log_p = st.sampled_from([-40.0, -20.5, -9.0, -7.25])
    pool = {}
    for _ in range(draw(st.integers(0, 30))):
        start = draw(st.integers(0, n - 1))
        end = draw(st.integers(start + 1, n))
        pool[(start, end)] = draw(log_p)
        if end - start > 2 and draw(st.booleans()):
            pool[(start + 1, end - 1)] = draw(log_p)
        if end < n and draw(st.booleans()):
            pool[(end, draw(st.integers(end + 1, n)))] = draw(log_p)
    return [Candidate(s, e, 1.0, lp) for (s, e), lp in pool.items()]


@pytest.mark.parametrize("block_rows", [1, 3, 2048])
@settings(max_examples=150, deadline=None)
@given(pool=_pools())
def test_blocked_select_matches_greedy_oracle(block_rows, pool):
    # blocks of a few rows make every example span many blocks, so the
    # prefilter against earlier blocks decides most rejections; one block
    # of 2048 leaves every row to the survivor walk
    table = table_from_candidates(pool)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(selection, "BLOCK_ROWS", block_rows)
        got = select_nonoverlapping(table)
    assert got == greedy_disjoint(table)


def _pool_of(rows, seed):
    """``rows`` distinct intervals, 1-20 long on an axis of 4 * rows points, four log p values."""
    rng = np.random.default_rng(seed)
    n = max(4 * rows, 30)
    pool = {}
    while len(pool) < rows:
        start = int(rng.integers(0, n - 1))
        end = min(n, start + int(rng.integers(1, 21)))
        pool[(start, end)] = float(rng.choice([-40.0, -20.5, -9.0, -7.25]))
    return [Candidate(s, e, 1.0, lp) for (s, e), lp in pool.items()]


@pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 5000])
@pytest.mark.parametrize("seed", [0, 1])
def test_select_matches_greedy_oracle_at_block_edges(rows, seed):
    # the first block holds FIRST_BLOCK_ROWS rows: 63 and 64 rows fill
    # one block, 65 start a second, and 5,000 run through every block size
    # up to BLOCK_ROWS and past it
    table = table_from_candidates(_pool_of(rows, seed))
    assert select_nonoverlapping(table) == greedy_disjoint(table)
