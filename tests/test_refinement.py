import numpy as np
import pytest

from segscan import (NoiseModel, Profile, RefineContext, ScanConfig,
                     build_prefix_sums, merge_adjacent, move_boundary,
                     refine_all, select_nonoverlapping)


def _context(values, k_refine=10, committed=(), trace=None):
    profile = Profile(values)
    ps = build_prefix_sums(profile)
    ctx = RefineContext(ps=ps, noise=NoiseModel(1.0), cfg=ScanConfig(k_refine=k_refine),
                        trace=trace)
    for start, end in committed:
        ctx.boundaries.insert(start, end)
    return ctx


def _block_profile(n, start, end, height):
    values = np.zeros(n)
    values[start:end] = height
    return values


def _best_left(ctx, r, lo, hi):
    # exhaustive oracle over every left boundary in [lo, hi)
    best = min((ctx.stat(left, r) for left in range(lo, hi)),
               key=lambda c: (c.log_p, c.start))
    return best.start


def _best_right(ctx, l, lo, hi):
    best = min((ctx.stat(l, right) for right in range(lo, hi)),
               key=lambda c: (c.log_p, -c.end))
    return best.end


def _tie_case(op):
    """Profile, k_refine, start segment and two bit-equal gap boundaries.

    Perfect-square lengths make z exact with sigma = 1: 252 over 36 points
    and 294 over 49 points both give z = 42, and 63 over 9 points and 84
    over 16 points both give z = 21. Right-edge cases are the left-edge
    profiles reversed.
    """
    if op.startswith("expand"):
        leftward = [7.0] + [3, 3, 4, 3, 3, 4, 3, 3, 3, 3, 3, 3, 4] + [-5] * 4
        values = np.array(leftward[::-1] + [7.0] * 35)
        seg, longer, shorter = (18, 53), (4, 53), (17, 53)
    else:
        values = np.array([0.0] + [3.0] * 7 + [7.0] * 9)
        seg, longer, shorter = (0, 17), (1, 17), (8, 17)
    if op.endswith("right"):
        n = values.size
        values = values[::-1].copy()
        seg, longer, shorter = [(n - e, n - s) for s, e in (seg, longer, shorter)]
    return values, seg, longer, shorter


@pytest.mark.parametrize("op", ["expand_left", "expand_right", "shrink_left", "shrink_right"])
def test_gap_search_tie_keeps_longer_segment(op):
    values, seg, longer, shorter = _tie_case(op)
    ctx = _context(values, k_refine=2)
    assert ctx.stat(*longer).log_p == ctx.stat(*shorter).log_p
    assert ctx.stat(*longer).log_p < ctx.stat(*seg).log_p
    refined = move_boundary(ctx, ctx.stat(*seg), op)
    assert refined.interval == longer


class TestExpandLeft:
    def test_recovers_planted_boundary(self):
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        refined = move_boundary(ctx, ctx.stat(14, 30), "expand_left")
        assert refined.interval == (10, 30)
        assert _best_left(ctx, 30, 0, 15) == 10

    def test_already_optimal_unchanged(self):
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        seg = ctx.stat(10, 30)
        assert move_boundary(ctx, seg, "expand_left") == seg

    def test_committed_neighbor_clamps(self):
        values = _block_profile(40, 10, 30, 3.0)
        ctx = _context(values, committed=[(0, 14)])
        seg = ctx.stat(14, 30)
        assert move_boundary(ctx, seg, "expand_left") == seg

    def test_profile_edge_clamps(self):
        ctx = _context(_block_profile(20, 0, 10, 3.0))
        refined = move_boundary(ctx, ctx.stat(2, 10), "expand_left")
        assert refined.start == 0


class TestExpandRight:
    def test_recovers_planted_boundary(self):
        # exact mirror of the expand_left instance under profile reversal
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        refined = move_boundary(ctx, ctx.stat(10, 26), "expand_right")
        assert refined.interval == (10, 30)
        assert _best_right(ctx, 10, 27, 41) == 30

    def test_segment_at_profile_end_clamps(self):
        ctx = _context(_block_profile(20, 12, 20, 3.0))
        refined = move_boundary(ctx, ctx.stat(12, 18), "expand_right")
        assert refined.end <= 20

    def test_committed_neighbor_clamps(self):
        ctx = _context(_block_profile(40, 10, 30, 3.0), committed=[(30, 35)])
        refined = move_boundary(ctx, ctx.stat(10, 30), "expand_right")
        assert refined.end == 30


class TestShrink:
    def test_exact_segment_unchanged(self):
        ctx = _context(_block_profile(50, 10, 30, 3.0))
        seg = ctx.stat(10, 30)
        assert move_boundary(ctx, seg, "shrink_left") == seg
        assert move_boundary(ctx, seg, "shrink_right") == seg

    def test_shrink_left_matches_exhaustive_oracle(self):
        # K = 6 puts the first inward jump on the planted boundary
        ctx = _context(_block_profile(50, 10, 30, 3.0), k_refine=6)
        refined = move_boundary(ctx, ctx.stat(5, 35), "shrink_left")
        assert refined.start == _best_left(ctx, 35, 6, 35)
        assert refined.start == 10

    def test_shrink_right_matches_exhaustive_oracle(self):
        ctx = _context(_block_profile(50, 10, 30, 3.0), k_refine=6)
        refined = move_boundary(ctx, ctx.stat(10, 35), "shrink_right")
        assert refined.end == _best_right(ctx, 10, 11, 35)
        assert refined.end == 30

    def test_strict_improvement_only(self):
        rng = np.random.default_rng(31)
        values = rng.normal(size=200)
        values[50:100] += 2.0
        ctx = _context(values)
        seg = ctx.stat(45, 105)
        for op in ("shrink_left", "shrink_right"):
            refined = move_boundary(ctx, seg, op)
            assert refined.log_p <= seg.log_p

    def test_length_one_unchanged(self):
        ctx = _context(_block_profile(20, 5, 6, 5.0))
        seg = ctx.stat(5, 6)
        assert move_boundary(ctx, seg, "shrink_left") == seg
        assert move_boundary(ctx, seg, "shrink_right") == seg


class TestReversalSymmetry:
    def test_refine_all_mirrors_under_reversal(self):
        # dyadic values make segment sums exact, so both accumulation
        # orders produce bit-identical statistics
        rng = np.random.default_rng(32)
        n = 400
        values = rng.integers(-16, 17, size=n) / 8.0
        values[40:46] += 2.5
        values[150:210] += 1.25
        values[300:301] += 6.0
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        noise = NoiseModel(1.0)
        cfg = ScanConfig(w_max=100)
        from segscan import scan
        selected = select_nonoverlapping(scan(profile, ps, noise, cfg))
        assert len(selected) >= 3
        ctx = RefineContext(ps=ps, noise=noise, cfg=cfg)
        for seg in selected:
            ctx.boundaries.insert(seg.start, seg.end)
        forward = refine_all(ctx, selected)

        rev_profile = Profile(values[::-1].copy())
        rev_ps = build_prefix_sums(rev_profile)
        rev_ctx = RefineContext(ps=rev_ps, noise=noise, cfg=cfg)
        mirrored_selected = []
        for seg in selected:
            mirrored = rev_ctx.stat(n - seg.end, n - seg.start)
            rev_ctx.boundaries.insert(mirrored.start, mirrored.end)
            mirrored_selected.append(mirrored)
        mirrored_selected.sort(key=lambda c: c.start)
        backward = refine_all(rev_ctx, mirrored_selected)

        mirrored_back = sorted((n - seg.end, n - seg.start) for seg in backward)
        assert mirrored_back == [seg.interval for seg in forward]


class TestRefineAll:
    def test_empty(self):
        ctx = _context(np.zeros(10) + 0.5)
        assert refine_all(ctx, []) == []

    def test_single_segment_composes_four_ops(self):
        values = _block_profile(60, 20, 40, 2.5)
        ctx = _context(values, committed=[(24, 38)])
        out = refine_all(ctx, [ctx.stat(24, 38)])
        assert len(out) == 1
        assert out[0].interval == (20, 40)
        assert ctx.boundaries.intervals() == [(20, 40)]

    def test_random_instance_monotone_and_disjoint(self):
        rng = np.random.default_rng(33)
        values = rng.normal(size=1500)
        for start in range(100, 1300, 130):
            values[start:start + int(rng.integers(3, 40))] += 1.8
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        noise = NoiseModel(1.0)
        cfg = ScanConfig()
        from segscan import scan
        selected = select_nonoverlapping(scan(profile, ps, noise, cfg))
        assert len(selected) >= 5
        ctx = RefineContext(ps=ps, noise=noise, cfg=cfg)
        for seg in selected:
            ctx.boundaries.insert(seg.start, seg.end)
        refined = refine_all(ctx, selected)
        assert len(refined) == len(selected)
        intervals = [seg.interval for seg in refined]
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
        worst_pre = max(seg.log_p for seg in selected)
        assert max(seg.log_p for seg in refined) <= worst_pre


class TestMerge:
    def test_single_segment_unchanged(self):
        ctx = _context(_block_profile(50, 10, 30, 3.0), committed=[(10, 30)])
        out = merge_adjacent(ctx, [ctx.stat(10, 30)])
        assert [seg.interval for seg in out] == [(10, 30)]

    def test_split_signal_merges(self):
        values = _block_profile(300, 100, 160, 1.0)
        ctx = _context(values, committed=[(100, 128), (132, 160)])
        left, right = ctx.stat(100, 128), ctx.stat(132, 160)
        span = ctx.stat(100, 160)
        assert span.log_p < left.log_p and span.log_p < right.log_p  # direct computation
        out = merge_adjacent(ctx, [left, right])
        assert [seg.interval for seg in out] == [(100, 160)]
        assert ctx.boundaries.intervals() == [(100, 160)]

    def test_distant_segments_not_merged(self):
        values = np.zeros(400)
        values[10:30] = 3.0
        values[300:320] = 3.0
        ctx = _context(values, committed=[(10, 30), (300, 320)])
        a, b = ctx.stat(10, 30), ctx.stat(300, 320)
        span = ctx.stat(10, 320)
        assert span.log_p > a.log_p  # the long zero gap dilutes the span
        out = merge_adjacent(ctx, [a, b])
        assert [seg.interval for seg in out] == [(10, 30), (300, 320)]

    def test_cascade_merges_to_fixpoint(self):
        values = _block_profile(200, 50, 130, 1.5)
        pieces = [(50, 75), (78, 100), (103, 130)]
        ctx = _context(values, committed=pieces)
        out = merge_adjacent(ctx, [ctx.stat(s, e) for s, e in pieces])
        assert [seg.interval for seg in out] == [(50, 130)]

    def test_fixpoint_property(self):
        rng = np.random.default_rng(34)
        values = rng.normal(size=800)
        values[100:180] += 1.4
        values[500:530] += 2.0
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        noise = NoiseModel(1.0)
        cfg = ScanConfig()
        from segscan import scan
        selected = select_nonoverlapping(scan(profile, ps, noise, cfg))
        ctx = RefineContext(ps=ps, noise=noise, cfg=cfg)
        for seg in selected:
            ctx.boundaries.insert(seg.start, seg.end)
        segs = merge_adjacent(ctx, refine_all(ctx, selected))
        for a, b in zip(segs, segs[1:]):
            span = ctx.stat(a.start, b.end)
            assert not (span.log_p < a.log_p and span.log_p < b.log_p)

    def test_trace_records_strict_decreases(self):
        trace = []
        values = _block_profile(300, 100, 160, 1.0)
        ctx = _context(values, committed=[(100, 128), (132, 160)], trace=trace)
        merge_adjacent(ctx, [ctx.stat(100, 128), ctx.stat(132, 160)])
        assert trace
        for op, before, after in trace:
            assert op == "merge"
            left, right = before
            assert after.log_p < left.log_p
            assert after.log_p < right.log_p
