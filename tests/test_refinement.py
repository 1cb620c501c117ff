import math
from bisect import bisect_left, bisect_right
from itertools import cycle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segscan import (Candidate, NoiseModel, Profile, RefineContext, ScanConfig,
                     ValidationError, build_prefix_sums, merge_adjacent, refine_all,
                     refinement, scan, segment_stats, select_nonoverlapping)
from segscan.refinement import move_boundary

#: GAP_BATCH_MIN settings that send every non-empty gap search through the
#: batch kernels, or every one through the scalar loop.
ALL_BATCHED, ALL_SCALAR = 1, 10**9


def _context(values, k_refine=10, trace=None):
    profile = Profile(values)
    ps = build_prefix_sums(profile)
    return RefineContext(ps=ps, noise=NoiseModel(1.0), cfg=ScanConfig(k_refine=k_refine),
                         trace=trace)


def _stat(ctx, start, end):
    """Candidate for [start, end) scored as refinement scores it."""
    return Candidate(start, end, *segment_stats(ctx.ps, ctx.noise, start, end,
                                                ctx.cfg.sides)[1:])


def _block_profile(n, start, end, height):
    values = np.zeros(n)
    values[start:end] = height
    return values


def _best_left(ctx, r, lo, hi):
    # exhaustive oracle over every left boundary in [lo, hi)
    best = min((_stat(ctx, left, r) for left in range(lo, hi)),
               key=lambda c: (c.log_p, c.start))
    return best.start


def _best_right(ctx, l, lo, hi):
    best = min((_stat(ctx, l, right) for right in range(lo, hi)),
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
def test_gap_search_tie_keeps_longer_segment(op, monkeypatch):
    values, seg, longer, shorter = _tie_case(op)
    ctx = _context(values, k_refine=2)
    assert _stat(ctx, *longer).log_p == _stat(ctx, *shorter).log_p
    assert _stat(ctx, *longer).log_p < _stat(ctx, *seg).log_p
    for gap_batch_min in (ALL_BATCHED, ALL_SCALAR):
        monkeypatch.setattr(refinement, "GAP_BATCH_MIN", gap_batch_min)
        refined = move_boundary(ctx, _stat(ctx, *seg), op, 0, values.size)
        assert refined.interval == longer, gap_batch_min


class TestExpandLeft:
    def test_recovers_planted_boundary(self):
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        refined = move_boundary(ctx, _stat(ctx, 14, 30), "expand_left", 0, 40)
        assert refined.interval == (10, 30)
        assert _best_left(ctx, 30, 0, 15) == 10

    def test_already_optimal_unchanged(self):
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        seg = _stat(ctx, 10, 30)
        assert move_boundary(ctx, seg, "expand_left", 0, 40) == seg

    def test_committed_neighbor_clamps(self):
        # a committed neighbor [0, 14) puts the left limit at 14
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        seg = _stat(ctx, 14, 30)
        assert move_boundary(ctx, seg, "expand_left", 14, 40) == seg

    def test_profile_edge_clamps(self):
        ctx = _context(_block_profile(20, 0, 10, 3.0))
        refined = move_boundary(ctx, _stat(ctx, 2, 10), "expand_left", 0, 20)
        assert refined.start == 0


class TestExpandRight:
    def test_recovers_planted_boundary(self):
        # exact mirror of the expand_left instance under profile reversal
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        refined = move_boundary(ctx, _stat(ctx, 10, 26), "expand_right", 0, 40)
        assert refined.interval == (10, 30)
        assert _best_right(ctx, 10, 27, 41) == 30

    def test_segment_at_profile_end_clamps(self):
        ctx = _context(_block_profile(20, 12, 20, 3.0))
        refined = move_boundary(ctx, _stat(ctx, 12, 18), "expand_right", 0, 20)
        assert refined.end <= 20

    def test_committed_neighbor_clamps(self):
        # a committed neighbor [30, 35) puts the right limit at 30
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        refined = move_boundary(ctx, _stat(ctx, 10, 30), "expand_right", 0, 30)
        assert refined.end == 30


class TestShrink:
    def test_exact_segment_unchanged(self):
        ctx = _context(_block_profile(50, 10, 30, 3.0))
        seg = _stat(ctx, 10, 30)
        assert move_boundary(ctx, seg, "shrink_left", 0, 50) == seg
        assert move_boundary(ctx, seg, "shrink_right", 0, 50) == seg

    def test_shrink_left_matches_exhaustive_oracle(self):
        # K = 6 puts the first inward jump on the planted boundary
        ctx = _context(_block_profile(50, 10, 30, 3.0), k_refine=6)
        refined = move_boundary(ctx, _stat(ctx, 5, 35), "shrink_left", 0, 50)
        assert refined.start == _best_left(ctx, 35, 6, 35)
        assert refined.start == 10

    def test_shrink_right_matches_exhaustive_oracle(self):
        ctx = _context(_block_profile(50, 10, 30, 3.0), k_refine=6)
        refined = move_boundary(ctx, _stat(ctx, 10, 35), "shrink_right", 0, 50)
        assert refined.end == _best_right(ctx, 10, 11, 35)
        assert refined.end == 30

    def test_strict_improvement_only(self):
        rng = np.random.default_rng(31)
        values = rng.normal(size=200)
        values[50:100] += 2.0
        ctx = _context(values)
        seg = _stat(ctx, 45, 105)
        for op in ("shrink_left", "shrink_right"):
            refined = move_boundary(ctx, seg, op, 0, 200)
            assert refined.log_p <= seg.log_p

    def test_length_one_unchanged(self):
        ctx = _context(_block_profile(20, 5, 6, 5.0))
        seg = _stat(ctx, 5, 6)
        assert move_boundary(ctx, seg, "shrink_left", 0, 20) == seg
        assert move_boundary(ctx, seg, "shrink_right", 0, 20) == seg


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
        selected = select_nonoverlapping(scan(profile, ps, noise, cfg))
        assert len(selected) >= 3
        ctx = RefineContext(ps=ps, noise=noise, cfg=cfg)
        forward = refine_all(ctx, selected)

        rev_profile = Profile(values[::-1].copy())
        rev_ps = build_prefix_sums(rev_profile)
        rev_ctx = RefineContext(ps=rev_ps, noise=noise, cfg=cfg)
        mirrored_selected = sorted((_stat(rev_ctx, n - seg.end, n - seg.start)
                                    for seg in selected), key=lambda c: c.start)
        backward = refine_all(rev_ctx, mirrored_selected)

        mirrored_back = sorted((n - seg.end, n - seg.start) for seg in backward)
        assert mirrored_back == [seg.interval for seg in forward]


class TestRefineAll:
    def test_empty(self):
        ctx = _context(np.zeros(10) + 0.5)
        assert refine_all(ctx, []) == []

    def test_single_segment_composes_four_ops(self):
        values = _block_profile(60, 20, 40, 2.5)
        ctx = _context(values)
        out = refine_all(ctx, [_stat(ctx, 24, 38)])
        assert len(out) == 1
        assert out[0].interval == (20, 40)

    def test_random_instance_monotone_and_disjoint(self):
        rng = np.random.default_rng(33)
        values = rng.normal(size=1500)
        for start in range(100, 1300, 130):
            values[start:start + int(rng.integers(3, 40))] += 1.8
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        noise = NoiseModel(1.0)
        cfg = ScanConfig()
        selected = select_nonoverlapping(scan(profile, ps, noise, cfg))
        assert len(selected) >= 5
        ctx = RefineContext(ps=ps, noise=noise, cfg=cfg)
        refined = refine_all(ctx, selected)
        assert len(refined) == len(selected)
        intervals = [seg.interval for seg in refined]
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
            assert e1 <= s2
        worst_pre = max(seg.log_p for seg in selected)
        assert max(seg.log_p for seg in refined) <= worst_pre


class TestMerge:
    def test_single_segment_unchanged(self):
        ctx = _context(_block_profile(50, 10, 30, 3.0))
        out = merge_adjacent(ctx, [_stat(ctx, 10, 30)])
        assert [seg.interval for seg in out] == [(10, 30)]

    def test_split_signal_merges(self):
        values = _block_profile(300, 100, 160, 1.0)
        ctx = _context(values)
        left, right = _stat(ctx, 100, 128), _stat(ctx, 132, 160)
        span = _stat(ctx, 100, 160)
        assert span.log_p < left.log_p and span.log_p < right.log_p  # direct computation
        out = merge_adjacent(ctx, [left, right])
        assert [seg.interval for seg in out] == [(100, 160)]

    def test_distant_segments_not_merged(self):
        values = np.zeros(400)
        values[10:30] = 3.0
        values[300:320] = 3.0
        ctx = _context(values)
        a, b = _stat(ctx, 10, 30), _stat(ctx, 300, 320)
        span = _stat(ctx, 10, 320)
        assert span.log_p > a.log_p  # the long zero gap dilutes the span
        out = merge_adjacent(ctx, [a, b])
        assert [seg.interval for seg in out] == [(10, 30), (300, 320)]

    def test_cascade_merges_to_fixpoint(self):
        values = _block_profile(200, 50, 130, 1.5)
        pieces = [(50, 75), (78, 100), (103, 130)]
        ctx = _context(values)
        out = merge_adjacent(ctx, [_stat(ctx, s, e) for s, e in pieces])
        assert [seg.interval for seg in out] == [(50, 130)]

    def test_merge_retests_left_neighbor(self):
        # [34, 40) does not merge with [42, 44), but it does with the span
        # [42, 80) that [42, 44) forms with [44, 80)
        values = np.zeros(100)
        values[34:40], values[42:44], values[44:80] = 2.2, 6.0, 3.0
        trace = []
        ctx = _context(values, trace=trace)
        a, b, c = _stat(ctx, 34, 40), _stat(ctx, 42, 44), _stat(ctx, 44, 80)
        span = _stat(ctx, 34, 44)
        assert not (span.log_p < a.log_p and span.log_p < b.log_p)
        out = merge_adjacent(ctx, [a, b, c])
        assert [seg.interval for seg in out] == [(34, 80)]
        assert [(left.interval, right.interval, span.interval)
                for _, (left, right), span in trace] == [((42, 44), (44, 80), (42, 80)),
                                                        ((34, 40), (42, 80), (34, 80))]

    def test_fixpoint_property(self):
        rng = np.random.default_rng(34)
        values = rng.normal(size=800)
        values[100:180] += 1.4
        values[500:530] += 2.0
        profile = Profile(values)
        ps = build_prefix_sums(profile)
        noise = NoiseModel(1.0)
        cfg = ScanConfig()
        selected = select_nonoverlapping(scan(profile, ps, noise, cfg))
        ctx = RefineContext(ps=ps, noise=noise, cfg=cfg)
        segs = merge_adjacent(ctx, refine_all(ctx, selected))
        for a, b in zip(segs, segs[1:]):
            span = _stat(ctx, a.start, b.end)
            assert not (span.log_p < a.log_p and span.log_p < b.log_p)

    def test_trace_records_strict_decreases(self):
        trace = []
        values = _block_profile(300, 100, 160, 1.0)
        ctx = _context(values, trace=trace)
        merge_adjacent(ctx, [_stat(ctx, 100, 128), _stat(ctx, 132, 160)])
        assert trace
        for op, before, after in trace:
            assert op == "merge"
            left, right = before
            assert after.log_p < left.log_p
            assert after.log_p < right.log_p


def _reference_refine_all(ctx, selected):
    """refine_all as a committed set: remove, refine between bisected limits, reinsert."""
    by_start = sorted(selected, key=lambda c: c.start)
    starts, ends = [seg.start for seg in by_start], [seg.end for seg in by_start]
    refined = []
    for seg in sorted(selected, key=lambda c: c.sort_key):
        i = bisect_left(starts, seg.start)
        del starts[i], ends[i]
        left, right = bisect_right(starts, seg.start), bisect_left(starts, seg.end)
        lo = ends[left - 1] if left > 0 else 0
        hi = starts[right] if right < len(starts) else ctx.ps.size - 1
        new = refinement.refine_segment(ctx, seg, lo, hi)
        assert lo <= new.start and new.end <= hi
        i = bisect_right(starts, new.start)
        starts.insert(i, new.start)
        ends.insert(i, new.end)
        refined.append(new)
    return sorted(refined, key=lambda c: c.start)


def _reference_merge_adjacent(ctx, selected):
    """merge_adjacent as an index walk that steps back after each merge."""
    segs = sorted(selected, key=lambda c: c.start)
    i = 0
    while i + 1 < len(segs):
        left, right = segs[i], segs[i + 1]
        span = _stat(ctx, left.start, right.end)
        if span.log_p < left.log_p and span.log_p < right.log_p:
            ctx._record("merge", (left, right), span)
            segs[i:i + 2] = [span]
            i = max(i - 1, 0)
        else:
            i += 1
    return segs


def _refined(values, cfg, gap_batch_min, refine=refine_all, merge=merge_adjacent):
    """repr of the trace, refined and merged segments at one batch setting."""
    profile = Profile(values)
    ps = build_prefix_sums(profile)
    noise = NoiseModel(1.0, cfg.background)
    selected = select_nonoverlapping(scan(profile, ps, noise, cfg))
    trace = []
    ctx = RefineContext(ps=ps, noise=noise, cfg=cfg, trace=trace)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refinement, "GAP_BATCH_MIN", gap_batch_min)
        refined = refine(ctx, selected)
        merged = merge(ctx, refined)
    return repr((trace, refined, merged))


def _planted(seed, n, blocks, background):
    values = np.random.default_rng(seed).normal(background, 1.0, size=n)
    for where, length, height in blocks:
        start = int(where * (n - 1))
        values[start:start + length] += height
    return values


_PROFILES = dict(
    seed=st.integers(0, 2**32 - 1), n=st.integers(20, 400),
    blocks=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(1, 120),
                              st.floats(-3.0, 3.0)), max_size=5),
    sides=st.sampled_from(["two", "one"]), background=st.sampled_from([0.0, 0.4, -0.7]),
    k_refine=st.sampled_from([2, 3, 10]))


def _config(n, sides, background, k_refine):
    return ScanConfig(w_max=min(n, 150), p_s=0.05, k_refine=k_refine, background=background,
                      sides=sides)


@settings(max_examples=40, deadline=None)
@given(**_PROFILES)
def test_batched_gap_search_matches_scalar(seed, n, blocks, sides, background, k_refine):
    # every accepted move, its z and log p bits, and the refined segments
    # must be the same whether gaps are searched in batches or one by one
    values = _planted(seed, n, blocks, background)
    cfg = _config(n, sides, background, k_refine)
    assert _refined(values, cfg, ALL_BATCHED) == _refined(values, cfg, ALL_SCALAR)


@settings(max_examples=100, deadline=None)
@given(**_PROFILES, gap_batch_min=st.sampled_from([ALL_BATCHED, ALL_SCALAR]))
# in the first two examples a neighbor's refined edge, not its selected
# one, limits a segment; in the last two a merged span then merges with its
# left neighbor
@example(seed=1835295430, n=131, blocks=[(0.2768912040453708, 88, 2.819552479296796),
                                         (0.5160685855478787, 20, -2.3048063251753783),
                                         (0.6234897555375004, 55, 0.6780198063182428)],
         sides="one", background=-0.7, k_refine=10, gap_batch_min=ALL_SCALAR)
@example(seed=3480101842, n=120, blocks=[(0.10592123670732445, 51, 0.7989596762193467),
                                         (0.38042426988653233, 3, 0.923196066410366),
                                         (0.4312267487774062, 88, 2.2039230338531954)],
         sides="two", background=0.4, k_refine=2, gap_batch_min=ALL_BATCHED)
@example(seed=2944380402, n=266, blocks=[(0.38367755426188344, 74, 2.9832596147352657)],
         sides="one", background=-0.7, k_refine=3, gap_batch_min=ALL_BATCHED)
@example(seed=3466406095, n=342, blocks=[(0.43329583344918976, 55, 0.3743183294998289),
                                         (0.7047066751610935, 37, 0.8372541086023606)],
         sides="two", background=0.0, k_refine=10, gap_batch_min=ALL_SCALAR)
def test_matches_set_based_reference(seed, n, blocks, sides, background, k_refine,
                                     gap_batch_min):
    # the list walk must accept the same moves and merges, in the same
    # order, as the committed-set refinement and step-back merge it replaced
    values = _planted(seed, n, blocks, background)
    cfg = _config(n, sides, background, k_refine)
    assert (_refined(values, cfg, gap_batch_min)
            == _refined(values, cfg, gap_batch_min, _reference_refine_all,
                        _reference_merge_adjacent))


def _reference_move(ctx, seg, op, lo, hi):
    """move_boundary with an exact log p for every boundary it looks at, from segment_stats."""
    left, outward = refinement.MOVES[op]
    sign = -1 if left == outward else 1
    limit = (lo if left else hi) if outward else (seg.end - 1 if left else seg.start + 1)

    def stat(boundary):
        start, end = (boundary, cur.end) if left else (cur.start, boundary)
        return Candidate(start, end, *segment_stats(ctx.ps, ctx.noise, start, end,
                                                    ctx.cfg.sides)[1:])

    cur = seg
    while True:
        edge = cur.start if left else cur.end
        step = min(math.ceil(cur.length / ctx.cfg.k_refine), (limit - edge) * sign)
        if step <= 0:
            return cur
        proposal = edge + sign * step
        jumped = stat(proposal)
        if jumped.log_p < cur.log_p:
            ctx._record(op, cur, jumped)
            cur = jumped
            continue
        gap = range(min(edge, proposal) + 1, max(edge, proposal))
        best = None
        for boundary in gap if left else reversed(gap):
            scored = stat(boundary)
            if best is None or scored.log_p < best.log_p:
                best = scored
        if best is not None and best.log_p < cur.log_p:
            ctx._record(op, cur, best)
            cur = best
        return cur


def _log_p_everywhere_refine_all(ctx, selected):
    """refine_all without _quiet, every move through _reference_move."""
    segs = sorted(selected, key=lambda c: c.start)
    for i in sorted(range(len(segs)), key=lambda i: segs[i].sort_key):
        lo = segs[i - 1].end if i > 0 else 0
        hi = segs[i + 1].start if i < len(segs) - 1 else ctx.ps.size - 1
        seg, quiet = segs[i], 0
        for op in cycle(refinement.MOVES):
            moved = _reference_move(ctx, seg, op, lo, hi)
            quiet = quiet + 1 if moved.interval == seg.interval else 0
            seg = moved
            if quiet == len(refinement.MOVES):
                break
        segs[i] = seg
    return segs


def _log_p_everywhere_merge(ctx, selected):
    """merge_adjacent with the span's exact log p always computed."""
    merged = []
    for right in sorted(selected, key=lambda c: c.start):
        while merged:
            left = merged[-1]
            _, z, log_p = segment_stats(ctx.ps, ctx.noise, left.start, right.end,
                                        ctx.cfg.sides)
            if not (log_p < left.log_p and log_p < right.log_p):
                break
            span = Candidate(left.start, right.end, z, log_p)
            ctx._record("merge", (left, right), span)
            merged.pop()
            right = span
        merged.append(right)
    return merged


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 240),
       dof=st.sampled_from([1.0, 2.0, 3.0]), scale=st.sampled_from([0.3, 1.0, 4.0]),
       sides=st.sampled_from(["two", "one"]), background=st.sampled_from([0.4, -0.7]),
       k_refine=st.sampled_from([2, 3, 10]),
       gap_batch_min=st.sampled_from([ALL_BATCHED, ALL_SCALAR]))
def test_matches_log_p_everywhere_reference(seed, n, dof, scale, sides, background, k_refine,
                                            gap_batch_min):
    # skipping log p below the z-key floor must not change any accepted
    # move, its z and log p bits, or any refined or merged segment. With
    # p_s = 1 every window is a candidate, so one-sided selections include
    # segments of negative z, and Student-t noise (Cauchy at dof 1) puts
    # keys past the kernel's tail switch at 37
    rng = np.random.default_rng(seed)
    values = background + scale * rng.standard_t(dof, size=n)
    cfg = ScanConfig(w_max=min(n, 60), p_s=1.0, k_refine=k_refine, background=background,
                     sides=sides)
    assert (_refined(values, cfg, gap_batch_min)
            == _refined(values, cfg, gap_batch_min, _log_p_everywhere_refine_all,
                        _log_p_everywhere_merge))


def _nothing_quiet(ctx, segs):
    # clear no segment, so every segment runs refine_segment
    return [False] * len(segs)


@settings(max_examples=100, deadline=None)
@given(**_PROFILES, gap_batch_min=st.sampled_from([ALL_BATCHED, ALL_SCALAR]))
def test_quiet_segments_match_full_refinement(seed, n, blocks, sides, background, k_refine,
                                              gap_batch_min):
    # skipping the segments _quiet clears must not change any
    # accepted move, its z and log p bits, or any refined or merged segment
    values = _planted(seed, n, blocks, background)
    cfg = _config(n, sides, background, k_refine)
    skipped = _refined(values, cfg, gap_batch_min)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refinement, "_quiet", _nothing_quiet)
        assert _refined(values, cfg, gap_batch_min) == skipped


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(20, 240),
       dof=st.sampled_from([1.0, 2.0, 3.0]), scale=st.sampled_from([0.3, 1.0, 4.0]),
       sides=st.sampled_from(["two", "one"]), background=st.sampled_from([0.0, 0.4, -0.7]),
       k_refine=st.sampled_from([2, 3, 10]),
       gap_batch_min=st.sampled_from([ALL_BATCHED, ALL_SCALAR]))
def test_cleared_segment_stays_between_any_limits(seed, n, dof, scale, sides, background,
                                                   k_refine, gap_batch_min):
    # refine_segment returns a segment _quiet clears as it is, for any lo in
    # [0, start] and hi in [end, n]: the profile edges, the segment's own
    # edges and random limits between. The segments are the selected ones
    # and random intervals, which a shrink can improve. Student-t noise
    # (Cauchy at dof 1) with p_s = 1 selects segments of every key,
    # negative one-sided z too
    rng = np.random.default_rng(seed)
    values = background + scale * rng.standard_t(dof, size=n)
    profile = Profile(values)
    ps = build_prefix_sums(profile)
    noise = NoiseModel(1.0, background)
    cfg = ScanConfig(w_max=min(n, 60), p_s=1.0, k_refine=k_refine, background=background,
                     sides=sides)
    ctx = RefineContext(ps=ps, noise=noise, cfg=cfg)
    segs = select_nonoverlapping(scan(profile, ps, noise, cfg))
    for start in rng.integers(0, n, size=20).tolist():
        segs.append(_stat(ctx, start, int(rng.integers(start + 1, n + 1))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(refinement, "GAP_BATCH_MIN", gap_batch_min)
        for seg, quiet in zip(segs, refinement._quiet(ctx, segs)):
            if not quiet:
                continue
            limits = [(0, n), (seg.start, seg.end)]
            limits += zip(rng.integers(0, seg.start + 1, size=3).tolist(),
                          rng.integers(seg.end, n + 1, size=3).tolist())
            for lo, hi in limits:
                assert refinement.refine_segment(ctx, seg, lo, hi) is seg, (seg, lo, hi)


def _reference_quiet(ctx, segs):
    """_quiet from segment_stats: every first-step boundary of the four moves,
    with no neighbor in the way, and an exact log p for each."""
    n, k, sides = ctx.ps.size - 1, ctx.cfg.k_refine, ctx.cfg.sides
    out = []
    for seg in segs:
        s, e = seg.start, seg.end
        step = -(-seg.length // k)
        boundaries = [(s - d, e) for d in range(1, min(step, s) + 1)]
        boundaries += [(s, e + d) for d in range(1, min(step, n - e) + 1)]
        for d in range(1, min(step, seg.length - 1) + 1):
            boundaries += [(s + d, e), (s, e - d)]
        out.append(not any(segment_stats(ctx.ps, ctx.noise, a, b, sides)[2] < seg.log_p
                           for a, b in boundaries))
    return out


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 240),
       dof=st.sampled_from([1.0, 3.0]), scale=st.sampled_from([0.3, 1.0, 4.0]),
       sides=st.sampled_from(["two", "one"]), background=st.sampled_from([0.0, 0.4, -0.7]),
       k_refine=st.sampled_from([2, 3, 10]))
def test_quiet_matches_scalar_reference(seed, n, dof, scale, sides, background, k_refine):
    # _quiet clears exactly the segments no first-step boundary improves,
    # not a subset of them. The segments are the selected ones, intervals
    # at both profile edges, length-1 intervals, whose shrink room is 0, and
    # random intervals; with p_s = 1 one-sided selections include segments
    # of negative z
    rng = np.random.default_rng(seed)
    values = background + scale * rng.standard_t(dof, size=n)
    profile = Profile(values)
    ps = build_prefix_sums(profile)
    noise = NoiseModel(1.0, background)
    cfg = ScanConfig(w_max=min(n, 60), p_s=1.0, k_refine=k_refine, background=background,
                     sides=sides)
    ctx = RefineContext(ps=ps, noise=noise, cfg=cfg)
    segs = select_nonoverlapping(scan(profile, ps, noise, cfg))
    intervals = [(0, n), (0, int(rng.integers(1, n + 1))), (int(rng.integers(0, n)), n)]
    intervals += [(i, i + 1) for i in rng.integers(0, n, size=5).tolist()]
    for start in rng.integers(0, n, size=10).tolist():
        intervals.append((start, int(rng.integers(start + 1, n + 1))))
    segs += [_stat(ctx, start, end) for start, end in intervals]
    assert refinement._quiet(ctx, segs) == _reference_quiet(ctx, segs)


@pytest.mark.parametrize("pieces", [[(10, 30), (29, 40)], [(20, 40), (0, 50)],
                                    [(5, 10), (5, 12)]])
def test_overlapping_input_raises(pieces):
    ctx = _context(np.zeros(60) + 0.5)
    with pytest.raises(ValidationError, match="overlap"):
        refine_all(ctx, [_stat(ctx, s, e) for s, e in pieces])


class TestQuietMoveStop:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def counted(ctx, seg, op, lo, hi):
            calls.append(op)
            return move_boundary(ctx, seg, op, lo, hi)

        monkeypatch.setattr(refinement, "move_boundary", counted)
        return calls

    def test_optimal_segment_makes_four_moves(self, calls):
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        seg = _stat(ctx, 10, 30)
        assert refinement.refine_segment(ctx, seg, 0, 40) == seg
        assert calls == ["expand_left", "expand_right", "shrink_left", "shrink_right"]

    def test_optimal_segment_skips_every_move(self, calls):
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        seg = _stat(ctx, 10, 30)
        assert refine_all(ctx, [seg]) == [seg]
        assert calls == []

    @staticmethod
    def _neighbors(a_end, b_start):
        # a = [10, a_end) on a block of -5.0 over [10, 30); b = [b_start, 54)
        # on a run of 1.0 over [30, 54), with nothing for it to the right. a
        # has the better p and refines first, to [10, 30).
        values = np.zeros(70)
        values[10:30], values[30:54] = -5.0, 1.0
        ctx = _context(values)
        a, b = _stat(ctx, 10, a_end), _stat(ctx, b_start, 54)
        assert a.log_p < b.log_p
        return ctx, a, b

    @pytest.fixture
    def refine_calls(self, monkeypatch):
        refine_calls = []
        refine_segment = refinement.refine_segment

        def spied(ctx, seg, lo, hi):
            refine_calls.append(seg.interval)
            return refine_segment(ctx, seg, lo, hi)

        monkeypatch.setattr(refinement, "refine_segment", spied)
        return refine_calls

    def test_quiet_segment_refines_once_its_limit_moves_away(self, refine_calls):
        # b touches a = [10, 34), so no move of b can change it yet, but b
        # would grow left into [30, 34) with no neighbor in the way, so it
        # is not cleared; a shrinks to [10, 30), and b, given the room,
        # grows left
        ctx, a, b = self._neighbors(34, 34)
        assert refinement._quiet(ctx, [a, b]) == [False, False]
        out = refine_all(ctx, [a, b])
        assert [seg.interval for seg in out] == [(10, 30), (30, 54)]
        assert refine_calls == [(10, 34), (34, 54)]

    def test_quiet_segment_stays_when_its_limit_moves_closer(self, refine_calls):
        # b = [30, 54) is quiet with a = [10, 28) ending 2 points away; a
        # grows to [10, 30), and b, cleared whatever room it has, is kept
        # without a move
        ctx, a, b = self._neighbors(28, 30)
        assert refinement._quiet(ctx, [a, b]) == [False, True]
        out = refine_all(ctx, [a, b])
        assert [seg.interval for seg in out] == [(10, 30), (30, 54)]
        assert out[1] is b
        assert refine_calls == [(10, 28)]

    def test_quiet_segment_stays_when_it_had_a_whole_step_of_room(self, refine_calls):
        # b = [40, 64) on a run of 1.0 had 7 points of room to a = [10, 33),
        # more than its step of 3; a shrinks to [10, 30), and the 3 points it
        # frees lie beyond anything b's first moves could reach
        values = np.zeros(80)
        values[10:30], values[40:64] = -5.0, 1.0
        ctx = _context(values)
        a, b = _stat(ctx, 10, 33), _stat(ctx, 40, 64)
        assert refinement._quiet(ctx, [a, b]) == [False, True]
        out = refine_all(ctx, [a, b])
        assert [seg.interval for seg in out] == [(10, 30), (40, 64)]
        assert out[1] is b
        assert refine_calls == [(10, 33)]

    def test_first_move_change_then_four_quiet_moves(self, calls):
        # expand_left recovers the planted start; the next four moves find
        # nothing, where a second full pass would have made eight calls
        ctx = _context(_block_profile(40, 10, 30, 3.0))
        assert refinement.refine_segment(ctx, _stat(ctx, 14, 30), 0, 40).interval == (10, 30)
        assert calls == ["expand_left", "expand_right", "shrink_left", "shrink_right",
                         "expand_left"]
