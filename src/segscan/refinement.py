"""Boundary refinement and merging of selected segments.

Each selected segment is polished by four local moves: expand left, expand
right, shrink left, shrink right, all run by one kernel (move_boundary)
that is told which edge moves and in which direction. A move proposes
shifting one boundary by ceil(L/K) (L the current length, K the refinement
divisor, default 10). If the proposal strictly lowers the p-value it is
accepted and the move repeats; otherwise every boundary strictly between
the proposal and the current boundary is evaluated, the best is accepted if
it strictly improves, and the move ends. A gap of GAP_BATCH_MIN or more
boundaries is scored in one pass over a prefix-sum slice with the batch
z and log p kernels, which give the scalar kernels' values bit for bit;
shorter gaps are scored one boundary at a time. Proposals never cross a
committed neighbor or the profile edge; they are truncated to the nearest
legal boundary. The moves run in a cycle and stop once four in a row leave
the segment unchanged. Most selected segments never move: before the walk,
one batch over all of them (_quiet_limits) scores every boundary their
first four moves would score, and a segment none of those improves is kept
as it is, without running the moves, while its limits give it no more room
than the batch checked.

The segments are kept in one list sorted by start. They are disjoint and a
refined segment stays between its neighbors, so the list never reorders,
and the committed neighbors of segment i are entries i-1 and i+1. Segments
refine in ascending p order, so stronger segments claim contested
territory first. After refinement, consecutive segments merge whenever the
spanning segment (gap included) has a smaller p-value than both members,
repeating until no merge applies. Every accepted move strictly decreases a
p-value, which bounds the whole process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import cycle

import numpy as np

from .errors import ValidationError
from .scanning import Candidate, ScanConfig
from .selection import BoundarySet
from .stats import (NoiseModel, PrefixSums, log_p_value_batch, segment_stats,
                    z_statistic_batch)


@dataclass
class RefineContext:
    """Shared read-only inputs of refinement and merging.

    ``trace``, when supplied, accumulates one entry per accepted move:
    ("expand_left"|..., before, after) for boundary moves and
    ("merge", (left, right), span) for merges.
    """

    ps: PrefixSums
    noise: NoiseModel
    cfg: ScanConfig
    # never read here; kept only because segbench's stage replay still
    # inserts the selected intervals into it
    boundaries: BoundarySet = field(default_factory=BoundarySet)
    trace: list | None = None

    def stat(self, start: int, end: int) -> Candidate:
        """Candidate statistics for [start, end) from prefix sums."""
        _, z, log_p = segment_stats(self.ps, self.noise, start, end, self.cfg.sides)
        return Candidate(start, end, z, log_p)

    def _record(self, op: str, before, after) -> None:
        if self.trace is not None:
            self.trace.append((op, before, after))


#: Boundary moves in the order refine_segment applies them, each mapped to
#: (moves the left edge, moves outward).
MOVES = {
    "expand_left": (True, True),
    "expand_right": (False, True),
    "shrink_left": (True, False),
    "shrink_right": (False, False),
}


#: Gaps of at least this many boundaries are scored in one batch, shorter
#: ones one boundary at a time: a scalar evaluation costs ~2 us and a batch
#: ~35 us of numpy call overhead, so the two break even at 16-20 boundaries
#: (refine time on dense profiles is flat for values 16-24).
GAP_BATCH_MIN = 16


def _search_gap(ctx: RefineContext, cur: Candidate, lo: int, hi: int,
                left: bool) -> Candidate:
    """Best segment with its moving edge at a boundary in [lo, hi), lo < hi.

    Boundaries are scored outermost first and only a strictly better p
    replaces the best so far, so ties keep the longer segment; in a batch,
    argmin's first minimum is that same choice.
    """
    if hi - lo < GAP_BATCH_MIN:
        best = None
        for boundary in range(lo, hi) if left else range(hi - 1, lo - 1, -1):
            start, end = (boundary, cur.end) if left else (cur.start, boundary)
            _, z, log_p = segment_stats(ctx.ps, ctx.noise, start, end, ctx.cfg.sides)
            if best is None or log_p < best[3]:
                best = (start, end, z, log_p)
        return Candidate(*best)
    cum = ctx.ps.cumulative
    if left:
        boundary = np.arange(lo, hi)
        sums = cum[cur.end] - cum[lo:hi]
        n = cur.end - boundary
    else:
        boundary = np.arange(hi - 1, lo - 1, -1)
        sums = cum[lo:hi][::-1] - cum[cur.start]
        n = boundary - cur.start
    z = z_statistic_batch(sums, n, ctx.noise)
    log_p = log_p_value_batch(z, ctx.cfg.sides)
    j = int(np.argmin(log_p))
    start, end = (int(boundary[j]), cur.end) if left else (cur.start, int(boundary[j]))
    return Candidate(start, end, float(z[j]), float(log_p[j]))


def move_boundary(ctx: RefineContext, seg: Candidate, op: str, lo: int,
                  hi: int) -> Candidate:
    """Move one boundary of ``seg`` while the p-value strictly improves.

    ``op`` names the boundary and direction (a key of MOVES). Outward moves
    stop at ``lo`` (left edge) or ``hi`` (right edge): the end of the left
    neighbor or 0, and the start of the right neighbor or the profile
    length. Inward moves keep at least one point. The skipped gap is
    searched by _search_gap.
    """
    left, outward = MOVES[op]
    sign = -1 if left == outward else 1
    if not outward:
        limit = seg.end - 1 if left else seg.start + 1
    else:
        limit = lo if left else hi

    cur = seg
    while True:
        edge = cur.start if left else cur.end
        step = min(math.ceil(cur.length / ctx.cfg.k_refine), (limit - edge) * sign)
        if step <= 0:
            break
        proposal = edge + sign * step
        start, end = (proposal, cur.end) if left else (cur.start, proposal)
        _, z, log_p = segment_stats(ctx.ps, ctx.noise, start, end, ctx.cfg.sides)
        if log_p < cur.log_p:
            jumped = Candidate(start, end, z, log_p)
            ctx._record(op, cur, jumped)
            cur = jumped
            continue
        lo, hi = min(edge, proposal) + 1, max(edge, proposal)
        best = _search_gap(ctx, cur, lo, hi, left) if lo < hi else None
        if best is not None and best.log_p < cur.log_p:
            ctx._record(op, cur, best)
            cur = best
        break
    return cur


def refine_segment(ctx: RefineContext, seg: Candidate, lo: int, hi: int) -> Candidate:
    """Cycle the four boundary moves within [lo, hi) until four in a row change nothing.

    A move's result depends only on the interval it starts from, because
    the limits are fixed while one segment refines. Once every move has
    left the interval unchanged in a row, any further move would too.
    """
    quiet = 0
    for op in cycle(MOVES):
        moved = move_boundary(ctx, seg, op, lo, hi)
        quiet = quiet + 1 if moved.interval == seg.interval else 0
        seg = moved
        if quiet == len(MOVES):
            return seg


def _quiet_limits(ctx: RefineContext, segs: list[Candidate]) -> tuple[list[int], list[int]]:
    """Limits (lo_ok, hi_ok) between which refine_segment leaves each segment as it is.

    ``segs`` is disjoint and sorted by start. One batch scores, for every
    segment [s, e) between its neighbors (lo the previous end or 0, hi the
    next start or n) and for each of the four moves, every boundary the
    move's first step scores: the jump and the skipped gap, at distance
    1..step from the moving edge, with step = min(ceil(L/K), room) and room
    s - lo, hi - e, or L - 1 for a shrink. A move changes the segment only
    if one of them has a strictly smaller log p. Where none does, every
    move is quiet, and stays quiet between limits that let each move score
    no boundary beyond these: lo' >= lo and hi' <= hi, or any limit on a
    side where room already held a whole step. Those bounds are returned;
    a segment some move can change gets lo_ok = n + 1, which no limit
    meets. At most 4 * sum(ceil(L/K)) boundaries are scored.
    """
    m, n = len(segs), ctx.ps.n
    start = np.fromiter((seg.start for seg in segs), np.int64, m)
    end = np.fromiter((seg.end for seg in segs), np.int64, m)
    lo = np.concatenate(([0], end[:-1]))
    hi = np.concatenate((start[1:], [n]))
    step = -((start - end) // ctx.cfg.k_refine)
    parts = []
    for left, outward in MOVES.values():
        sign = -1 if left == outward else 1
        room = (start - lo if left else hi - end) if outward else end - start - 1
        count = np.minimum(step, room)
        which = np.repeat(np.arange(m), count)
        # 1..count over each segment's run of boundaries
        dist = np.arange(1, which.size + 1) - np.repeat(np.cumsum(count) - count, count)
        edge = (start if left else end)[which] + sign * dist
        parts.append((which, edge, end[which]) if left else (which, start[which], edge))
    which, first, last = (np.concatenate(column) for column in zip(*parts))
    cum = ctx.ps.cumulative
    z = z_statistic_batch(cum[last] - cum[first], last - first, ctx.noise)
    log_p = np.fromiter((seg.log_p for seg in segs), np.float64, m)
    lo_ok = np.where(start - lo < step, lo, 0)
    hi_ok = np.where(hi - end < step, hi, n)
    lo_ok[which[log_p_value_batch(z, ctx.cfg.sides) < log_p[which]]] = n + 1
    return lo_ok.tolist(), hi_ok.tolist()


def refine_all(ctx: RefineContext, selected: list[Candidate]) -> list[Candidate]:
    """Refine every selected segment, best p-value first.

    ``selected`` must be disjoint (ValidationError otherwise). Each segment
    refines between its neighbors in start order as they stand at that
    moment, refined or not. A segment whose limits at that moment lie within
    the ones _quiet_limits found for it is kept as it is, without running
    refine_segment, which would return it unchanged. Returns the refined
    segments sorted by start.
    """
    segs = sorted(selected, key=lambda c: c.start)
    for a, b in zip(segs, segs[1:]):
        if a.end > b.start:
            raise ValidationError(f"segments [{a.start}, {a.end}) and [{b.start}, {b.end}) overlap")
    if not segs:
        return segs
    lo_ok, hi_ok = _quiet_limits(ctx, segs)
    last = len(segs) - 1
    for i in sorted(range(len(segs)), key=lambda i: segs[i].sort_key):
        lo = segs[i - 1].end if i > 0 else 0
        hi = segs[i + 1].start if i < last else ctx.ps.n
        if lo >= lo_ok[i] and hi <= hi_ok[i]:
            continue
        segs[i] = refine_segment(ctx, segs[i], lo, hi)
    return segs


def merge_adjacent(ctx: RefineContext, selected: list[Candidate]) -> list[Candidate]:
    """Merge consecutive segments while the spanning segment beats both.

    The span runs from the first segment's left boundary to the second's
    right boundary and includes any gap points. After a merge the new
    segment is re-tested against its left neighbor, then its right one; the
    pass ends at a fixpoint where no consecutive pair can merge. Returns
    the segments sorted by start.
    """
    merged: list[Candidate] = []
    for right in sorted(selected, key=lambda c: c.start):
        while merged:
            left = merged[-1]
            span = ctx.stat(left.start, right.end)
            if not (span.log_p < left.log_p and span.log_p < right.log_p):
                break
            ctx._record("merge", (left, right), span)
            merged.pop()
            right = span
        merged.append(right)
    return merged
