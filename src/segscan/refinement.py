"""Boundary refinement and merging of selected segments.

Each selected segment is polished by four local moves: expand left, expand
right, shrink left, shrink right, all run by one kernel (move_boundary)
that is told which edge moves and in which direction. A move proposes
shifting one boundary by ceil(L/K) (L the current length, K the refinement
divisor, default 10). If the proposal strictly lowers the p-value it is
accepted and the move repeats; otherwise every boundary strictly between
the proposal and the current boundary is evaluated, the best is accepted if
it strictly improves, and the move ends. Proposals never cross a committed
neighbor or the profile edge; they are truncated to the nearest legal
boundary. The moves run in a cycle and stop once four in a row leave the
segment unchanged. Most selected segments never move: before the walk, one
batch over all of them (_quiet) scores every boundary their first four
moves could score with no neighbor in the way, and a segment none of those
improves is kept as it is, without running the moves. A neighbor only
shortens a step, so such a segment would come back unchanged whatever room
its neighbors leave it.

Every comparison with a known p-value compares z keys first (_key): |z|
for a two-sided test, z for a one-sided one. log_p_value does not increase
as the key grows, so a boundary whose key lies below _floor(k), k the key
of the segment it must beat, cannot have a strictly smaller log p, and its
log p is never computed. Only the boundaries at or above the floor get an
exact log p, and that exact value alone decides. A gap of GAP_BATCH_MIN or
more boundaries is scored in one pass over a prefix-sum slice with the
batch z and log p kernels, which give the scalar kernels' values bit for
bit; shorter gaps are scored one boundary at a time, from the gap's prefix
sums as Python floats. Jumps and merges get z from z_statistic, as
segment_stats does; only the short-gap loop writes its formula out, in its
order, so the values are the same bit for bit without a function call per
boundary.

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
import operator
from dataclasses import dataclass, field
from itertools import count, cycle

import numpy as np

from .scanning import Candidate, ScanConfig, _check_background, _check_start_order
from .selection import BoundarySet
from .stats import NoiseModel, log_p_value, log_p_value_batch, z_statistic, z_statistic_batch


@dataclass
class RefineContext:
    """Shared read-only inputs of refinement and merging.

    ``trace``, when supplied, accumulates one entry per accepted move:
    ("expand_left"|..., before, after) for boundary moves and
    ("merge", (left, right), span) for merges. A ``noise`` whose background
    differs from ``cfg.background`` raises ValidationError.
    """

    ps: np.ndarray
    noise: NoiseModel
    cfg: ScanConfig
    # never read here; kept only because segbench's stage replay still
    # inserts the selected intervals into it
    boundaries: BoundarySet = field(default_factory=BoundarySet)
    trace: list | None = None

    def __post_init__(self):
        _check_background(self.noise, self.cfg)

    def _record(self, op: str, before, after) -> None:
        if self.trace is not None:
            self.trace.append((op, before, after))


def _key(sides: str):
    """The z key as a function of a float or an array: |z| two-sided, z one-sided.

    log_p_value does not increase as the key grows.
    """
    return abs if sides == "two" else operator.pos


def _floor(key):
    """A z key below this has a log p no smaller than that of ``key`` itself.

    log_p_value is non-increasing in the key up to rounding of about an ulp
    of log p; a relative 1e-9 of the key moves log p by orders of magnitude
    more than that, everywhere. Works on a float or an array.
    """
    return key - 1e-9 * (1.0 + abs(key))


#: Boundary moves in the order refine_segment applies them, each mapped to
#: (moves the left edge, moves outward).
MOVES = {
    "expand_left": (True, True),
    "expand_right": (False, True),
    "shrink_left": (True, False),
    "shrink_right": (False, False),
}
# Per move of MOVES, how far one step of distance d moves the first and the
# last edge, in units of d: the moving edge goes out or in, the other stays.
_FIRST_SIGN, _LAST_SIGN = np.array([
    ((-1 if outward else 1, 0) if left else (0, 1 if outward else -1))
    for left, outward in MOVES.values()
]).T


#: Gaps of at least this many boundaries are scored in one batch, shorter
#: ones one boundary at a time. Timed in-process on a 2-vCPU x86-64 host,
#: the scalar loop costs ~0.17 us per boundary whose key lies below the
#: floor and ~1 us per gap; a batch ~7 us per gap, plus ~17 us for the log p
#: kernel once any boundary reaches the floor. They break even near 35-60
#: boundaries. On the dense-broad benchmark tracks at w_max 3000, where
#: most gap boundaries sit in gaps of 64 or more, refine + merge is flat
#: from 32 to 96 (11.8-12.1 ms) and takes 25 ms when every gap is scored
#: one boundary at a time. At the default w_max and K few gaps reach 64
#: boundaries.
GAP_BATCH_MIN = 64


def _search_gap(ctx: RefineContext, cur: Candidate, lo: int, hi: int,
                left: bool) -> Candidate | None:
    """Best segment with its moving edge at a boundary in [lo, hi), if it beats ``cur``.

    Returns None when no boundary in the gap gives a strictly smaller p
    than ``cur``. Boundaries are scored outermost first and only a strictly
    better p replaces the best so far, so ties keep the longer segment; in
    a batch, argmin's first minimum is that same choice. A boundary gets a
    log p only if its key reaches the floor of the best so far's key.
    """
    sides = ctx.cfg.sides
    key = _key(sides)
    floor = _floor(key(cur.z))
    ps = ctx.ps
    # the gap's segments share the fixed edge ``anchor``; the boundaries go
    # outermost (longest segment) first
    anchor = cur.end if left else cur.start
    if hi - lo < GAP_BATCH_MIN:
        # the prefix sums at the boundaries as Python floats, each segment's
        # sum one subtraction of two of them, as in segment_stats
        fixed, edges, sqrt = ps.item(anchor), ps[lo:hi].tolist(), math.sqrt
        if left:
            boundaries = zip(count(anchor - lo, -1), edges)
        else:
            boundaries = zip(count(hi - 1 - anchor, -1), reversed(edges))
        background, sigma = ctx.noise.background, ctx.noise.sigma
        best, log_p_best = None, cur.log_p
        for n, edge in boundaries:
            total = fixed - edge if left else edge - fixed
            # z_statistic's operations, in its order
            z = (total / n - background) * sqrt(n) / sigma
            if key(z) < floor:
                continue
            log_p = log_p_value(z, sides)
            if log_p < log_p_best:
                best, log_p_best = (n, z), log_p
                floor = _floor(key(z))
        if best is None:
            return None
        n, z = best
    else:
        sums = ps[anchor] - ps[lo:hi] if left else ps[lo:hi][::-1] - ps[anchor]
        longest = anchor - lo if left else hi - 1 - anchor
        lengths = np.arange(longest, longest - (hi - lo), -1)
        z = z_statistic_batch(sums, lengths, ctx.noise)
        rows = np.flatnonzero(key(z) >= floor)
        if not rows.size:
            return None
        log_p = log_p_value_batch(z[rows], sides)
        j = int(np.argmin(log_p))
        if not log_p[j] < cur.log_p:
            return None
        log_p_best, j = float(log_p[j]), int(rows[j])
        n, z = int(lengths[j]), float(z[j])
    start, end = (anchor - n, anchor) if left else (anchor, anchor + n)
    return Candidate(start, end, z, log_p_best)


def move_boundary(ctx: RefineContext, seg: Candidate, op: str, lo: int,
                  hi: int) -> Candidate:
    """Move one boundary of ``seg`` while the p-value strictly improves.

    ``op`` names the boundary and direction (a key of MOVES). Outward moves
    stop at ``lo`` (left edge) or ``hi`` (right edge): the end of the left
    neighbor or 0, and the start of the right neighbor or the profile
    length. Inward moves keep at least one point. The jump gets a log p
    only if its key reaches the floor of the current segment's; the
    skipped gap is searched by _search_gap.
    """
    left, outward = MOVES[op]
    sign = -1 if left == outward else 1
    if not outward:
        limit = seg.end - 1 if left else seg.start + 1
    else:
        limit = lo if left else hi
    item, noise = ctx.ps.item, ctx.noise
    sides, k_refine = ctx.cfg.sides, ctx.cfg.k_refine
    key = _key(sides)

    cur = seg
    floor = _floor(key(cur.z))
    while True:
        edge = cur.start if left else cur.end
        step = min(math.ceil((cur.end - cur.start) / k_refine), (limit - edge) * sign)
        if step <= 0:
            break
        proposal = edge + sign * step
        start, end = (proposal, cur.end) if left else (cur.start, proposal)
        z = z_statistic(item(end) - item(start), end - start, noise)
        if not key(z) < floor:
            log_p = log_p_value(z, sides)
            if log_p < cur.log_p:
                jumped = Candidate(start, end, z, log_p)
                ctx._record(op, cur, jumped)
                cur, floor = jumped, _floor(key(z))
                continue
        lo, hi = min(edge, proposal) + 1, max(edge, proposal)
        best = _search_gap(ctx, cur, lo, hi, left) if lo < hi else None
        if best is not None:
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


def _quiet(ctx: RefineContext, segs: list[Candidate]) -> list[bool]:
    """Whether refine_segment leaves each segment as it is, between any neighbors.

    One batch scores, for every segment [s, e) and each of the four moves,
    every boundary the move's first step scores with no neighbor in the
    way: the jump and the skipped gap, at distance 1..step from the moving
    edge, with step = min(ceil(L/K), room) and room s or n - e outward,
    L - 1 for a shrink. A neighbor only shortens a step, so between any
    limits a move's first step scores a subset of these. A move changes
    the segment only if one of them has a strictly smaller log p, which
    only a boundary whose key reaches the segment's floor can have, so only
    those get a log p. A segment none of them improves is cleared: every
    move leaves it as it is, wherever its neighbors stand. At most
    4 * sum(ceil(L/K)) boundaries get a z.

    The boundaries are built in one pass over a (4, m) layout, one row per
    move and one column per segment: each cell holds a run of boundaries at
    distance 1..step, and a per-move sign moves the first or the last edge
    by that distance. The number of numpy calls does not grow with m.
    """
    m, n, sides = len(segs), ctx.ps.size - 1, ctx.cfg.sides
    key = _key(sides)
    start = np.fromiter((seg.start for seg in segs), np.int64, m)
    end = np.fromiter((seg.end for seg in segs), np.int64, m)
    length = end - start
    # row r of the (4, m) layout is the r-th move of MOVES, column j segment
    # j: how far the moving edge can go with no neighbor in the way, read
    # from the move's flags as _FIRST_SIGN and _LAST_SIGN are
    room = np.stack([(start if left else n - end) if outward else length - 1
                     for left, outward in MOVES.values()])
    count = np.minimum(-(-length // ctx.cfg.k_refine), room).ravel()
    cell = np.repeat(np.arange(count.size), count)
    move, which = np.divmod(cell, m)
    # 1..count over each (move, segment) run of boundaries
    dist = np.arange(1, cell.size + 1) - np.repeat(np.cumsum(count) - count, count)
    first = start[which] + _FIRST_SIGN[move] * dist
    last = end[which] + _LAST_SIGN[move] * dist
    z = z_statistic_batch(ctx.ps[last] - ctx.ps[first], last - first, ctx.noise)
    floor = _floor(key(np.fromiter((seg.z for seg in segs), np.float64, m)))
    rows = np.flatnonzero(key(z) >= floor[which])
    log_p = np.fromiter((seg.log_p for seg in segs), np.float64, m)
    better = log_p_value_batch(z[rows], sides) < log_p[which[rows]]
    quiet = np.ones(m, dtype=bool)
    quiet[which[rows[better]]] = False
    return quiet.tolist()


def refine_all(ctx: RefineContext, selected: list[Candidate]) -> list[Candidate]:
    """Refine every selected segment, best p-value first.

    ``selected`` must be disjoint and in start order (ValidationError
    otherwise). Each segment refines between its neighbors as they stand at
    that moment, refined or not. The segments _quiet clears are kept as they
    are, without running refine_segment, which would return them unchanged.
    Returns the refined segments in start order.
    """
    segs = list(selected)
    _check_start_order(segs)
    quiet = _quiet(ctx, segs)
    last = len(segs) - 1
    for i in sorted((i for i, q in enumerate(quiet) if not q), key=lambda i: segs[i].sort_key):
        lo = segs[i - 1].end if i > 0 else 0
        hi = segs[i + 1].start if i < last else ctx.ps.size - 1
        segs[i] = refine_segment(ctx, segs[i], lo, hi)
    return segs


def merge_adjacent(ctx: RefineContext, selected: list[Candidate]) -> list[Candidate]:
    """Merge consecutive segments while the spanning segment beats both.

    The span runs from the first segment's left boundary to the second's
    right boundary and includes any gap points. After a merge the new
    segment is re-tested against its left neighbor, then its right one; the
    pass ends at a fixpoint where no consecutive pair can merge. The span
    beats both iff it beats the better member, and it gets a log p only if
    its key reaches the floor of the better member's. ``selected`` must be
    disjoint and in start order (ValidationError otherwise), as is the result.
    """
    _check_start_order(selected)
    item, noise = ctx.ps.item, ctx.noise
    sides = ctx.cfg.sides
    key = _key(sides)
    merged: list[Candidate] = []
    for right in selected:
        while merged:
            left = merged[-1]
            better = left if left.log_p <= right.log_p else right
            start, end = left.start, right.end
            z = z_statistic(item(end) - item(start), end - start, noise)
            if key(z) < _floor(key(better.z)):
                break
            log_p = log_p_value(z, sides)
            if not log_p < better.log_p:
                break
            span = Candidate(start, end, z, log_p)
            ctx._record("merge", (left, right), span)
            merged.pop()
            right = span
        merged.append(right)
    return merged
