"""Boundary refinement and merging of selected segments.

Each selected segment is polished by four local moves: expand left, expand
right, shrink left, shrink right, all run by one kernel (move_boundary)
that is told which edge moves and in which direction. A move proposes shifting one boundary by
ceil(L/K) (L the current length, K the refinement divisor, default 10). If
the proposal strictly lowers the p-value it is accepted and the move
repeats; otherwise every boundary strictly between the proposal and the
current boundary is evaluated, the best is accepted if it strictly improves,
and the move ends. Proposals never cross a committed neighbor or the profile
edge; they are truncated to the nearest legal boundary.

Segments refine in ascending p order, so stronger segments claim contested
territory first. After refinement, consecutive segments merge whenever the
spanning segment (gap included) has a smaller p-value than both members,
repeating until no merge applies. Every accepted move strictly decreases a
p-value, which bounds the whole process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .scanning import Candidate, ScanConfig
from .selection import BoundarySet
from .stats import NoiseModel, PrefixSums, log_p_value, z_statistic


@dataclass
class RefineContext:
    """Shared read-only inputs plus the mutable committed boundary set.

    ``trace``, when supplied, accumulates one entry per accepted move:
    ("expand_left"|..., before, after) for boundary moves and
    ("merge", (left, right), span) for merges.
    """

    ps: PrefixSums
    noise: NoiseModel
    cfg: ScanConfig
    boundaries: BoundarySet = field(default_factory=BoundarySet)
    trace: list | None = None

    def stat(self, start: int, end: int) -> Candidate:
        """Candidate statistics for [start, end) from prefix sums."""
        n = end - start
        z = z_statistic(self.ps.range_sum(start, end), n, self.noise)
        return Candidate(start, end, z, log_p_value(z, self.cfg.sides))

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


def move_boundary(ctx: RefineContext, seg: Candidate, op: str) -> Candidate:
    """Move one boundary of ``seg`` while the p-value strictly improves.

    ``op`` names the boundary and direction (a key of MOVES). Outward moves
    stop at the nearest committed neighbor or the profile edge, so the
    segment's own interval must not be in ctx.boundaries while it is being
    refined (refine_all removes and reinserts it); inward moves keep at
    least one point. The skipped gap is searched outermost boundary first
    and only a strictly better p replaces the best so far, so ties keep the
    longer segment.
    """
    left, outward = MOVES[op]
    sign = -1 if left == outward else 1
    if not outward:
        limit = seg.end - 1 if left else seg.start + 1
    elif left:
        limit = ctx.boundaries.left_limit(seg.start)
    else:
        limit = ctx.boundaries.right_limit(seg.end, ctx.ps.n)

    def moved(cur: Candidate, boundary: int) -> Candidate:
        return ctx.stat(boundary, cur.end) if left else ctx.stat(cur.start, boundary)

    cur = seg
    while True:
        edge = cur.start if left else cur.end
        step = min(math.ceil(cur.length / ctx.cfg.k_refine), (limit - edge) * sign)
        if step <= 0:
            break
        proposal = edge + sign * step
        jumped = moved(cur, proposal)
        if jumped.log_p < cur.log_p:
            ctx._record(op, cur, jumped)
            cur = jumped
            continue
        gap = range(min(edge, proposal) + 1, max(edge, proposal))
        best = None
        for boundary in gap if left else reversed(gap):
            trial = moved(cur, boundary)
            if best is None or trial.log_p < best.log_p:
                best = trial
        if best is not None and best.log_p < cur.log_p:
            ctx._record(op, cur, best)
            cur = best
        break
    return cur


def refine_segment(ctx: RefineContext, seg: Candidate) -> Candidate:
    """Apply the four boundary moves until a full pass changes nothing."""
    while True:
        before = seg.interval
        for op in MOVES:
            seg = move_boundary(ctx, seg, op)
        if seg.interval == before:
            return seg


def refine_all(ctx: RefineContext, selected: list[Candidate]) -> list[Candidate]:
    """Refine every selected segment, best p-value first.

    ctx.boundaries must hold exactly the selected intervals on entry; it is
    updated in place and holds the refined intervals on return. Returns the
    refined segments sorted by start.
    """
    order = sorted(selected, key=lambda c: c.sort_key)
    refined: list[Candidate] = []
    for seg in order:
        ctx.boundaries.remove(seg.start, seg.end)
        new = refine_segment(ctx, seg)
        ctx.boundaries.insert(new.start, new.end)
        refined.append(new)
    refined.sort(key=lambda c: c.start)
    return refined


def merge_adjacent(ctx: RefineContext, selected: list[Candidate]) -> list[Candidate]:
    """Merge consecutive segments while the spanning segment beats both.

    The span runs from the first segment's left boundary to the second's
    right boundary and includes any gap points. After a merge the new
    segment is re-tested against its neighbors; the scan terminates at a
    fixpoint where no consecutive pair can merge. Returns the segments
    sorted by start.
    """
    segs = sorted(selected, key=lambda c: c.start)
    i = 0
    while i + 1 < len(segs):
        left, right = segs[i], segs[i + 1]
        span = ctx.stat(left.start, right.end)
        if span.log_p < left.log_p and span.log_p < right.log_p:
            ctx._record("merge", (left, right), span)
            ctx.boundaries.remove(left.start, left.end)
            ctx.boundaries.remove(right.start, right.end)
            ctx.boundaries.insert(span.start, span.end)
            segs[i:i + 2] = [span]
            if i > 0:
                i -= 1
        else:
            i += 1
    return segs
