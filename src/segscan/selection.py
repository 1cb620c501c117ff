"""Greedy minimum-p selection of mutually disjoint candidates.

Candidates are visited best-first in the (log_p, length descending, start)
row order of scan's CandidateTable; an ordered set of committed intervals
answers overlap queries by inspecting only the neighbors of the query point.
A candidate that overlaps nothing already committed is selected, everything
else is discarded. The rows are visited in blocks: one searchsorted per
block against the intervals committed so far drops every row that overlaps
one of them, and only the survivors are walked one by one, in row order.
Intervals are half-open, so segments that merely share a boundary point do
not overlap.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import ValidationError
from .scanning import Candidate, CandidateTable


class BoundarySet:
    """Disjoint half-open intervals ordered by start, with O(log S) queries."""

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def overlaps(self, start: int, end: int) -> bool:
        """True iff [start, end) intersects any stored interval."""
        if start >= end:
            raise ValidationError(f"empty query interval [{start}, {end})")
        i = bisect_right(self._starts, start)
        if i > 0 and self._ends[i - 1] > start:
            return True
        return i < len(self._starts) and self._starts[i] < end

    def insert(self, start: int, end: int) -> None:
        if self.overlaps(start, end):
            raise ValidationError(f"interval [{start}, {end}) overlaps a committed segment")
        i = bisect_right(self._starts, start)
        self._starts.insert(i, start)
        self._ends.insert(i, end)


#: Rows per block of the select walk's overlap prefilter.
BLOCK_ROWS = 2048

_NO_END = np.iinfo(np.int64).min
_NO_START = np.iinfo(np.int64).max


def select_nonoverlapping(table: CandidateTable, p_s: float | None = None) -> list[Candidate]:
    """Greedily select disjoint candidates in ascending p order.

    Walks the table's rows in order, which is best first, in blocks of
    BLOCK_ROWS; commits each row that does not overlap anything already
    committed and discards the rest. One searchsorted per block against the
    intervals committed by earlier blocks drops every row that overlaps one
    of them (its left neighbor ends after the row starts, or its right
    neighbor starts before the row ends). Each survivor is disjoint from all
    of those, so a BoundarySet walk over the survivors, in row order, checks
    them only against the block's own commits. Only the committed rows
    become Candidate objects. The result is exactly the greedy-by-p-value
    disjoint subset, sorted by start. The scanner has already filtered at
    p_s; passing it here re-checks that with an assertion (skipped under
    ``python -O``).
    """
    if p_s is not None:
        assert (table.log_p <= math.log(p_s)).all(), "candidate above p_s"
    # committed starts, padded so index i is the right neighbor of a row
    # whose start has i committed starts at or before it, and committed
    # ends, padded so index i is its left neighbor
    starts = np.array([_NO_START])
    ends = np.array([_NO_END])
    picked: list[int] = []
    for first in range(0, len(table), BLOCK_ROWS):
        block_start = table.start[first:first + BLOCK_ROWS]
        block_end = table.end[first:first + BLOCK_ROWS]
        i = np.searchsorted(starts, block_start, side="right")
        free = np.flatnonzero((ends[i] <= block_start) & (starts[i] >= block_end))
        block = BoundarySet()
        for row, start, end in zip(free.tolist(), block_start[free].tolist(),
                                   block_end[free].tolist()):
            if not block.overlaps(start, end):
                block.insert(start, end)
                picked.append(first + row)
        if block:
            # both lists ascend, so np.insert keeps the arrays sorted
            at = np.searchsorted(starts, block._starts)
            starts = np.insert(starts, at, block._starts)
            ends = np.insert(ends, at + 1, block._ends)
    picked.sort(key=table.start.__getitem__)
    return [table.candidate(row) for row in picked]
