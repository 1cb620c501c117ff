"""Greedy minimum-p selection of mutually disjoint candidates.

One ordered boundary set of the committed intervals answers each overlap
query from the neighbors of the query point. Intervals are half-open, so
segments that merely share a boundary point do not overlap.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import ValidationError
from .scanning import Candidate, CandidateTable

_INT64_MAX = int(np.iinfo(np.int64).max)


class BoundarySet:
    """Disjoint half-open intervals as one sorted edge list s0, e0, s1, e1, ...

    The list ends in an INT64_MAX sentinel. [s, e) is free iff
    i = bisect_right(edges, s) is even and edges[i] >= e; touching intervals
    store their shared edge twice, and the rule holds for them too.
    """

    def __init__(self):
        self.edges: list[int] = [_INT64_MAX]

    def add(self, start: int, end: int) -> bool:
        """Store [start, end) and return True, or return False if it overlaps."""
        if start >= end:
            raise ValidationError(f"empty interval [{start}, {end})")
        edges = self.edges
        i = bisect_right(edges, start)
        if i % 2 or edges[i] < end:
            return False
        edges[i:i] = (start, end)
        return True

    def insert(self, start: int, end: int) -> None:
        if not self.add(start, end):
            raise ValidationError(f"interval [{start}, {end}) overlaps a committed segment")


#: Rows of the select walk's first block; each later block doubles, up to
#: BLOCK_ROWS.
FIRST_BLOCK_ROWS = 64
#: Largest block of the select walk's overlap prefilter.
BLOCK_ROWS = 2048


def select_nonoverlapping(table: CandidateTable, p_s: float | None = None) -> list[Candidate]:
    """Greedily select disjoint candidates in ascending p order.

    Walks the table's rows in their (log_p, length descending, start) order,
    best first, and commits to one BoundarySet each row that overlaps
    nothing committed before it. The rows go in blocks of FIRST_BLOCK_ROWS,
    twice that, and so on up to BLOCK_ROWS, so the few best rows, which
    commit most of the set, are walked before the prefilter of the larger
    blocks. Per block, one searchsorted of the block's starts, sorted, into
    the set's edges, under the set's own rule, drops the rows that overlap
    an earlier block's commits; only the survivors go to BoundarySet.add,
    which decides every commit, in row order. Only the committed rows
    become Candidate objects. The result is exactly the greedy-by-p
    disjoint subset, sorted by start. The scanner has already filtered at
    p_s; passing it here re-checks that with an assertion (skipped under
    ``python -O``).
    """
    if p_s is not None:
        assert (table.log_p <= math.log(p_s)).all(), "candidate above p_s"
    committed = BoundarySet()
    edges = np.array(committed.edges)
    picked: list[int] = []
    first, rows = 0, min(FIRST_BLOCK_ROWS, BLOCK_ROWS)
    while first < len(table):
        block_start = table.start[first:first + rows]
        block_end = table.end[first:first + rows]
        order = np.argsort(block_start)
        i = np.empty_like(order)
        i[order] = np.searchsorted(edges, block_start[order], side="right")
        free = np.flatnonzero((i % 2 == 0) & (edges[i] >= block_end))
        for row, start, end in zip(free.tolist(), block_start[free].tolist(),
                                   block_end[free].tolist()):
            if committed.add(start, end):
                picked.append(first + row)
        if len(committed.edges) > edges.size:
            edges = np.array(committed.edges)
        first += rows
        rows = min(2 * rows, BLOCK_ROWS)
    rows = np.array(picked, dtype=np.intp)
    rows = rows[np.argsort(table.start[rows])]
    return list(map(Candidate, *(column[rows].tolist() for column in
                                 (table.start, table.end, table.z, table.log_p))))
