"""Greedy minimum-p selection of mutually disjoint candidates.

Candidates are visited best-first in (log_p, length descending, start)
order; an ordered set of committed intervals answers overlap queries by
inspecting only the neighbors of the query point. A candidate that overlaps
nothing already committed is selected, everything else is discarded.
Intervals are half-open, so segments that merely share a boundary point do
not overlap.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from .errors import ValidationError
from .scanning import Candidate


class BoundarySet:
    """Disjoint half-open intervals ordered by start, with O(log S) queries."""

    def __init__(self):
        self._starts: list[int] = []
        self._ends: list[int] = []

    def __len__(self) -> int:
        return len(self._starts)

    def __iter__(self):
        return iter(zip(self._starts, self._ends))

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

    def remove(self, start: int, end: int) -> None:
        i = bisect_left(self._starts, start)
        if i == len(self._starts) or self._starts[i] != start or self._ends[i] != end:
            raise ValidationError(f"interval [{start}, {end}) is not committed")
        del self._starts[i]
        del self._ends[i]

    def left_limit(self, at: int) -> int:
        """End of the nearest interval at or left of ``at`` (0 if none)."""
        i = bisect_right(self._starts, at)
        return self._ends[i - 1] if i > 0 else 0

    def right_limit(self, at: int, n: int) -> int:
        """Start of the nearest interval at or right of ``at`` (n if none)."""
        i = bisect_left(self._starts, at)
        return self._starts[i] if i < len(self._starts) else n

    def intervals(self) -> list[tuple[int, int]]:
        return list(zip(self._starts, self._ends))


def select_nonoverlapping(candidates, p_s: float | None = None) -> list[Candidate]:
    """Greedily select disjoint candidates in ascending p order.

    Visits the candidates best first; commits each one that does not
    overlap anything already committed and discards the rest. The result is
    exactly the greedy-by-p-value disjoint subset, sorted by start. The sort
    is stable, so equal keys keep their input order, and it costs one linear
    pass on scan's output, which is already in this order. The scanner has
    already filtered at p_s; passing it here re-checks that with an
    assertion (skipped under ``python -O``).
    """
    if p_s is not None:
        assert all(c.log_p <= math.log(p_s) for c in candidates), "candidate above p_s"
    committed = BoundarySet()
    picked: list[Candidate] = []
    for candidate in sorted(candidates, key=lambda c: c.sort_key):
        if not committed.overlaps(candidate.start, candidate.end):
            committed.insert(candidate.start, candidate.end)
            picked.append(candidate)
    picked.sort(key=lambda c: c.start)
    return picked
