"""Multi-scale candidate scan over exponentially spaced window lengths.

Window lengths grow geometrically: W_i = ceil(rho**i * w_min), deduplicated,
up to w_max. At each scale the windows are placed with stride ceil(W/5), plus
one right-aligned window at N - W so the tail of the profile is always
covered. All sums of one scale come from one strided-slice subtraction of
the prefix-sum array, so the scan costs one subtraction per window placement
instead of one pass per window; the predicted operation counts of the
brute-force and memoized strategies are available from predicted_op_counts
for comparison against an instrumented run. The part of the layout that
depends only on (w_min, w_max, rho), each scale's length and stride, is
built once per ScanConfig and cached, since every profile of a run scans
with one config. Each scan computes only the placement counts (from n) and
the sum-space bounds (from sqrt(length), sigma and the background), in one
vector pass before the scan, so per scale the scan makes only a few
numpy calls: the subtraction, the compare(s), a nonzero and, when the
scale has hits, a gather of their sums. On short profiles those calls, not
the windows, are most of the scan's cost. The table records how many
windows were placed.

Every window whose tail probability is at or below the retention threshold
p_s becomes a candidate. The scan keeps candidates as the numpy columns of a
CandidateTable, never as one Python object per window. At each scale every
window sum is compared with the bounds w * background +- cut * sigma *
sqrt(w), where cut is a slightly loose bound on |z| (z for the one-sided
test) derived from p_s and the bounds are loosened further for rounding; z
is computed only for the windows past them. The exact log p-value test then
runs once over the survivors of all scales, so that test alone decides
membership. Scales are visited longest first, so rows arrive in (length
descending, start ascending) order. A sort on log p that keeps that order
among ties gives the table order (log_p ascending, length descending, start
ascending): numpy's default sort, or its stable sort when two log p values
are equal. The secondary keys make runs reproducible when p-values tie.

The tail after the per-scale loop holds a fixed set of row-sized arrays,
about seven at its peak against the table's four, because each one it
frees is trimmed from the heap and the next profile would fault its pages
in again. The hits' indexes and sums are joined once, and a per-row scale
index reads each row's stride and length from the cached per-scale
arrays. Start, end, z and log p are computed _TAIL_BLOCK rows at a time,
the first and third in place over the joined indexes and sums, so every
other temporary is block-sized. The sorted keys become the log_p
column; the rows that fail the exact test sort last and are cut off. The
other columns are gathered into arrays the tail no longer reads.
"""

from __future__ import annotations

import logging
import math
import numbers
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .stats import NoiseModel, OpCounter, _log_p_values, z_cut, z_statistic_batch

logger = logging.getLogger(__name__)

#: Window placement density: stride is ceil(W / STRIDE_DIVISOR).
STRIDE_DIVISOR = 5


@dataclass(frozen=True)
class ScanConfig:
    """All tunable scan and significance parameters.

    Defaults: w_min 1, w_max 300, rho 1.1, p_s 0.001, alpha 0.01, K 10,
    biological cutoff disabled, background 0, two-sided test.

    ``background`` is the baseline level of the run: segment_profile builds
    its NoiseModel with it, so the z tests and the ``p_b`` cutoff measure
    from the same level. scan, RefineContext, finalize and
    enumerate_candidates_dense, which take a NoiseModel too, raise
    ValidationError when the NoiseModel's background differs from it.
    """

    w_min: int = 1
    w_max: int = 300
    rho: float = 1.1
    p_s: float = 1e-3
    alpha: float = 0.01
    p_b: float | None = None
    k_refine: int = 10
    background: float = 0.0
    sides: str = "two"

    def __post_init__(self):
        for name in ("w_min", "w_max", "k_refine"):
            value = getattr(self, name)
            # numbers.Integral covers numpy integers; bool is an int subclass
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
        for name in ("rho", "p_s", "alpha", "p_b", "background"):
            value = getattr(self, name)
            # numbers.Real covers numpy floats; bool would pass as 0 or 1
            if value is None and name == "p_b":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(f"{name} must be a real number, got {value!r}")
        if self.w_min < 1:
            raise ValidationError("w_min must be >= 1")
        if self.w_max < self.w_min:
            raise ValidationError("w_max must be >= w_min")
        if not 1.0 < self.rho < math.inf:
            raise ValidationError("rho must be finite and > 1")
        if not 0.0 < self.p_s <= 1.0:
            raise ValidationError("p_s must be in (0, 1]")
        if not 0.0 < self.alpha < 1.0:
            raise ValidationError("alpha must be in (0, 1)")
        if self.p_b is not None and not self.p_b >= 0:
            raise ValidationError("p_b must be >= 0 (or None to disable)")
        if self.k_refine < 2:
            raise ValidationError("k_refine must be >= 2")
        if not math.isfinite(self.background):
            raise ValidationError("background must be finite")
        if self.sides not in ("two", "one"):
            raise ValidationError("sides must be 'two' or 'one'")

    def clamped(self, n: int) -> "ScanConfig":
        """Clamp w_max to the profile length (with a warning, not an error)."""
        if self.w_min > n:
            raise ValidationError(f"profile length {n} is shorter than w_min {self.w_min}")
        if self.w_max <= n:
            return self
        logger.warning("w_max %d exceeds profile length %d; clamping", self.w_max, n)
        return replace(self, w_max=n)


class Candidate(NamedTuple):
    """A scanned segment that survived the p_s retention filter.

    A named tuple, so building one costs about what a tuple does: it is
    immutable, hashable and equal to any tuple of the same fields.
    """

    start: int
    end: int
    z: float
    log_p: float

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def interval(self) -> tuple[int, int]:
        return (self.start, self.end)

    @property
    def sort_key(self) -> tuple[float, int, int]:
        # smaller p first, then longer, then leftmost
        return (self.log_p, self.start - self.end, self.start)


# eq=False: a generated __eq__ would compare numpy columns elementwise
@dataclass(frozen=True, eq=False)
class CandidateTable:
    """Scan candidates as columns, rows in (log_p, length descending, start) order.

    ``start`` and ``end`` are int64, ``z`` and ``log_p`` float64, all of one
    length. ``scan`` sets the row order with a sort on log_p that keeps
    arrival order among ties, over rows that arrive longest scale first.
    ``windows`` is the number of windows the scan placed, every one tested
    whether or not it became a row; None for a table built elsewhere.
    ``candidate(i)`` builds the Candidate of row ``i``; stages that need
    only a few rows as objects (selection) build just those, from the
    columns.
    """

    start: np.ndarray
    end: np.ndarray
    z: np.ndarray
    log_p: np.ndarray
    windows: int | None = None

    def __len__(self) -> int:
        return self.start.size

    def candidate(self, i: int) -> Candidate:
        return Candidate(int(self.start[i]), int(self.end[i]), float(self.z[i]),
                         float(self.log_p[i]))


def _check_background(noise: NoiseModel, cfg: ScanConfig) -> None:
    """Raise ValidationError unless ``noise`` tests against ``cfg.background``."""
    if noise.background != cfg.background:
        raise ValidationError(f"NoiseModel background {noise.background!r} differs from "
                              f"ScanConfig background {cfg.background!r}")


def _check_start_order(segments) -> None:
    """Raise ValidationError naming the first pair of ``segments`` that overlaps or is
    out of start order."""
    for a, b in zip(segments, segments[1:]):
        if a.end > b.start:
            raise ValidationError(f"segments overlap or are out of start order: "
                                  f"[{a.start}, {a.end}) before [{b.start}, {b.end})")


def _scales(cfg: ScanConfig):
    """Yield the real-valued window lengths w_min * rho**i <= w_max, i = 0, 1, ..."""
    i = 0
    # compared before any ceil: w_min * rho may overflow to inf
    while (length := cfg.w_min * cfg.rho ** i) <= cfg.w_max:
        yield length
        i += 1


def window_lengths(cfg: ScanConfig) -> list[int]:
    """Sorted deduplicated window lengths ceil(rho**i * w_min) up to w_max."""
    # the scales grow, so their ceils come in sorted order
    return list(dict.fromkeys(map(math.ceil, _scales(cfg))))


@lru_cache(maxsize=64)
def _scale_layout(w_min: int, w_max: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Each scale's window length and stride, longest scale first.

    Two read-only int64 arrays, cached per (w_min, w_max, rho): every
    profile of a run scans with one ScanConfig, so the lengths, which take
    a Python loop over the scales (hundreds of ms when rho is near 1), are
    laid out once per run, not once per profile.
    """
    lengths = window_lengths(ScanConfig(w_min=w_min, w_max=w_max, rho=rho))
    w = np.array(lengths[::-1], dtype=np.int64)
    stride = -(-w // STRIDE_DIVISOR)
    w.flags.writeable = stride.flags.writeable = False
    return w, stride


# Relative loosening of the sum-space bounds; see scan.
_SUM_SLACK = 1e-9


def scan(profile, ps: np.ndarray, noise: NoiseModel, cfg: ScanConfig, *,
         counter: OpCounter | None = None) -> CandidateTable:
    """Enumerate candidate segments with p <= p_s across all window scales.

    Parameters
    ----------
    profile : Profile
        Not read: the scan takes the length and sums from ``ps``. Kept so
        that callers passing the arguments positionally still work.
    ps : np.ndarray
        Prefix sums of the profile values, from build_prefix_sums.
    noise : NoiseModel
        Noise scale and background level for the z test; its background
        must equal ``cfg.background``.
    cfg : ScanConfig
        Window range, growth factor, retention threshold, sidedness.
    counter : OpCounter, optional
        Incremented by one per window sum, for cost verification.

    Returns
    -------
    CandidateTable
        One row per window with log p <= log p_s, in (log_p, length
        descending, start) order. Every window costs one subtraction and
        a compare against the sum-space bounds; z and the p-value are
        computed only for the windows past those bounds.
    """
    _check_background(noise, cfg)
    n = ps.size - 1
    cfg = cfg.clamped(n)
    w, stride = _scale_layout(cfg.w_min, cfg.w_max, cfg.rho)
    log_ps_max = math.log(cfg.p_s)
    cut = z_cut(log_ps_max, cfg.sides)
    # Every scale's placement and bounds in one vector pass, longest first,
    # so the rows arrive in (length descending, start) order and a sort on
    # log_p that keeps it among ties finishes the table order. Only these
    # depend on n and sigma; the lengths and strides are cached.
    m = (n - w) // stride + 1
    # plus a right-aligned final window so the profile tail is scanned; it
    # sits at index m, where m * stride > n - w
    placed = m + ((n - w) % stride > 0)
    # |z| >= cut in sum space is s >= hi or s <= lo, about c = w * background;
    # z >= cut (one-sided) is s >= hi. Each rounding in z_statistic_batch and
    # in the bounds is a relative error of at most 2**-53 in a term of size
    # |s|, |c| or |half|, and near a bound |s| is about |c| + |half| at most,
    # so a window whose computed z passes lies within a few ulp of
    # |c| + |half| of the exact bound. Moving the bounds outwards by
    # _SUM_SLACK * (|c| + |half|), orders of magnitude more, keeps every such
    # window, also when s / w - background cancels. The exact log p test
    # below still decides membership.
    c = w * noise.background
    half = cut * noise.sigma * np.sqrt(w)
    slack = _SUM_SLACK * (np.abs(c) + np.abs(half))
    hi, lo = c + half - slack, c - half + slack
    windows = int(placed.sum())
    if counter is not None:
        counter.add(windows)
    hits, hit_sums = _scale_hits(ps, w, stride, m, placed, hi, lo, cfg.sides == "two")
    # the per-scale lists go as soon as they are joined (see the module notes)
    count = [near.size for near in hits]
    start = np.concatenate(hits)
    z = np.concatenate(hit_sums) if hit_sums else np.empty(0)
    del hits, hit_sums
    scale = np.repeat(np.arange(len(count), dtype=np.int64), count)
    end, log_p = _fill_rows(scale, start, z, w, stride, n, noise, cfg.sides)
    order, log_p_sorted = _stable_argsort(log_p)
    # rows that fail the exact test, log p > log p_s, sort after every other
    kept = int(np.searchsorted(log_p_sorted, log_ps_max, side="right"))
    order, log_p_sorted = order[:kept], log_p_sorted[:kept]
    # Gather into buffers no longer read: the unsorted log p, the scale
    # index, then the unsorted starts. mode="clip" changes nothing for these
    # in-range indexes; the default mode copies out= through a temporary.
    z = np.take(z, order, out=log_p[:kept], mode="clip")
    starts = np.take(start, order, out=scale[:kept], mode="clip")
    ends = np.take(end, order, out=start[:kept], mode="clip")
    return CandidateTable(starts, ends, z, log_p_sorted, windows)


def _scale_hits(ps: np.ndarray, w: np.ndarray, stride: np.ndarray, m: np.ndarray,
                placed: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                two: bool) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per scale, the indexes of the windows past the bounds and, if any, their sums.

    The sums and the two compares of every scale share one n + 1 buffer
    each, freed on return, before the tail allocates.
    """
    n = ps.size - 1
    sums_buf = np.empty(n + 1)
    above_buf = np.empty(n + 1, dtype=bool)
    below_buf = np.empty(n + 1, dtype=bool)
    hits, hit_sums = [], []
    # tail_i is the scale's right-aligned window sum, ps[n] - ps[n - w_i],
    # taken for every scale in one vector subtraction
    for w_i, stride_i, m_i, placed_i, hi_i, lo_i, tail_i in zip(
            w.tolist(), stride.tolist(), m.tolist(), placed.tolist(), hi.tolist(), lo.tolist(),
            (ps[n] - ps[n - w]).tolist()):
        sums = sums_buf[:placed_i]
        np.subtract(ps[w_i::stride_i], ps[:n - w_i + 1:stride_i], out=sums[:m_i])
        if placed_i > m_i:
            sums[m_i] = tail_i
        near = np.greater_equal(sums, hi_i, out=above_buf[:placed_i])
        if two:
            np.logical_or(near, np.less_equal(sums, lo_i, out=below_buf[:placed_i]), out=near)
        near = near.nonzero()[0]
        hits.append(near)
        if near.size:
            hit_sums.append(sums[near])
    return hits, hit_sums


#: Rows per block of the scan's tail; its temporaries are this many rows long.
_TAIL_BLOCK = 8192


def _fill_rows(scale: np.ndarray, start: np.ndarray, z: np.ndarray, w: np.ndarray,
               stride: np.ndarray, n: int, noise: NoiseModel,
               sides: str) -> tuple[np.ndarray, np.ndarray]:
    """Each row's start and z in place, and its (end, log p) as new arrays.

    On entry ``start`` holds each row's window index within its scale,
    ``z`` its window sum and ``scale`` its scale's position in the
    per-scale arrays ``w`` and ``stride``. The rows go _TAIL_BLOCK at a
    time, each block reading its strides and lengths from those arrays
    into one block-sized buffer, so no temporary grows with the number of
    rows.
    """
    rows = start.size
    end = np.empty(rows, dtype=np.int64)
    log_p = np.empty(rows)
    last = n - w
    ints = np.empty(min(rows, _TAIL_BLOCK), dtype=np.int64)
    for o in range(0, rows, _TAIL_BLOCK):
        at = scale[o:o + _TAIL_BLOCK]
        rows_at = slice(o, o + at.size)
        starts, buf = start[rows_at], ints[:at.size]
        # the right-aligned tail window sits at index m, past n - w
        starts *= stride.take(at, out=buf, mode="clip")
        np.minimum(starts, last.take(at, out=buf, mode="clip"), out=starts)
        lengths = w.take(at, out=buf, mode="clip")
        np.add(starts, lengths, out=end[rows_at])
        z[rows_at] = z_statistic_batch(z[rows_at], lengths, noise)
        log_p[rows_at] = _log_p_values(z[rows_at], sides)
    return end, log_p


def _stable_argsort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.argsort(keys, kind="stable") and the keys in that order.

    The order comes from numpy's default sort when it can: distinct keys
    have one sorted order, which the default sort finds several times
    faster; only equal keys need the stable sort's tie order.
    """
    order = np.argsort(keys)
    ordered = keys.take(order)
    if (ordered[1:] == ordered[:-1]).any():
        order = np.argsort(keys, kind="stable")
        # tied keys can differ in sign (0.0 and -0.0), so gather them again
        np.take(keys, order, out=ordered, mode="clip")
    return order, ordered


def predicted_op_counts(n: int, cfg: ScanConfig) -> tuple[int, int]:
    """Predicted summation counts of the brute-force and memoized scans.

    C_b  = sum_i (N - rho**i * w_min) * rho**i * w_min   (recompute every sum)
    C_b* = N + sum_i (N - rho**i * w_min)               (extend running sums)

    with i ranging while rho**i * w_min <= w_max, after w_max is clamped to
    N as the scan clamps it (ScanConfig.clamped, which raises
    ValidationError for N < w_min). The sums are evaluated on the
    real-valued window lengths and rounded to the nearest integer.
    """
    c_brute = 0.0
    c_memo = float(n)
    for w in _scales(cfg.clamped(n)):
        c_brute += (n - w) * w
        c_memo += n - w
    return round(c_brute), round(c_memo)
