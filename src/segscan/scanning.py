"""Multi-scale candidate scan over exponentially spaced window lengths.

Window lengths grow geometrically: W_i = ceil(rho**i * w_min), deduplicated,
up to w_max. At each scale the windows are placed with stride ceil(W/5), plus
one right-aligned window at N - W so the tail of the profile is always
covered. All sums of one scale come from one strided-slice subtraction of
the prefix-sum array, so the scan costs one subtraction per window placement
instead of one pass per window; the predicted operation counts of the
brute-force and memoized strategies are available from predicted_op_counts
for comparison against an instrumented run. The part of the layout that
depends only on (w_min, w_max, rho), each scale's length, stride and
sqrt(length), is built once per ScanConfig and cached, since every profile
of a run scans with one config. Each scan computes only the placement
counts (from n) and the sum-space bounds (from sigma and the background),
in one vector pass before the scan, and the windows' starts and ends once
after it, so per scale the scan makes only a few numpy calls: the
subtraction, the compare(s), a nonzero and, when the scale has hits, a
gather of their sums. On short profiles those calls, not the windows, are
most of the scan's cost. The table records how many windows were placed.

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
from .stats import NoiseModel, OpCounter, log_p_value_batch, z_cut, z_statistic_batch

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


class _Layout(NamedTuple):
    """The part of a scan's layout that does not depend on n or sigma.

    One entry per scale, longest first: the window length, the stride and
    sqrt(length) as read-only arrays, and ``scales``, (length, stride)
    pairs as Python ints for the per-scale loop.
    """

    w: np.ndarray
    stride: np.ndarray
    root: np.ndarray
    scales: tuple[tuple[int, int], ...]


def _layout(w: np.ndarray, stride: np.ndarray) -> _Layout:
    root = np.sqrt(w)
    for column in (w, stride, root):
        column.flags.writeable = False
    return _Layout(w, stride, root, tuple(zip(w.tolist(), stride.tolist())))


@lru_cache(maxsize=64)
def _scale_layout(w_min: int, w_max: int, rho: float) -> _Layout:
    """The layout of the scales of window_lengths, cached per (w_min, w_max, rho).

    Every profile of a run scans with one ScanConfig, so the lengths, which
    take a Python loop over the scales (hundreds of ms when rho is near 1),
    are laid out once per run, not once per profile.
    """
    lengths = window_lengths(ScanConfig(w_min=w_min, w_max=w_max, rho=rho))
    w = np.array(lengths[::-1], dtype=np.int64)
    return _layout(w, -(-w // STRIDE_DIVISOR))


# Relative loosening of the sum-space bounds; see scan.
_SUM_SLACK = 1e-9


def scan(profile, ps: np.ndarray, noise: NoiseModel, cfg: ScanConfig, *,
         exhaustive: bool = False, counter: OpCounter | None = None) -> CandidateTable:
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
    exhaustive : bool
        When True, scan every length in [w_min, w_max] at stride 1. This
        is the dense grid used by the oracle-equivalence tests, not the
        production mode.
    counter : OpCounter, optional
        Incremented by one per window sum, for cost verification.

    Returns
    -------
    CandidateTable
        One row per window with log p <= log p_s, in (log_p, length
        descending, start) order. Every window costs one subtraction and
        a compare against the sum-space bounds; z is computed only for the
        windows past those bounds, the p-value only once, over their z.
    """
    _check_background(noise, cfg)
    n = ps.size - 1
    cfg = cfg.clamped(n)
    if exhaustive:
        w = np.arange(cfg.w_max, cfg.w_min - 1, -1, dtype=np.int64)
        layout = _layout(w, np.ones_like(w))
    else:
        layout = _scale_layout(cfg.w_min, cfg.w_max, cfg.rho)
    log_ps_max = math.log(cfg.p_s)
    cut = z_cut(log_ps_max, cfg.sides)
    # Every scale's placement and bounds in one vector pass, longest first,
    # so the rows arrive in (length descending, start) order and a sort on
    # log_p that keeps it among ties finishes the table order. Only these
    # depend on n and sigma; the rest of the layout is cached.
    w, stride = layout.w, layout.stride
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
    half = cut * noise.sigma * layout.root
    slack = _SUM_SLACK * (np.abs(c) + np.abs(half))
    hi, lo = c + half - slack, c - half + slack
    windows = int(placed.sum())
    if counter is not None:
        counter.add(windows)
    # one buffer each for the sums and the two compares, reused by every scale
    sums_buf = np.empty(n + 1)
    above_buf = np.empty(n + 1, dtype=bool)
    below_buf = np.empty(n + 1, dtype=bool)
    two = cfg.sides == "two"
    hits, near_sums = [], []
    for (w_i, stride_i), m_i, placed_i, hi_i, lo_i in zip(
            layout.scales, m.tolist(), placed.tolist(), hi.tolist(), lo.tolist()):
        sums = sums_buf[:placed_i]
        np.subtract(ps[w_i::stride_i], ps[:n - w_i + 1:stride_i], out=sums[:m_i])
        if placed_i > m_i:
            sums[m_i] = ps.item(n) - ps.item(n - w_i)
        near = np.greater_equal(sums, hi_i, out=above_buf[:placed_i])
        if two:
            np.logical_or(near, np.less_equal(sums, lo_i, out=below_buf[:placed_i]), out=near)
        near = near.nonzero()[0]
        hits.append(near)
        if near.size:
            near_sums.append(sums[near])
    # each hit's index within its scale, and its scale's stride and length
    count = [near.size for near in hits]
    near = np.concatenate(hits)
    start = np.minimum(near * np.repeat(stride, count), np.repeat(n - w, count))
    end = start + np.repeat(w, count)
    sums = np.concatenate(near_sums) if near_sums else np.empty(0)
    z = z_statistic_batch(sums, end - start, noise)
    log_p = log_p_value_batch(z, cfg.sides)
    keep = np.flatnonzero(log_p <= log_ps_max)
    rows = keep[_stable_argsort(log_p[keep])]
    return CandidateTable(start[rows], end[rows], z[rows], log_p[rows], windows)


def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """np.argsort(keys, kind="stable"), from numpy's default sort when it can.

    Distinct keys have one sorted order, which the default sort finds
    several times faster; only equal keys need the stable sort's tie order.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    if (ordered[1:] == ordered[:-1]).any():
        return np.argsort(keys, kind="stable")
    return order


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
