"""Multi-scale candidate scan over exponentially spaced window lengths.

Window lengths grow geometrically: W_i = ceil(rho**i * w_min), deduplicated,
up to w_max. At each scale the windows are placed with stride ceil(W/5), plus
one right-aligned window at N - W so the tail of the profile is always
covered. Window sums come from the prefix-sum array, so the whole scan costs
one subtraction per window placement instead of one pass per window; the
predicted operation counts of the brute-force and memoized strategies are
available from predicted_op_counts for comparison against an instrumented
run.

Every window whose tail probability is at or below the retention threshold
p_s becomes a candidate. The scan keeps candidates as the numpy columns of a
CandidateTable, never as one Python object per window: at each scale it
computes z for every window and drops windows whose |z| (z for the one-sided
test) is below a slightly loose bound derived from p_s; the exact log
p-value test then runs once over the survivors of all scales, so that test
alone decides membership. Rows order by (log_p ascending, length
descending, start ascending), set by one lexsort; the secondary keys make
runs reproducible when p-values tie.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .stats import (NoiseModel, OpCounter, PrefixSums, log_p_value_batch, z_cut,
                    z_statistic_batch)

logger = logging.getLogger(__name__)

#: Window placement density: stride is ceil(W / STRIDE_DIVISOR).
STRIDE_DIVISOR = 5


@dataclass(frozen=True)
class ScanConfig:
    """All tunable scan and significance parameters.

    Defaults: w_min 1, w_max 300, rho 1.1, p_s 0.001, alpha 0.01, K 10,
    biological cutoff disabled, background 0, two-sided test.
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


@dataclass(frozen=True, slots=True)
class Candidate:
    """A scanned segment that survived the p_s retention filter."""

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
    length. ``candidate(i)`` builds the Candidate of row ``i``; stages that
    need only a few rows as objects (selection) build just those.
    """

    start: np.ndarray
    end: np.ndarray
    z: np.ndarray
    log_p: np.ndarray

    def __len__(self) -> int:
        return self.start.size

    def candidate(self, i: int) -> Candidate:
        return Candidate(int(self.start[i]), int(self.end[i]), float(self.z[i]),
                         float(self.log_p[i]))

    @classmethod
    def _sorted(cls, start, end, z, log_p) -> "CandidateTable":
        start = np.asarray(start, dtype=np.int64)
        end = np.asarray(end, dtype=np.int64)
        log_p = np.asarray(log_p, dtype=np.float64)
        # stable, so rows with equal keys keep their input order; lexsort's
        # last key is the primary one
        order = np.lexsort((start, start - end, log_p))
        return cls(start[order], end[order], np.asarray(z, dtype=np.float64)[order],
                   log_p[order])

    @classmethod
    def from_candidates(cls, candidates) -> "CandidateTable":
        """Table of Candidate objects given in any order."""
        cands = list(candidates)
        return cls._sorted([c.start for c in cands], [c.end for c in cands],
                           [c.z for c in cands], [c.log_p for c in cands])


def window_lengths(cfg: ScanConfig) -> list[int]:
    """Sorted deduplicated window lengths ceil(rho**i * w_min) up to w_max."""
    out: list[int] = []
    i = 0
    while True:
        # compared before ceil: w_min * rho may overflow to inf
        length = cfg.w_min * cfg.rho ** i
        if length > cfg.w_max:
            break
        w = math.ceil(length)
        if not out or w != out[-1]:
            out.append(w)
        i += 1
    return out


def _window_starts(n: int, w: int, exhaustive: bool) -> np.ndarray:
    if exhaustive:
        return np.arange(0, n - w + 1, dtype=np.int64)
    stride = math.ceil(w / STRIDE_DIVISOR)
    starts = np.arange(0, n - w + 1, stride, dtype=np.int64)
    if starts[-1] != n - w:
        # right-align a final window so the profile tail is scanned
        starts = np.append(starts, n - w)
    return starts


def scan(profile, ps: PrefixSums, noise: NoiseModel, cfg: ScanConfig, *,
         exhaustive: bool = False, counter: OpCounter | None = None) -> CandidateTable:
    """Enumerate candidate segments with p <= p_s across all window scales.

    Parameters
    ----------
    profile : Profile
        The validated input profile (used only for its length).
    ps : PrefixSums
        Prefix sums of the profile values.
    noise : NoiseModel
        Noise scale and background level for the z test.
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
        descending, start) order. z is computed for every window; the
        p-value only for windows past the z_cut prefilter.
    """
    cfg = cfg.clamped(ps.n)
    n = ps.n
    lengths = range(cfg.w_min, cfg.w_max + 1) if exhaustive else window_lengths(cfg)
    log_ps_max = math.log(cfg.p_s)
    cut = z_cut(log_ps_max, cfg.sides)
    cum = ps.cumulative
    found = []
    for w in lengths:
        starts = _window_starts(n, w, exhaustive)
        if counter is not None:
            counter.add(starts.size)
        z = z_statistic_batch(cum[starts + w] - cum[starts], w, noise)
        near = np.flatnonzero((np.abs(z) if cfg.sides == "two" else z) >= cut)
        found.append((starts[near], starts[near] + w, z[near]))
    start, end, z = (np.concatenate(column) for column in zip(*found))
    log_p = log_p_value_batch(z, cfg.sides)
    keep = np.flatnonzero(log_p <= log_ps_max)
    return CandidateTable._sorted(start[keep], end[keep], z[keep], log_p[keep])


def predicted_op_counts(n: int, cfg: ScanConfig) -> tuple[int, int]:
    """Predicted summation counts of the brute-force and memoized scans.

    C_b  = sum_i (N - rho**i * w_min) * rho**i * w_min   (recompute every sum)
    C_b* = N + sum_i (N - rho**i * w_min)               (extend running sums)

    with i ranging while rho**i * w_min <= w_max. The sums are evaluated on
    the real-valued window lengths and rounded to the nearest integer.
    """
    if n < cfg.w_min:
        raise ValidationError(f"n={n} is smaller than w_min={cfg.w_min}")
    c_brute = 0.0
    c_memo = float(n)
    i = 0
    while True:
        w = cfg.w_min * cfg.rho ** i
        if w > cfg.w_max:
            break
        c_brute += (n - w) * w
        c_memo += n - w
        i += 1
    return round(c_brute), round(c_memo)
