"""Per-position scoring against ground truth, and the brute-force oracle.

Scoring is positional: a position counts as a true positive when both the
prediction and the truth cover it. This is well defined for partially
overlapping segments, which per-segment matching is not. Degenerate 0/0
ratios score 0 and set a flag so empty-vs-empty comparisons do not read as
perfect.

brute_force_segment is the independent reference segmenter used by the
equivalence tests: it evaluates every segment in the length band by direct
summation (no prefix sums) and selects greedily with a linear-scan overlap
check (no trees). It is quadratic and refuses profiles longer than max_n
unless told otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .profiles import Profile
from .scanning import Candidate, ScanConfig
from .stats import NoiseModel, log_p_value_batch


@dataclass(frozen=True)
class EvalReport:
    """Positional confusion counts and the derived scores."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    degenerate: bool = False


def positions_mask(segments, n: int) -> np.ndarray:
    """Boolean coverage mask of length n for a collection of segments.

    Accepts anything with start/end attributes or (start, end) pairs.
    """
    mask = np.zeros(n, dtype=bool)
    for seg in segments:
        start, end = (seg.start, seg.end) if hasattr(seg, "start") else (seg[0], seg[1])
        if not (0 <= start < end <= n):
            raise ValidationError(f"segment [{start}, {end}) outside [0, {n})")
        mask[start:end] = True
    return mask


def score(pred_mask: np.ndarray, truth_mask: np.ndarray) -> EvalReport:
    """Positional precision/recall/F1 of a predicted mask against truth."""
    pred_mask = np.asarray(pred_mask, dtype=bool)
    truth_mask = np.asarray(truth_mask, dtype=bool)
    if pred_mask.shape != truth_mask.shape:
        raise ValidationError("prediction and truth masks differ in length")
    tp = int(np.count_nonzero(pred_mask & truth_mask))
    fp = int(np.count_nonzero(pred_mask & ~truth_mask))
    fn = int(np.count_nonzero(~pred_mask & truth_mask))
    degenerate = False
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, degenerate = 0.0, True
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, degenerate = 0.0, True
    return EvalReport(tp=tp, fp=fp, fn=fn, precision=precision, recall=recall,
                      f1=f1, degenerate=degenerate)


def enumerate_candidates_dense(profile: Profile, noise: NoiseModel,
                               cfg: ScanConfig | None = None) -> list[Candidate]:
    """Every segment with length in [w_min, w_max] and p <= p_s, by direct summation.

    Deliberately avoids the prefix-sum path so it can serve as an
    independent check of the memoized scan. Quadratic; callers are expected
    to keep profiles small.
    """
    cfg = (cfg or ScanConfig()).clamped(len(profile))
    values = profile.values
    log_ps_max = math.log(cfg.p_s)
    pool: list[Candidate] = []
    for w in range(cfg.w_min, cfg.w_max + 1):
        sums = sliding_window_view(values, w).sum(axis=1)
        z = (sums / w - noise.background) * np.sqrt(w) / noise.sigma
        log_p = log_p_value_batch(z, cfg.sides)
        for start in np.flatnonzero(log_p <= log_ps_max):
            start = int(start)
            pool.append(Candidate(start, start + w, float(z[start]), float(log_p[start])))
    pool.sort(key=lambda c: c.sort_key)
    return pool


def greedy_disjoint(pool) -> list[Candidate]:
    """Greedy disjoint selection by ascending p with a linear-scan overlap check."""
    ranked = sorted(pool, key=lambda c: c.sort_key)
    picked: list[Candidate] = []
    for cand in ranked:
        if all(cand.end <= other.start or cand.start >= other.end for other in picked):
            picked.append(cand)
    picked.sort(key=lambda c: c.start)
    return picked


def brute_force_segment(profile: Profile, noise: NoiseModel, max_n: int = 500,
                        cfg: ScanConfig | None = None) -> list[Candidate]:
    """Exhaustive reference segmentation for small instances.

    Evaluates every segment with length in [w_min, w_max] by direct
    summation, keeps those with p <= p_s, and selects disjoint segments
    greedily by ascending p with the same tie-breaking as the production
    selector (longer first, then leftmost).
    """
    n = len(profile)
    if n > max_n:
        raise ValidationError(f"profile length {n} exceeds max_n={max_n}; "
                              "the brute-force oracle is quadratic")
    return greedy_disjoint(enumerate_candidates_dense(profile, noise, cfg))
