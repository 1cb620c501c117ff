"""Per-position scoring against ground truth, and the brute-force oracle.

Scoring is positional: a position counts as a true positive when both the
prediction and the truth cover it. This is well defined for partially
overlapping segments, which per-segment matching is not. Degenerate 0/0
ratios score 0 and set a flag so empty-vs-empty comparisons do not read as
perfect.

brute_force_segment is the independent reference segmenter used by the
equivalence tests: it evaluates every segment in the length band by direct
summation (no prefix sums), orders the survivors with one lexsort, and
selects greedily against a coverage mask of the positions already taken
(no trees, no blocks). It is quadratic and refuses profiles longer than
max_n unless told otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError
from .profiles import Profile
from .scanning import Candidate, CandidateTable, ScanConfig, _check_background
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
                               cfg: ScanConfig | None = None) -> CandidateTable:
    """Every segment with length in [w_min, w_max] and p <= p_s, by direct summation.

    Deliberately avoids the prefix-sum path and the scan's sort so it can
    serve as an independent check of the memoized scan. The rows come back
    in the scan's key order (log p, then longer, then leftmost). Like the
    scan, it raises ValidationError when ``noise.background`` differs from
    the config's (0 when ``cfg`` is omitted). Quadratic; callers are
    expected to keep profiles small.
    """
    cfg = (cfg or ScanConfig()).clamped(len(profile))
    _check_background(noise, cfg)
    values = profile.values
    log_ps_max = math.log(cfg.p_s)
    columns = []
    for w in range(cfg.w_min, cfg.w_max + 1):
        sums = sliding_window_view(values, w).sum(axis=1)
        z = (sums / w - noise.background) * np.sqrt(w) / noise.sigma
        log_p = log_p_value_batch(z, cfg.sides)
        keep = np.flatnonzero(log_p <= log_ps_max)
        columns.append((keep, keep + w, z[keep], log_p[keep]))
    start, end, z, log_p = (np.concatenate(column) for column in zip(*columns))
    order = np.lexsort((start, start - end, log_p))  # the last key is the primary one
    return CandidateTable(start[order], end[order], z[order], log_p[order])


def greedy_disjoint(table: CandidateTable) -> list[Candidate]:
    """Greedy disjoint selection over the table's rows, in their order, by a coverage mask."""
    if (table.start < 0).any() or (table.end <= table.start).any():
        raise ValidationError("greedy_disjoint needs rows with 0 <= start < end")
    covered = bytearray(int(table.end.max(initial=0)))
    picked: list[Candidate] = []
    for row, (start, end) in enumerate(zip(table.start.tolist(), table.end.tolist())):
        if 1 not in covered[start:end]:
            covered[start:end] = b"\x01" * (end - start)
            picked.append(table.candidate(row))
    return sorted(picked, key=lambda c: c.start)


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
