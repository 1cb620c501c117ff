"""Benjamini-Hochberg FDR control and the optional magnitude cutoff.

BH ranks the final segments (the refined, merged, disjoint set). Its
denominator is ``m_total``, the size of the hypothesis family those segments
were drawn from; the pipeline passes the number of candidates the scan
retained. A segment is called when BH rejects it and, if ``p_b`` is set,
its mean lies at least ``p_b`` from ``noise.background``, the baseline its
z test used; finalize decides both in one mask. All segments are kept in
the output with their significance flags so results can be re-thresholded
without re-running the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import Profile, SegmentRecord
from .scanning import Candidate, ScanConfig, _check_background, _check_start_order
from .stats import TINY_P, NoiseModel, _log_p_values, z_statistic_batch


@dataclass(frozen=True)
class SegmentationResult:
    """Final segments, disjoint and in start order (ValidationError otherwise),
    with significance calls and run provenance."""

    records: tuple[SegmentRecord, ...]
    bh_threshold: float
    config: ScanConfig
    noise: NoiseModel

    def __post_init__(self):
        _check_start_order(self.records)

    def significant(self) -> list[SegmentRecord]:
        return [r for r in self.records if r.significant]


def bh_select_log(log_p: np.ndarray, alpha: float, m_total: int) -> tuple[float, np.ndarray]:
    """Benjamini-Hochberg on natural-log p-values.

    ``m_total`` is the size of the hypothesis family, larger than
    len(log_p) when the p-values are the survivors of a pre-filter; the BH
    denominator uses max(m_total, len(log_p)). Returns (log threshold,
    rejection mask in input order); the threshold is the largest retained
    log p, or -inf when nothing is rejected.
    """
    log_p = np.asarray(log_p, dtype=np.float64)
    m = max(int(m_total), log_p.size)
    order = np.argsort(log_p, kind="stable")
    ranked = log_p[order]
    with np.errstate(divide="ignore"):
        critical = np.log(np.arange(1, log_p.size + 1) * alpha / m)
    passing = np.flatnonzero(ranked <= critical)
    k = int(passing[-1]) + 1 if passing.size else 0
    mask = np.zeros(log_p.size, dtype=bool)
    mask[order[:k]] = True
    return (float(ranked[k - 1]) if k else -math.inf), mask


def finalize(profile: Profile, refined: list[Candidate], cfg: ScanConfig,
             noise: NoiseModel, ps: np.ndarray, m_total: int) -> SegmentationResult:
    """Recompute statistics, then call segments by BH at cfg.alpha and the cutoff.

    ``refined`` is disjoint and in start order, as merge_adjacent returns
    it; ValidationError names the first pair that is not. Statistics are
    recomputed from the prefix sums ``ps`` under ``noise`` rather than
    trusted from the refinement caches, in one vector pass whose log p
    comes from stats._log_p_values: the scalar kernel per segment below
    LOG_P_SCALAR_BELOW segments, as on most short profiles, where the
    batch kernel's fixed cost per call would outweigh the work, and the
    batch kernel otherwise. Either way the values are segment_stats' bit
    for bit. ``profile`` is not read; it stays so that positional callers
    work. ``m_total`` is the size of the hypothesis family the segments
    were drawn from: in the pipeline, the number of candidates the scan
    retained. ``bh_threshold`` comes
    from BH alone, before the cutoff: 0 when nothing is rejected and
    otherwise at least TINY_P, like SegmentRecord.p_value.
    """
    _check_background(noise, cfg)
    start = np.fromiter((seg.start for seg in refined), np.int64, len(refined))
    end = np.fromiter((seg.end for seg in refined), np.int64, len(refined))
    sums = ps[end] - ps[start]
    mean = sums / (end - start)
    z = z_statistic_batch(sums, end - start, noise)
    log_ps = _log_p_values(z, cfg.sides)
    log_threshold, called = bh_select_log(log_ps, cfg.alpha, m_total)
    threshold = max(math.exp(log_threshold), TINY_P) if called.any() else 0.0
    if cfg.p_b is not None:
        called &= np.abs(mean - noise.background) >= cfg.p_b
    # positional, in SegmentRecord's field order
    records = map(SegmentRecord, start.tolist(), end.tolist(), mean.tolist(), z.tolist(),
                  log_ps.tolist(), called.tolist())
    return SegmentationResult(records=tuple(records), bh_threshold=threshold,
                              config=cfg, noise=noise)
