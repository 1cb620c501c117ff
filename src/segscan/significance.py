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
from .scanning import Candidate, ScanConfig, _check_background
from .stats import TINY_P, NoiseModel, log_p_value_batch, z_statistic_batch


@dataclass(frozen=True)
class SegmentationResult:
    """Final disjoint segments with significance calls and run provenance."""

    records: tuple[SegmentRecord, ...]
    bh_threshold: float
    config: ScanConfig
    noise: NoiseModel

    def significant(self) -> list[SegmentRecord]:
        return [r for r in self.records if r.significant]


def bh_select_log(log_p: np.ndarray, alpha: float,
                  m_total: int | None = None) -> tuple[float, np.ndarray]:
    """Benjamini-Hochberg on natural-log p-values.

    ``m_total`` is the size of the hypothesis family when the supplied
    p-values are only the survivors of a pre-filter; the BH denominator
    uses max(m_total, len(log_p)). Returns (log threshold, rejection mask
    in input order); the threshold is the largest retained log p, or -inf
    when nothing is rejected.
    """
    log_p = np.asarray(log_p, dtype=np.float64)
    m = max(int(m_total or 0), log_p.size)
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
             noise: NoiseModel, ps: np.ndarray,
             m_total: int | None = None) -> SegmentationResult:
    """Recompute statistics, then call segments by BH at cfg.alpha and the cutoff.

    Statistics are recomputed from the prefix sums ``ps`` under ``noise``
    rather than trusted from the refinement caches, in one pass of the
    batch kernels, which give segment_stats' values bit for bit.
    ``profile`` is not read; it stays so that positional callers work.
    ``m_total`` should be the number of candidates the scan retained (the
    hypothesis family the segments were drawn from); the pipeline supplies
    it. When omitted, the family is just the final segments, which is a
    weaker correction. ``bh_threshold`` comes from BH alone, before the
    cutoff: 0 when nothing is rejected and otherwise at least TINY_P, like
    SegmentRecord.p_value.
    """
    _check_background(noise, cfg)
    segments = sorted(refined, key=lambda c: c.start)
    start = np.fromiter((seg.start for seg in segments), np.int64, len(segments))
    end = np.fromiter((seg.end for seg in segments), np.int64, len(segments))
    sums = ps[end] - ps[start]
    mean = sums / (end - start)
    z = z_statistic_batch(sums, end - start, noise)
    log_ps = log_p_value_batch(z, cfg.sides)
    log_threshold, called = bh_select_log(log_ps, cfg.alpha, m_total=m_total)
    threshold = max(math.exp(log_threshold), TINY_P) if called.any() else 0.0
    if cfg.p_b is not None:
        called &= np.abs(mean - noise.background) >= cfg.p_b
    # positional, in SegmentRecord's field order
    records = map(SegmentRecord, start.tolist(), end.tolist(), mean.tolist(), z.tolist(),
                  log_ps.tolist(), called.tolist())
    return SegmentationResult(records=tuple(records), bh_threshold=threshold,
                              config=cfg, noise=noise)
