"""Benjamini-Hochberg FDR control and the optional magnitude cutoff.

BH is applied to the refined, merged segment set (not the raw candidate
pool, which contains heavily overlapping windows and would double-count
hypotheses). All segments are kept in the output with their significance
flags so results can be re-thresholded without re-running the pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .profiles import Profile, SegmentRecord
from .scanning import Candidate, ScanConfig
from .stats import (NoiseModel, PrefixSums, build_prefix_sums,
                    estimate_sigma_mad, segment_stats)


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
    if log_p.size == 0:
        return -math.inf, np.zeros(0, dtype=bool)
    m = max(int(m_total or 0), log_p.size)
    order = np.argsort(log_p, kind="stable")
    ranked = log_p[order]
    with np.errstate(divide="ignore"):
        critical = np.log(np.arange(1, log_p.size + 1) * alpha / m)
    passing = np.flatnonzero(ranked <= critical)
    k = int(passing[-1]) + 1 if passing.size else 0
    mask_ranked = np.zeros(log_p.size, dtype=bool)
    mask_ranked[:k] = True
    mask = np.empty(log_p.size, dtype=bool)
    mask[order] = mask_ranked
    return (float(ranked[k - 1]) if k else -math.inf), mask


def bh_select(p_values, alpha: float,
              m_total: int | None = None) -> tuple[float, np.ndarray]:
    """Benjamini-Hochberg procedure on plain p-values.

    Sorts p ascending, finds the largest i with p(i) <= i*alpha/m, rejects
    hypotheses 1..i. Returns (threshold p, rejection mask in input order);
    the threshold is 0 when nothing is rejected. By default m is the number
    of supplied p-values; ``m_total`` widens the family (see bh_select_log).
    """
    p = np.asarray(p_values, dtype=np.float64)
    if p.size and (np.any(p < 0) or np.any(p > 1) or np.any(np.isnan(p))):
        raise ValidationError("p-values must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must be in (0, 1)")
    with np.errstate(divide="ignore"):
        log_threshold, mask = bh_select_log(np.log(p), alpha, m_total=m_total)
    return (math.exp(log_threshold) if mask.any() else 0.0), mask


def apply_biological_cutoff(records, p_b: float, background: float) -> list[SegmentRecord]:
    """Clear the significant flag on records with |mean - background| < p_b.

    The cutoff is a magnitude filter in raw signal units. All records stay
    in the output; only flags change.
    """
    if p_b < 0:
        raise ValidationError("p_b must be >= 0")
    out = []
    for record in records:
        if abs(record.mean - background) < p_b:
            record = replace(record, significant=False)
        out.append(record)
    return out


def finalize(profile: Profile, refined: list[Candidate], cfg: ScanConfig,
             noise: NoiseModel | None = None,
             ps: PrefixSums | None = None,
             m_total: int | None = None) -> SegmentationResult:
    """Recompute statistics, run BH at cfg.alpha, apply the cutoff.

    Statistics are recomputed from the profile rather than trusted from the
    refinement caches. ``m_total`` should be the number of candidates the
    scan retained (the hypothesis family the segments were drawn from); the
    pipeline supplies it. When omitted, the family is just the final
    segments, which is a weaker correction.
    """
    if noise is None:
        noise = estimate_sigma_mad(profile, cfg.background)
    if ps is None:
        ps = build_prefix_sums(profile)
    segments = sorted(refined, key=lambda c: c.start)
    stats = [segment_stats(ps, noise, seg.start, seg.end, cfg.sides) for seg in segments]
    log_ps = np.array([s[2] for s in stats], dtype=np.float64)
    log_threshold, mask = bh_select_log(log_ps, cfg.alpha, m_total=m_total)
    records = [
        SegmentRecord(start=seg.start, end=seg.end, mean=mean, z=z,
                      log_p=log_p, significant=bool(flag))
        for seg, (mean, z, log_p), flag in zip(segments, stats, mask)
    ]
    if cfg.p_b is not None:
        records = apply_biological_cutoff(records, cfg.p_b, cfg.background)
    threshold = math.exp(log_threshold) if mask.any() else 0.0
    return SegmentationResult(records=tuple(records), bh_threshold=threshold,
                              config=cfg, noise=noise)
