"""Candidate tables for tests: from hand-made Candidate objects, or from a
stride-1 scan of every window length."""

from unittest import mock

import numpy as np

from segscan import CandidateTable, scanning


def table_from_candidates(candidates) -> CandidateTable:
    """Table of Candidate objects given in any order, rows in scan's key order."""
    cands = list(candidates)
    start = np.array([c.start for c in cands], dtype=np.int64)
    end = np.array([c.end for c in cands], dtype=np.int64)
    log_p = np.array([c.log_p for c in cands], dtype=np.float64)
    # lexsort's last key is the primary one
    order = np.lexsort((start, start - end, log_p))
    return CandidateTable(start[order], end[order],
                          np.array([c.z for c in cands], dtype=np.float64)[order], log_p[order])


def _stride_one_layout(w_min, w_max, rho):
    w = np.arange(w_max, w_min - 1, -1, dtype=np.int64)
    return w, np.ones_like(w)


def exhaustive_scan(profile, ps, noise, cfg, **kwargs) -> CandidateTable:
    """scanning.scan over every length in [w_min, w_max] at stride 1.

    The production scan runs unchanged on the dense grid the brute-force
    oracle tests; only its scale layout is swapped, for this call alone.
    """
    with mock.patch.object(scanning, "_scale_layout", _stride_one_layout):
        return scanning.scan(profile, ps, noise, cfg, **kwargs)
