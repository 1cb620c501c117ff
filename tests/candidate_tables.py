"""Build a CandidateTable from hand-made Candidate objects, for tests."""

import numpy as np

from segscan import CandidateTable


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
