"""segscan: segmentation of long numeric profiles into significant regions.

The pipeline scans exponentially spaced window lengths with prefix-sum
memoization, greedily selects disjoint low-p candidates, refines their
boundaries, merges adjacent segments, and calls significance with
Benjamini-Hochberg FDR control.
"""

import importlib

from .errors import (DegenerateScaleError, ProfileParseError, SegscanError,
                     ValidationError)
from .pipeline import segment_profile
from .profiles import (Profile, SegmentRecord, parse_profile, read_profile,
                       read_segments, write_segments)
from .refinement import RefineContext, merge_adjacent, refine_all
from .scanning import (Candidate, CandidateTable, ScanConfig,
                       predicted_op_counts, scan, window_lengths)
from .selection import select_nonoverlapping
from .significance import SegmentationResult, bh_select_log, finalize
from .stats import (NoiseModel, OpCounter, build_prefix_sums, estimate_sigma_mad,
                    log_p_value, segment_stats, z_statistic)

__version__ = "0.1.0"

__all__ = [
    "Candidate", "CandidateTable", "DegenerateScaleError", "EvalReport",
    "NoiseModel", "OpCounter", "PlantedSegment", "Profile",
    "ProfileParseError", "RefineContext", "ScanConfig", "SegmentRecord",
    "SegmentationResult", "SegscanError", "SimSpec", "ValidationError",
    "benchmark_suite", "bh_select_log",
    "brute_force_segment", "build_prefix_sums",
    "enumerate_candidates_dense", "estimate_sigma_mad", "finalize",
    "greedy_disjoint", "log_p_value", "merge_adjacent",
    "parse_profile", "positions_mask", "predicted_op_counts",
    "read_profile", "read_segments", "read_truth_manifest", "refine_all",
    "scan", "score", "segment_profile", "segment_stats",
    "select_nonoverlapping", "simulate", "window_lengths", "write_segments",
    "write_truth_manifest", "z_statistic",
]

# The oracles and the simulator are imported on first use, so that
# segmenting a file never loads them (PEP 562).
_LAZY = {
    "evaluation": ("EvalReport", "brute_force_segment", "enumerate_candidates_dense",
                   "greedy_disjoint", "positions_mask", "score"),
    "simulation": ("PlantedSegment", "SimSpec", "benchmark_suite", "read_truth_manifest",
                   "simulate", "write_truth_manifest"),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module:
            return importlib.import_module(f".{module}", __name__)
        if name in names:
            value = getattr(importlib.import_module(f".{module}", __name__), name)
            globals()[name] = value
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
