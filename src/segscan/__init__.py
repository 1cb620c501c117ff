"""segscan: segmentation of long numeric profiles into significant regions.

The pipeline scans exponentially spaced window lengths with prefix-sum
memoization, greedily selects disjoint low-p candidates, refines their
boundaries, merges adjacent segments, and calls significance with
Benjamini-Hochberg FDR control.
"""

from .errors import (DegenerateScaleError, ProfileParseError, SegscanError,
                     ValidationError)
from .evaluation import (EvalReport, brute_force_segment,
                         enumerate_candidates_dense, greedy_disjoint,
                         positions_mask, score)
from .pipeline import segment_profile
from .profiles import (Profile, SegmentRecord, parse_profile, read_profile,
                       read_segments, write_segments)
from .refinement import RefineContext, merge_adjacent, refine_all
from .scanning import (Candidate, CandidateTable, ScanConfig,
                       predicted_op_counts, scan, window_lengths)
from .selection import select_nonoverlapping
from .significance import SegmentationResult, bh_select_log, finalize
from .simulation import (PlantedSegment, SimSpec, benchmark_suite,
                         read_truth_manifest, simulate, write_truth_manifest)
from .stats import (NoiseModel, OpCounter, PrefixSums, build_prefix_sums,
                    estimate_sigma_mad, log_p_value, segment_stats,
                    z_statistic)

__version__ = "0.1.0"

__all__ = [
    "Candidate", "CandidateTable", "DegenerateScaleError", "EvalReport",
    "NoiseModel", "OpCounter", "PlantedSegment", "PrefixSums", "Profile",
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
