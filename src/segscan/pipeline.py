"""End-to-end segmentation: scan, select, refine, merge, finalize."""

from __future__ import annotations

from .profiles import Profile
from .refinement import RefineContext, merge_adjacent, refine_all
from .scanning import ScanConfig, scan
from .selection import select_nonoverlapping
from .significance import SegmentationResult, finalize
from .stats import NoiseModel, build_prefix_sums, estimate_sigma_mad


def segment_profile(profile: Profile, cfg: ScanConfig | None = None, *,
                    sigma: float | None = None, trace: list | None = None) -> SegmentationResult:
    """Segment one profile and return the finalized result.

    Parameters
    ----------
    profile : Profile
        Validated input profile.
    cfg : ScanConfig, optional
        Scan and significance parameters (defaults if omitted).
    sigma : float, optional
        Known noise scale; overrides MAD estimation. Required for profiles
        whose MAD is zero.
    trace : list, optional
        Collects accepted refinement and merge moves.
    """
    cfg = (cfg or ScanConfig()).clamped(len(profile))
    if sigma is not None:
        noise = NoiseModel(sigma=sigma, background=cfg.background)
    else:
        noise = estimate_sigma_mad(profile, cfg.background)
    ps = build_prefix_sums(profile)
    candidates = scan(profile, ps, noise, cfg)
    selected = select_nonoverlapping(candidates, p_s=cfg.p_s)
    ctx = RefineContext(ps=ps, noise=noise, cfg=cfg, trace=trace)
    refined = refine_all(ctx, selected)
    merged = merge_adjacent(ctx, refined)
    # the BH family is every candidate the scan retained, not just the
    # disjoint representatives that survived selection and merging
    return finalize(profile, merged, cfg, noise=noise, ps=ps, m_total=len(candidates))
