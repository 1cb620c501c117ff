"""Walk through the segmentation pipeline stage by stage on one profile.

Generates a noisy profile with four planted segments (including a single
point), then runs each stage separately: prefix sums, the multi-scale scan,
greedy selection, boundary refinement, merging, and the final significance
calls. Run with:

    python demos/01_basic_segmentation.py
"""

from segscan import (PlantedSegment, RefineContext, ScanConfig, SimSpec,
                     build_prefix_sums, estimate_sigma_mad, finalize,
                     merge_adjacent, refine_all, scan, select_nonoverlapping,
                     simulate, write_segments)

# ---------------------------------------------------------------------------
# A profile with four planted segments of very different lengths.
# ---------------------------------------------------------------------------
spec = SimSpec(
    length=4000,
    planted=(
        PlantedSegment(500, 501, 4.0),      # a single hot point
        PlantedSegment(1200, 1230, 1.2),
        PlantedSegment(2000, 2300, 0.8),
        PlantedSegment(3100, 3150, 1.5),
    ),
    snr=1.5,
    seed=20,
)
profile, truth = simulate(spec)
print("planted ground truth:")
for seg in truth:
    print(f"  [{seg.start:5d}, {seg.end:5d})  mu = {seg.mu}")

# ---------------------------------------------------------------------------
# Stage 1: noise scale from the median absolute deviation, prefix sums.
# ---------------------------------------------------------------------------
cfg = ScanConfig()  # w_min 1, w_max 300, rho 1.1, p_s 1e-3, alpha 0.01
noise = estimate_sigma_mad(profile)
ps = build_prefix_sums(profile)
print(f"\nestimated sigma = {noise.sigma:.4f} (true 1.0)")

# ---------------------------------------------------------------------------
# Stage 2: multi-scale scan. Window lengths grow by the factor rho; stride
# is a fifth of the window. Only windows with p <= p_s survive.
# ---------------------------------------------------------------------------
candidates = scan(profile, ps, noise, cfg)
print(f"scan retained {len(candidates)} candidate windows")
print("best five candidates (p ascending):")
for cand in candidates[:5]:
    print(f"  [{cand.start:5d}, {cand.end:5d})  z = {cand.z:7.2f}  log_p = {cand.log_p:9.2f}")

# ---------------------------------------------------------------------------
# Stage 3: greedy selection of disjoint candidates, best p first.
# ---------------------------------------------------------------------------
selected = select_nonoverlapping(candidates)
print(f"\nselected {len(selected)} disjoint segments:")
print("  " + " ".join(f"[{seg.start},{seg.end})" for seg in selected))

# ---------------------------------------------------------------------------
# Stage 4: boundary refinement and merging. Every accepted move strictly
# lowers the segment's p-value; the trace records each one.
# ---------------------------------------------------------------------------
trace = []
ctx = RefineContext(ps=ps, noise=noise, cfg=cfg, trace=trace)
for seg in selected:
    ctx.boundaries.insert(seg.start, seg.end)
refined = refine_all(ctx, selected)
merged = merge_adjacent(ctx, refined)
n_merges = sum(1 for op, *_ in trace if op == "merge")
print(f"\nrefinement accepted {len(trace) - n_merges} boundary moves, then {n_merges} merges")
print("  " + " ".join(f"[{s},{e})" for s, e in
                      sorted(seg.interval for seg in merged)))

# ---------------------------------------------------------------------------
# Stage 5: significance calls with BH FDR control. The correction counts
# every retained candidate, not only the survivors.
# ---------------------------------------------------------------------------
result = finalize(profile, merged, cfg, noise=noise, ps=ps, m_total=len(candidates))
print(f"\nBH threshold = {result.bh_threshold:.3g}; final table:")
print(write_segments(result, profile).decode(), end="")

recovered = sum(
    any(r.start < t.end and t.start < r.end for r in result.significant())
    for t in truth)
print(f"\nrecovered {recovered} of {len(truth)} planted segments "
      f"(single points need amplitude above the p_s bar)")
