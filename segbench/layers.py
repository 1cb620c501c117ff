"""Traced replay of the segmentation stages, one span per public call.

The replay calls each module's public functions in the order
``segment_profile`` does and records a span around every call: name,
``perf_counter_ns`` start and end, parent span and profile id. Spans stay in
memory and are written out once, when the run ends. Counts come from the
program's own side channels (``counter=``, ``trace=``) only while the
signatures still offer them; a count whose channel is gone is reported as
absent.
"""

from __future__ import annotations

import inspect
import json
import time
from pathlib import Path

from segscan import profiles, refinement, scanning, selection, significance, stats

LAYERS = ("profiles", "stats", "scanning", "selection", "refinement", "significance",
          "pipeline")

#: Counts that must repeat exactly across rounds of one seed.
EXACT_COUNTS = ("scanning.windows", "scanning.candidates", "selection.selected",
                "refinement.moves", "refinement.merges", "significance.family_size",
                "significance.called", "stats.prefix_ops")


class Tracer:
    """In-memory span recorder: [name, start_ns, end_ns, parent, profile]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str, profile: int) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), None, parent, profile])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, profile: int, fn, *args, **kwargs):
        idx = self.open(name, profile)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds of self time per layer for spans from index ``first`` on."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(first, len(self.spans)):
            name, start, end, _, _ = self.spans[i]
            out[name.split(".")[0]] += (end - start - child[i]) / 1e9
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "profile")
        with open(path, "w", encoding="utf-8") as out:
            for i, span in enumerate(self.spans):
                out.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")


def _offers(fn, name: str) -> bool:
    return name in inspect.signature(fn).parameters


HAS_COUNTER = (_offers(stats.build_prefix_sums, "counter") and _offers(scanning.scan, "counter")
               and hasattr(stats, "OpCounter"))
HAS_TRACE = _offers(refinement.RefineContext, "trace")


def replay(tracer: Tracer, path: Path, fmt: str, pid: int) -> tuple[tuple, bytes, dict]:
    """Parse, segment stage by stage and serialize one file under spans.

    Returns the result's records, the serialized table and this profile's
    layer counts and byte size.
    """
    counts: dict[str, float] = {}
    root = tracer.open("pipeline.track", pid)
    profile = tracer.call("profiles.read_profile", pid, profiles.read_profile, path, format=fmt)
    seg = tracer.open("pipeline.segment", pid)
    cfg = scanning.ScanConfig().clamped(len(profile))
    counter = stats.OpCounter() if HAS_COUNTER else None
    kw = {"counter": counter} if HAS_COUNTER else {}
    noise = tracer.call("stats.estimate_sigma_mad", pid, stats.estimate_sigma_mad,
                        profile, cfg.background)
    ps = tracer.call("stats.build_prefix_sums", pid, stats.build_prefix_sums, profile, **kw)
    if HAS_COUNTER:
        counts["stats.prefix_ops"] = counter.count
    candidates = tracer.call("scanning.scan", pid, scanning.scan, profile, ps, noise, cfg, **kw)
    if HAS_COUNTER:
        counts["scanning.windows"] = counter.count - counts["stats.prefix_ops"]
    selected = tracer.call("selection.select_nonoverlapping", pid,
                           selection.select_nonoverlapping, candidates, p_s=cfg.p_s)
    moves = [] if HAS_TRACE else None
    kw = {"trace": moves} if HAS_TRACE else {}
    ctx = refinement.RefineContext(ps=ps, noise=noise, cfg=cfg, **kw)
    for s in selected:
        ctx.boundaries.insert(s.start, s.end)
    refined = tracer.call("refinement.refine_all", pid, refinement.refine_all, ctx, selected)
    if HAS_TRACE:
        counts["refinement.moves"] = len(moves)
    merged = tracer.call("refinement.merge_adjacent", pid, refinement.merge_adjacent,
                         ctx, refined)
    result = tracer.call("significance.finalize", pid, significance.finalize, profile, merged,
                         cfg, noise=noise, ps=ps, m_total=len(candidates))
    tracer.close(seg)
    table = tracer.call("profiles.write_segments", pid, profiles.write_segments, result, profile)
    tracer.close(root)
    if HAS_COUNTER:
        counts["scanning.predicted_ops"] = scanning.predicted_op_counts(len(profile), cfg)[1]
    counts.update({
        "points": len(profile),
        "scanning.candidates": len(candidates),
        "selection.selected": len(selected),
        "refinement.merges": len(refined) - len(merged),
        "significance.family_size": len(candidates),
        "significance.called": sum(r.significant for r in result.records),
        "profiles.rows_written": len(result.records),
        "profiles.bytes_read": path.stat().st_size,
    })
    return result.records, table, counts
