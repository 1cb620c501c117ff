"""Seeded input generation and scoring for the segscan benchmark.

Inputs and truth come from this file's own numpy code (PCG64 from the seed
argument), never from ``segscan.simulation``, and calls are scored with this
file's own positional masks, never ``segscan.evaluation``: a change to the
program's simulator or scorer must not change what the benchmark measures.
The program only ever sees the written files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The seven-segment layout of the program's canonical long suite (README,
# "simulate --kind long"), copied so the reference setting stays fixed:
# (start, end, mean in sigma units), about 1% of each profile.
LONG_LAYOUT = (
    (5_000, 5_001, 0.83),
    (15_000, 15_005, 0.72),
    (30_000, 30_030, 0.90),
    (45_000, 45_080, 0.76),
    (60_000, 60_150, 0.70),
    (75_000, 75_300, 0.83),
    (90_000, 90_500, 0.60),
)

BIN_BP = 50
DENSE_LAYOUT_SEED = 20150626


@dataclass
class Track:
    """One generated input file and what was planted in it."""

    path: Path
    values: np.ndarray
    planted: list[tuple[int, int]]


@dataclass
class Workload:
    name: str
    fmt: str
    tracks: list[Track]

    @property
    def points(self) -> int:
        return sum(t.values.size for t in self.tracks)

    @property
    def planted_points(self) -> int:
        return sum(e - s for t in self.tracks for s, e in t.planted)


def _long_sparse(rng):
    for _ in range(10):
        values = rng.standard_normal(100_000)
        for s, e, mu in LONG_LAYOUT:
            values[s:e] += mu
        yield values, [(s, e) for s, e, _ in LONG_LAYOUT]


def _dense_layout(rng, n):
    # Runs of planted segments (300-3,000 points, +-0.5-1.0 sigma) with
    # 50-500-point gaps, broken by long background stretches so that about
    # 40% of the points carry signal.
    layout, pos = [], int(rng.integers(50, 500))
    while True:
        length = int(rng.integers(300, 3_001))
        if pos + length > n:
            return layout
        mu = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0))
        layout.append((pos, pos + length, mu))
        if rng.random() < 0.5:
            gap = int(rng.integers(50, 501))
        else:
            gap = int(rng.integers(2_000, 6_501))
        pos += length + gap


def _dense_broad(rng):
    # The layouts are fixed, like the long suite's, so that only the noise
    # changes with the seed and run-to-run timing tracks the program, not
    # the number of planted segments.
    layout_rng = np.random.Generator(np.random.PCG64(DENSE_LAYOUT_SEED))
    for _ in range(2):
        layout = _dense_layout(layout_rng, 100_000)
        values = rng.standard_normal(100_000)
        for s, e, mu in layout:
            values[s:e] += mu
        yield values, [(s, e) for s, e, _ in layout]


def _null_tracks(rng):
    for _ in range(20):
        yield rng.standard_normal(5_000), []


SPECS = {
    "long-sparse": ("plain", _long_sparse),
    "dense-broad": ("plain", _dense_broad),
    "null-tracks": ("bedgraph", _null_tracks),
}


def _text(values: np.ndarray, fmt: str) -> str:
    # repr() round-trips every double, so the program parses exactly the
    # generated values
    if fmt == "plain":
        return "\n".join(map(repr, values.tolist())) + "\n"
    starts = range(0, values.size * BIN_BP, BIN_BP)
    rows = (f"chr1\t{s}\t{s + BIN_BP}\t{v!r}" for s, v in zip(starts, values.tolist()))
    return 'track type=bedGraph name="null"\n' + "\n".join(rows) + "\n"


def generate(name: str, seed: int, out_dir: Path) -> Workload:
    """Write the workload's input files under ``out_dir`` and return them."""
    fmt, make = SPECS[name]
    rng = np.random.Generator(np.random.PCG64(seed))
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = ".txt" if fmt == "plain" else ".bedgraph"
    tracks = []
    for i, (values, planted) in enumerate(make(rng)):
        path = out_dir / f"track_{i:02d}{suffix}"
        path.write_text(_text(values, fmt), encoding="utf-8")
        tracks.append(Track(path, values, planted))
    return Workload(name, fmt, tracks)


def _mask(intervals, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for s, e in intervals:
        mask[s:e] = True
    return mask


def score(workload: Workload, called: list[list[tuple[int, int]]]) -> dict[str, float]:
    """Positional F1 and call rate of significant intervals against truth.

    ``called`` holds, per track, the index intervals flagged significant.
    F1 pools positions over all tracks. Where nothing is planted the
    positive class is empty, so F1 scores the background class instead
    (a position is positive when it is unplanted and uncalled). The call
    rate is significant segments per 10^6 points; where nothing is
    planted every call is false.
    """
    tp = fp = fn = tn = 0
    for track, intervals in zip(workload.tracks, called):
        n = track.values.size
        truth = _mask(track.planted, n)
        pred = _mask(intervals, n)
        tp += int(np.count_nonzero(truth & pred))
        fp += int(np.count_nonzero(~truth & pred))
        fn += int(np.count_nonzero(truth & ~pred))
        tn += int(np.count_nonzero(~truth & ~pred))
    if workload.planted_points:
        f1 = 2 * tp / (2 * tp + fp + fn)
    else:
        f1 = 2 * tn / (2 * tn + fp + fn)
    calls = sum(len(intervals) for intervals in called)
    return {"f1": f1, "calls_per_mb": calls * 1e6 / workload.points}
