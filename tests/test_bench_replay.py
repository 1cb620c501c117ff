"""segbench's traced stage replay still runs against the program.

``segbench/layers.py`` calls the stages one by one and reads its exact
counts from the program's side channels (``counter=``, ``trace=``). A change
that drops one of them leaves the benchmark exiting 0 with counts missing,
so this checks, without changing anything under ``segbench/``, that the
replay finds both channels, reproduces ``segment_profile`` byte for byte and
reports the counts it reads from them.
"""

import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from segscan import (ScanConfig, predicted_op_counts, read_profile, segment_profile,
                     window_lengths, write_segments)

SEGBENCH = Path(__file__).resolve().parents[1] / "segbench"


def _load_layers():
    spec = importlib.util.spec_from_file_location("segbench_layers", SEGBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    # leave segbench/ as it is: no __pycache__ written there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


layers = _load_layers()


def _values(n=3000):
    rng = np.random.default_rng(19)
    values = rng.normal(size=n)
    values[400:460] += 1.5
    values[1200:1225] -= 2.0
    values[2000:2300] += 0.6
    return values


def _write(path, values, fmt):
    if fmt == "plain":
        text = "\n".join(map(repr, values.tolist())) + "\n"
    else:
        rows = (f"chr1\t{10 * i}\t{10 * i + 10}\t{v!r}" for i, v in enumerate(values.tolist()))
        text = 'track type=bedGraph name="replay"\n' + "\n".join(rows) + "\n"
    path.write_text(text, encoding="utf-8")


def _placements(n, cfg):
    # windows of the strided grid plus one right-aligned tail window per scale
    total = 0
    for w in window_lengths(cfg.clamped(n)):
        stride = math.ceil(w / 5)
        total += (n - w) // stride + 1 + ((n - w) % stride > 0)
    return total


def test_side_channels_offered():
    assert layers.HAS_COUNTER
    assert layers.HAS_TRACE


@pytest.mark.parametrize("fmt", ["plain", "bedgraph"])
def test_replay_matches_segment_profile(tmp_path, fmt):
    path = tmp_path / f"track.{fmt}"
    _write(path, _values(), fmt)
    records, table, counts = layers.replay(layers.Tracer(), path, fmt, 0)

    profile = read_profile(path, format=fmt)
    moves = []
    result = segment_profile(profile, trace=moves)
    assert records == result.records
    assert table == write_segments(result, profile)
    assert any(r.significant for r in records)

    n = len(profile)
    assert counts["stats.prefix_ops"] == n
    assert counts["scanning.windows"] == _placements(n, ScanConfig())
    assert counts["scanning.predicted_ops"] == predicted_op_counts(n, ScanConfig())[1]
    # the replay counts the trace before merging; the pipeline's trace goes on
    # to record each merge as ("merge", ...)
    merges = sum(op == "merge" for op, _, _ in moves)
    assert counts["refinement.moves"] == len(moves) - merges > 0
    assert counts["refinement.merges"] == merges
