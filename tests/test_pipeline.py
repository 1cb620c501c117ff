import hashlib

import numpy as np
import pytest

from segscan import (DegenerateScaleError, PlantedSegment, Profile, ScanConfig,
                     SimSpec, benchmark_suite, positions_mask, score,
                     segment_profile, simulate, write_segments)
from segscan.cli import main

# sha256 over the short suite's output tables and refinement traces; see
# test_golden_suite_bytes.
GOLDEN_SHORT_SUITE_SHA256 = "ad9c58e195f87ae69deb94c7be07e907d09b1cb4056d923be908b95b5005de99"
# sha256 over the short suite's output tables and the (op, start, end, z) of
# every accepted refinement move; see test_golden_suite_decisions.
GOLDEN_SHORT_SUITE_DECISIONS_SHA256 = (
    "f91c36a3eee256af1c9220f14dbe0d1cc7459d8a405b558ec58cb126a9202ce4")
# sha256 over `segscan segment` tables for one bedGraph and one tsv input; see
# test_golden_positional_inputs_bytes.
GOLDEN_POSITIONAL_SHA256 = "b271c9a1b9d31b87b88b4e579be872ab02a32e140e385474459e87380f82094c"


def test_zero_profile_no_records():
    result = segment_profile(Profile(np.zeros(200)), sigma=1.0)
    assert result.records == ()


def test_degenerate_profile_needs_explicit_sigma():
    with pytest.raises(DegenerateScaleError, match="sigma"):
        segment_profile(Profile(np.zeros(200)))


def test_planted_segment_recovered():
    spec = SimSpec(length=3000, planted=(PlantedSegment(1000, 1200, 1.0),),
                   snr=2.0, seed=7)
    profile, truth = simulate(spec)
    result = segment_profile(profile)
    significant = result.significant()
    assert significant
    report = score(positions_mask(significant, 3000), positions_mask(truth, 3000))
    assert report.recall >= 0.95
    assert report.precision >= 0.9


def test_deterministic_output_bytes():
    profile, _ = simulate(SimSpec(length=2000, planted=(PlantedSegment(500, 560, 1.2),),
                                  snr=1.0, seed=11))
    first = write_segments(segment_profile(profile), profile)
    second = write_segments(segment_profile(profile), profile)
    assert first == second


def test_config_and_noise_echoed():
    profile, _ = simulate(SimSpec(length=1000, seed=3))
    cfg = ScanConfig(w_max=100, alpha=0.05)
    result = segment_profile(profile, cfg, sigma=1.0)
    assert result.config.w_max == 100
    assert result.config.alpha == 0.05
    assert result.noise.sigma == 1.0


def test_default_config_carries_no_state():
    # segment_profile without a config runs on one shared ScanConfig; a
    # profile shorter than w_max clamps it, and the profiles after it must
    # still get the full default, record for record
    short, _ = simulate(SimSpec(length=150, planted=(PlantedSegment(40, 90, 1.0),),
                                snr=2.0, seed=5))
    long, _ = simulate(SimSpec(length=3000, planted=(PlantedSegment(1000, 1400, 0.8),),
                               snr=1.0, seed=5))
    for profile in (short, long, short):
        default, explicit = segment_profile(profile), segment_profile(profile, ScanConfig())
        assert default.records == explicit.records
        assert default.config == explicit.config
        assert default.bh_threshold == explicit.bh_threshold


def test_biological_cutoff_flows_through():
    values = np.zeros(800)
    values[100:200] = 0.4   # strong z (length 100) but small mean
    values[400:420] = 3.0
    profile = Profile(values + np.random.default_rng(5).normal(size=800) * 0.1)
    cfg = ScanConfig(p_b=1.0)
    result = segment_profile(profile, cfg, sigma=0.1)
    flagged = {(r.start, r.end): r.significant for r in result.records}
    low = [sig for (s, e), sig in flagged.items() if 90 <= s <= 210]
    high = [sig for (s, e), sig in flagged.items() if 390 <= s <= 430]
    assert low and not any(low)
    assert high and all(high)


def test_trace_hook():
    profile, _ = simulate(SimSpec(length=2000, planted=(PlantedSegment(600, 700, 1.0),),
                                  snr=2.0, seed=9))
    trace = []
    segment_profile(profile, trace=trace)
    assert any(op in ("expand_left", "expand_right", "shrink_left", "shrink_right", "merge")
               for op, *_ in trace)
    for op, before, after in trace:
        if op == "merge":
            left, right = before
            assert after.log_p < min(left.log_p, right.log_p)
        else:
            assert after.log_p < before.log_p


def test_golden_suite_bytes():
    # Pins the exact bytes of every output table and the repr of every
    # refinement trace on the canonical short suite, so refactors that must
    # not change behaviour are checked byte for byte. The digest depends on
    # numpy's generator streams and on the low bits of every log p, which
    # come from stats.py's tail kernel and numpy's log, exp and log1p; a
    # change to either can move it while test_golden_suite_decisions holds.
    digest = hashlib.sha256()
    for profile, _ in benchmark_suite("short", snr=1.0, seed=0):
        trace = []
        digest.update(write_segments(segment_profile(profile, trace=trace), profile))
        digest.update(repr(trace).encode())
    assert digest.hexdigest() == GOLDEN_SHORT_SUITE_SHA256


def test_golden_suite_decisions():
    # Pins what the pipeline decides on the canonical short suite: the
    # output tables and, for every accepted move, its kind, the resulting
    # interval and its z. z comes from prefix sums alone, so unlike the
    # digest above this one does not read the low bits of any log p.
    digest = hashlib.sha256()
    for profile, _ in benchmark_suite("short", snr=1.0, seed=0):
        trace = []
        digest.update(write_segments(segment_profile(profile, trace=trace), profile))
        digest.update(repr([(op, after.start, after.end, after.z)
                            for op, _, after in trace]).encode())
    assert digest.hexdigest() == GOLDEN_SHORT_SUITE_DECISIONS_SHA256


def test_golden_positional_inputs_bytes(tmp_path):
    # Pins `segscan segment` output for the two positional input formats
    # (the suite above reaches the pipeline without parsing text). The
    # bedGraph file opens with a track line and a comment; the tsv file has
    # none. Values are written with repr(), so they parse back exactly.
    profile, _ = benchmark_suite("short", snr=1.0, seed=3)[0]
    values = profile.values.tolist()
    bedgraph = tmp_path / "track.bedgraph"
    bedgraph.write_text('track type=bedGraph name="golden"\n# bin 50 bp\n' + "".join(
        f"chr7\t{50 * i}\t{50 * i + 50}\t{v!r}\n" for i, v in enumerate(values)))
    tsv = tmp_path / "track.tsv"
    tsv.write_text("".join(f"scaffold_2\t{1000 + 7 * i}\t{v!r}\n"
                           for i, v in enumerate(values[::-1])))
    digest = hashlib.sha256()
    for path, fmt in ((bedgraph, "bedgraph"), (tsv, "tsv")):
        out = tmp_path / f"{fmt}.segments.tsv"
        assert main(["segment", str(path), "--format", fmt, "--output", str(out)]) == 0
        digest.update(out.read_bytes())
    assert digest.hexdigest() == GOLDEN_POSITIONAL_SHA256
