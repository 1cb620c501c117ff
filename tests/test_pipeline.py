import hashlib

import numpy as np
import pytest

from segscan import (DegenerateScaleError, PlantedSegment, Profile, ScanConfig,
                     SimSpec, benchmark_suite, positions_mask, score,
                     segment_profile, simulate, write_segments)

# sha256 over the short suite's output tables and refinement traces; see
# test_golden_suite_bytes.
GOLDEN_SHORT_SUITE_SHA256 = "5a22050aa4e99dcd11c96bdddd25a80fa2feecc78c9c75a5509d859cc982e126"


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


def test_trace_and_counter_hooks():
    from segscan import OpCounter
    profile, _ = simulate(SimSpec(length=2000, planted=(PlantedSegment(600, 700, 1.0),),
                                  snr=2.0, seed=9))
    trace = []
    counter = OpCounter()
    segment_profile(profile, trace=trace, counter=counter)
    assert counter.count > 2 * 2000
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
    # numpy's generator streams and on scipy's log_ndtr; a change in either
    # library can move it without any change here.
    digest = hashlib.sha256()
    for profile, _ in benchmark_suite("short", snr=1.0, seed=0):
        trace = []
        digest.update(write_segments(segment_profile(profile, trace=trace), profile))
        digest.update(repr(trace).encode())
    assert digest.hexdigest() == GOLDEN_SHORT_SUITE_SHA256
