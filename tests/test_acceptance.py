"""Acceptance gate: every exit criterion, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. The suites regenerate deterministically from fixed seeds, so
these results are stable across runs and machines.
"""

import math
import time

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from segscan import (Candidate, NoiseModel, Profile, ScanConfig,
                     bh_select_log, brute_force_segment, build_prefix_sums,
                     enumerate_candidates_dense, estimate_sigma_mad, finalize,
                     greedy_disjoint, positions_mask, predicted_op_counts,
                     scan, score, segment_profile, select_nonoverlapping,
                     simulate, benchmark_suite, PlantedSegment, SimSpec)
from segscan.cli import main
from segscan.stats import OpCounter, log_p_value_batch, segment_stats

from candidate_tables import table_from_candidates


def _passed(criterion, detail=""):
    suffix = f"  ({detail})" if detail else ""
    print(f"\n[PASS] {criterion}{suffix}")


@pytest.fixture(scope="module")
def short_suite_snr2():
    return benchmark_suite("short", snr=2.0, seed=0)


@pytest.fixture(scope="module")
def short_suite_snr1():
    return benchmark_suite("short", snr=1.0, seed=0)


def test_c01_memoization_correctness():
    """Scanned mean/z/p from prefix sums match direct recomputation, 100 profiles."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240601)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(200, 10_001))
        values = rng.normal(size=n)
        if rng.random() < 0.5:
            start = int(rng.integers(0, n - 50))
            values[start:start + int(rng.integers(1, 50))] += rng.uniform(0.5, 3.0)
        profile = Profile(values)
        noise = NoiseModel(1.0)
        ps = build_prefix_sums(profile)
        table = scan(profile, ps, noise, ScanConfig(p_s=1.0))
        lengths = table.end - table.start
        for w in np.unique(lengths).tolist():
            group = lengths == w
            starts = table.start[group]
            direct_sums = sliding_window_view(values, w)[starts].sum(axis=1)
            direct_mean = direct_sums / w
            direct_z = (direct_sums / w) * np.sqrt(w) / noise.sigma
            direct_log_p = log_p_value_batch(direct_z)
            prefix_mean = (ps[starts + w] - ps[starts]) / w
            got_z = table.z[group]
            got_log_p = table.log_p[group]
            # atol covers near-zero means where a pure relative bound is ill-posed
            assert np.allclose(prefix_mean, direct_mean, rtol=1e-9, atol=1e-9)
            assert np.allclose(got_z, direct_z, rtol=1e-9, atol=1e-9)
            assert np.allclose(got_log_p, direct_log_p, rtol=1e-9, atol=1e-9)
            checked += starts.size
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed("criterion 1: memoization correctness",
            f"{checked} windows across 100 profiles in {elapsed:.1f}s")


def test_c02_operation_count_claim():
    """Instrumented scan stays within 3x the memoized prediction; memoized < brute/10."""
    cfg = ScanConfig()
    c_brute, c_memo = predicted_op_counts(5000, cfg)
    # constant 10 verified numerically before being asserted
    assert c_memo < c_brute / 10, (c_brute, c_memo)
    rng = np.random.default_rng(2)
    profile = Profile(rng.normal(size=5000))
    counter = OpCounter()
    ps = build_prefix_sums(profile, counter)
    scan(profile, ps, NoiseModel(1.0), cfg, counter=counter)
    assert counter.count <= 3 * c_memo
    _passed("criterion 2: operation counts",
            f"measured {counter.count} <= 3 x {c_memo}; brute force {c_brute}")


def test_c03_oracle_equivalence():
    """Exhaustive-grid scan + select equals the brute-force oracle on 50 profiles."""
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = int(rng.integers(40, 201))
        values = rng.normal(size=n)
        if trial % 2 == 0:
            start = int(rng.integers(0, n - 10))
            values[start:start + int(rng.integers(1, 10))] += rng.uniform(1.0, 4.0)
        profile = Profile(values)
        noise = NoiseModel(1.0)
        cfg = ScanConfig()
        pipeline = select_nonoverlapping(
            scan(profile, build_prefix_sums(profile), noise, cfg, exhaustive=True))
        oracle = brute_force_segment(profile, noise, max_n=200, cfg=cfg)
        assert [c.interval for c in pipeline] == [c.interval for c in oracle], f"trial {trial}"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _passed("criterion 3: oracle equivalence", f"50 profiles in {elapsed:.1f}s")


def test_c04_greedy_selection_property():
    """No discarded candidate is disjoint from all selected candidates ranked above it."""
    rng = np.random.default_rng(4)
    for _ in range(5):
        candidates = []
        for _ in range(1000):
            start = int(rng.integers(0, 4950))
            end = start + int(rng.integers(1, 50))
            log_p = float(np.log(rng.uniform(1e-15, 1e-3)))
            candidates.append(Candidate(start, end, 5.0, log_p))
        picked = select_nonoverlapping(table_from_candidates(candidates))
        chosen = {c.interval for c in picked}
        committed = []
        for cand in sorted(candidates, key=lambda c: c.sort_key):
            overlaps = any(cand.start < e and s < cand.end for s, e in committed)
            if not overlaps:
                assert cand.interval in chosen
                committed.append(cand.interval)
        assert len(committed) == len(chosen)
    _passed("criterion 4: greedy selection property", "5 x 1000-candidate instances")


def test_c05_refinement_monotonicity_and_disjointness(short_suite_snr1):
    """Across the short suite: accepted moves strictly improve p; output disjoint; merge fixpoint."""
    moves = 0
    for profile, _ in short_suite_snr1:
        trace = []
        result = segment_profile(profile, trace=trace)
        for op, before, after in trace:
            if op == "merge":
                left, right = before
                assert after.log_p < left.log_p and after.log_p < right.log_p
            else:
                assert after.log_p < before.log_p
        moves += len(trace)
        records = result.records
        for a, b in zip(records, records[1:]):
            assert a.end <= b.start
        # merge fixpoint: no consecutive pair's span beats both members
        noise = estimate_sigma_mad(profile)
        ps = build_prefix_sums(profile)
        for a, b in zip(records, records[1:]):
            _, _, span_log_p = segment_stats(ps, noise, a.start, b.end)
            assert not (span_log_p < a.log_p and span_log_p < b.log_p)
    _passed("criterion 5: refinement monotonicity and disjointness",
            f"{moves} accepted moves checked")


def test_c06_simulation_recovery(short_suite_snr2, short_suite_snr1):
    """Mean F1 >= 0.9 at SNR 2.0 (oracle-validated); full recovery of length>=20 at SNR 1.0."""
    pipeline_f1, oracle_f1 = [], []
    for profile, truth in short_suite_snr2:
        result = segment_profile(profile)
        report = score(positions_mask(result.significant(), len(profile)),
                       positions_mask(truth, len(profile)))
        pipeline_f1.append(report.f1)
        # oracle route: dense enumeration + linear greedy + the same finalize
        noise = estimate_sigma_mad(profile)
        pool = enumerate_candidates_dense(profile, noise)
        oracle_result = finalize(profile, greedy_disjoint(pool), ScanConfig(), noise=noise,
                                 ps=build_prefix_sums(profile), m_total=len(pool))
        oracle_sig = [r for r in oracle_result.records if r.significant]
        oracle_f1.append(score(positions_mask(oracle_sig, len(profile)),
                               positions_mask(truth, len(profile))).f1)
    # validate the enforced threshold against the oracle before asserting it
    assert float(np.mean(oracle_f1)) >= 0.9, oracle_f1
    assert float(np.mean(pipeline_f1)) >= 0.9, pipeline_f1

    missed = []
    for profile, truth in short_suite_snr1:
        significant = segment_profile(profile).significant()
        for planted in truth:
            if planted.length < 20:
                continue
            hit = any(r.start < planted.end and planted.start < r.end
                      for r in significant)
            if not hit:
                missed.append((profile.label, planted))
    assert not missed, missed
    _passed("criterion 6: simulation recovery",
            f"pipeline F1 {np.mean(pipeline_f1):.3f}, oracle F1 {np.mean(oracle_f1):.3f}, "
            f"0 missed length>=20 segments at SNR 1.0")


def test_c07_single_point_detection():
    """A 6-sigma singleton in a null profile is called significant in >= 9 of 10 seeds."""
    hits = 0
    for seed in range(10):
        spec = SimSpec(length=5000, planted=(PlantedSegment(2500, 2501, 6.0),),
                       snr=1.0, seed=100 + seed)
        profile, _ = simulate(spec)
        result = segment_profile(profile)
        hits += any(r.start == 2500 and r.end == 2501 and r.significant
                    for r in result.records)
    assert hits >= 9, hits
    _passed("criterion 7: single-point detection", f"{hits}/10 seeds")


def test_c08_bh_correctness():
    """bh_select_log matches the quadratic reference on 1000 instances plus the worked example."""
    threshold, mask = bh_select_log(np.log([0.001, 0.02, 0.04]), alpha=0.05)
    assert mask.tolist() == [True, True, True]
    assert math.exp(threshold) == pytest.approx(0.04)

    rng = np.random.default_rng(8)
    for _ in range(1000):
        m = int(rng.integers(1, 50))
        p = (rng.uniform(size=m) ** rng.integers(1, 4)).tolist()
        alpha = float(rng.uniform(0.005, 0.25))
        _, mask = bh_select_log(np.log(p), alpha)
        order = sorted(range(m), key=lambda i: p[i])
        k = 0
        for rank in range(1, m + 1):
            if p[order[rank - 1]] <= rank * alpha / m:
                k = rank
        expected = [False] * m
        for rank in range(k):
            expected[order[rank]] = True
        assert mask.tolist() == expected
    _passed("criterion 8: BH correctness", "1000 random instances + worked example")


def test_c09_performance_scaling():
    """Long suite (20x the data, sparse signal) costs < 25x the short suite and < 30 s."""
    short = benchmark_suite("short", snr=1.0, seed=0)
    long_ = benchmark_suite("long", snr=1.0, seed=0)

    def run_suite(suite):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for profile, _ in suite:
                segment_profile(profile)
            best = min(best, time.perf_counter() - t0)
        return best

    t_short = run_suite(short)
    t_long = run_suite(long_)
    assert t_long < 30.0
    assert t_long < 25.0 * t_short, (t_short, t_long)
    _passed("criterion 9: performance scaling",
            f"short {t_short:.3f}s, long {t_long:.3f}s, ratio {t_long / t_short:.1f}x")


def test_c10_determinism(tmp_path):
    """Identical inputs and flags give byte-identical outputs, regardless of --jobs."""
    from segscan.simulation import write_profile_plain
    paths = []
    for i in range(4):
        profile, _ = simulate(SimSpec(length=3000,
                                      planted=(PlantedSegment(800, 900, 1.0),),
                                      snr=1.5, seed=600 + i))
        path = tmp_path / f"input_{i}.txt"
        write_profile_plain(profile, path)
        paths.append(str(path))

    outputs = {}
    for run, jobs in (("first", 1), ("second", 1), ("parallel", 4)):
        out_dir = tmp_path / run
        assert main(["segment", *paths, "--output", str(out_dir),
                     "--jobs", str(jobs)]) == 0
        outputs[run] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    assert outputs["first"] == outputs["second"]
    assert outputs["first"] == outputs["parallel"]
    _passed("criterion 10: determinism", "repeat runs and --jobs 1 vs 4 byte-identical")
