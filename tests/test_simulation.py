import codecs

import numpy as np
import pytest

from segscan import (PlantedSegment, ProfileParseError, SimSpec, ValidationError,
                     benchmark_suite, read_truth_manifest, simulate, write_truth_manifest)
from segscan.simulation import (LONG_LAYOUT, LONG_LENGTH, SHORT_LAYOUT,
                                SHORT_LENGTH, write_profile_plain)


class TestSimulate:
    def test_deterministic_bitwise(self):
        spec = SimSpec(length=500, planted=(PlantedSegment(10, 40, 0.9),), snr=1.5, seed=99)
        a, _ = simulate(spec)
        b, _ = simulate(spec)
        assert np.array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self):
        a, _ = simulate(SimSpec(length=500, seed=1))
        b, _ = simulate(SimSpec(length=500, seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_background_mean_bound(self):
        profile, truth = simulate(SimSpec(length=100, seed=7))
        assert truth == []
        assert abs(float(profile.values.mean())) <= 5 / np.sqrt(100)

    def test_planted_mean_bound(self):
        spec = SimSpec(length=100, planted=(PlantedSegment(40, 60, 0.9),), snr=2.0, seed=3)
        profile, truth = simulate(spec)
        segment_mean = float(profile.values[40:60].mean())
        assert abs(segment_mean - 1.8) <= 4 / np.sqrt(20)
        assert truth == [PlantedSegment(40, 60, 0.9)]

    def test_overlapping_planted_rejected(self):
        with pytest.raises(ValidationError, match="overlap"):
            SimSpec(length=100, planted=(PlantedSegment(10, 30, 1.0),
                                         PlantedSegment(25, 40, 0.5)))

    @pytest.mark.parametrize("kwargs, message", [
        (dict(length=0), "length must be >= 1"),
        (dict(length=100, snr=0.0), "snr must be positive"),
        (dict(length=100, snr=np.inf), "snr must be positive"),
    ])
    def test_invalid_spec_rejected(self, kwargs, message):
        with pytest.raises(ValidationError, match=message):
            SimSpec(**kwargs)

    def test_out_of_range_planted_rejected(self):
        with pytest.raises(ValidationError):
            SimSpec(length=100, planted=(PlantedSegment(90, 120, 1.0),))


class TestSuites:
    def test_short_suite_shape(self):
        suite = benchmark_suite("short", snr=1.0, seed=0)
        assert len(suite) == 10
        for profile, truth in suite:
            assert len(profile) == SHORT_LENGTH == 5000
            assert len(truth) == 5
            ordered = sorted(truth, key=lambda s: s.start)
            for a, b in zip(ordered, ordered[1:]):
                assert a.end <= b.start

    def test_long_suite_shape(self):
        suite = benchmark_suite("long", snr=1.0, seed=0)
        assert len(suite) == 10
        for profile, truth in suite:
            assert len(profile) == LONG_LENGTH == 100_000
            assert len(truth) == 7

    def test_layout_spans_required_length_bands(self):
        short_lengths = sorted(seg.length for seg in SHORT_LAYOUT)
        assert short_lengths[0] == 1
        assert short_lengths[-1] >= 200
        assert any(20 <= n <= 50 for n in short_lengths)
        assert any(seg.length == 1 for seg in LONG_LAYOUT)
        assert {seg.mu for seg in LONG_LAYOUT} - {seg.mu for seg in SHORT_LAYOUT} == {0.6}

    def test_suite_reproducible(self):
        first = benchmark_suite("short", snr=2.0, seed=7)
        second = benchmark_suite("short", snr=2.0, seed=7)
        for (pa, ta), (pb, tb) in zip(first, second):
            assert np.array_equal(pa.values, pb.values)
            assert ta == tb

    def test_labels_unique(self):
        labels = [profile.label for profile, _ in benchmark_suite("short", seed=0)]
        assert labels == [f"profile_{i:02d}" for i in range(10)]

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            benchmark_suite("medium")

    def test_long_profile_background_variance(self):
        profile, truth = benchmark_suite("long", snr=1.0, seed=0)[0]
        mask = np.ones(len(profile), dtype=bool)
        for seg in truth:
            mask[seg.start:seg.end] = False
        variance = float(profile.values[mask].var())
        assert abs(variance - 1.0) <= 0.05


class TestManifest:
    def test_round_trip(self):
        truth = {"profile_00": [PlantedSegment(5, 9, 0.72), PlantedSegment(20, 21, 0.9)],
                 "profile_01": [PlantedSegment(0, 300, 0.6)]}
        data = write_truth_manifest(truth, length=5000)
        back, length = read_truth_manifest(data)
        assert back == truth
        assert length == 5000

    def test_round_trip_without_length(self):
        truth = {"p": [PlantedSegment(1, 2, 0.5)]}
        back, length = read_truth_manifest(write_truth_manifest(truth))
        assert back == truth
        assert length is None

    def test_malformed_length_header_names_the_line(self):
        with pytest.raises(ProfileParseError, match="line 2: malformed length header"):
            read_truth_manifest(b"#profile_id\tstart\tend\tmu\n# length=abc\n")

    def test_row_without_four_columns_names_the_line(self):
        with pytest.raises(ProfileParseError, match="line 2: expected 4 columns"):
            read_truth_manifest(b"# length=10\np\t1\t2\n")

    def test_blank_lines_are_skipped(self):
        data = b"\n# length=10\n  \np\t1\t2\t0.5\n\n"
        assert read_truth_manifest(data) == ({"p": [PlantedSegment(1, 2, 0.5)]}, 10)

    def test_byte_order_mark_is_not_part_of_the_header(self):
        truth = {"p": [PlantedSegment(1, 2, 0.5)]}
        data = codecs.BOM_UTF8 + write_truth_manifest(truth, length=10)
        assert read_truth_manifest(data) == (truth, 10)

    def test_byte_order_mark_in_text_is_not_part_of_the_header(self):
        truth = {"p": [PlantedSegment(1, 2, 0.5)]}
        text = "\ufeff" + write_truth_manifest(truth, length=10).decode()
        assert read_truth_manifest(text) == (truth, 10)

    def test_profile_plain_round_trip(self, tmp_path):
        from segscan import read_profile
        profile, _ = simulate(SimSpec(length=200, seed=5))
        path = tmp_path / "p.txt"
        write_profile_plain(profile, path)
        back = read_profile(path)
        assert np.array_equal(back.values, profile.values)
