import math

import numpy as np
import pytest

from segscan import (NoiseModel, Profile, ProfileParseError, ScanConfig,
                     SegmentRecord, ValidationError, parse_profile,
                     read_segments, write_segments)
from segscan.significance import SegmentationResult


class TestParsePlain:
    def test_basic(self):
        profile = parse_profile(b"1.0\n2.0\n-0.5\n")
        assert profile.values.tolist() == [1.0, 2.0, -0.5]
        assert profile.positions is None
        assert profile.label is None

    def test_malformed_line_number(self):
        with pytest.raises(ProfileParseError) as err:
            parse_profile(b"1.0\nabc\n")
        assert err.value.line == 2

    def test_empty_input(self):
        with pytest.raises(ProfileParseError, match="empty input"):
            parse_profile(b"")

    def test_na_rejected(self):
        with pytest.raises(ProfileParseError):
            parse_profile(b"1.0\nNA\n")

    def test_nan_rejected_with_line(self):
        with pytest.raises(ProfileParseError) as err:
            parse_profile(b"1.0\nnan\n3.0\n")
        assert err.value.line == 2

    def test_comments_and_blanks_skipped(self):
        profile = parse_profile(b"# header\n\n1.5\n")
        assert profile.values.tolist() == [1.5]


class TestParseTsv:
    def test_basic(self):
        profile = parse_profile(b"chr1\t100\t0.72\n", format="tsv")
        assert profile.values.tolist() == [0.72]
        assert profile.positions.tolist() == [100]
        assert profile.label == "chr1"

    def test_non_monotone_positions(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            parse_profile(b"chr1\t100\t0.5\nchr1\t90\t0.6\n", format="tsv")

    def test_mixed_labels(self):
        with pytest.raises(ProfileParseError, match="multiple labels"):
            parse_profile(b"chr1\t1\t0.5\nchr2\t2\t0.6\n", format="tsv")

    def test_missing_column(self):
        with pytest.raises(ProfileParseError) as err:
            parse_profile(b"chr1\t100\n", format="tsv")
        assert err.value.line == 1


class TestParseBedgraph:
    def test_basic(self):
        data = b"track type=bedGraph\n# comment\nchr2\t0\t25\t0.5\nchr2\t25\t50\t-0.25\n"
        profile = parse_profile(data, format="bedgraph")
        assert profile.values.tolist() == [0.5, -0.25]
        assert profile.positions.tolist() == [0, 25]
        assert profile.label == "chr2"

    def test_one_value_per_interval_regardless_of_width(self):
        profile = parse_profile(b"c\t0\t1000000\t3.5\n", format="bedgraph")
        assert len(profile) == 1


class TestProfileInvariants:
    def test_values_immutable(self):
        profile = Profile([1.0, 2.0])
        with pytest.raises(ValueError):
            profile.values[0] = 9.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            Profile([1.0, math.inf])

    def test_positions_length_mismatch(self):
        with pytest.raises(ValidationError):
            Profile([1.0, 2.0], positions=[1])

    def test_random_inputs_never_violate_invariants(self):
        # fuzz: parser either raises a package error or returns a valid Profile
        rng = np.random.default_rng(77)
        tokens = ["1.0", "-2.5", "3e-2", "abc", "", "NA", "nan", "inf", "#c", "7"]
        for _ in range(200):
            lines = [tokens[i] for i in rng.integers(0, len(tokens), size=rng.integers(0, 6))]
            data = ("\n".join(lines) + "\n").encode()
            try:
                profile = parse_profile(data)
            except (ProfileParseError, ValidationError):
                continue
            assert len(profile) >= 1
            assert np.all(np.isfinite(profile.values))


def _result(records):
    return SegmentationResult(records=tuple(records), bh_threshold=0.0,
                              config=ScanConfig(), noise=NoiseModel(1.0))


def _record(start, end, mean, z, p, significant=True):
    return SegmentRecord(start=start, end=end, mean=mean, z=z,
                         log_p=math.log(p), significant=significant)


class TestWriteSegments:
    def test_empty_result_header_only(self):
        out = write_segments(_result([]), Profile([0.0, 0.0]), format="tsv")
        assert out == b"#label\tstart\tend\tmean\tz\tp_value\tsignificant\n"

    def test_single_segment(self):
        out = write_segments(_result([_record(0, 3, 0.9, 1.56, 0.119)]),
                             Profile([1.0, 0.9, 0.8]))
        lines = out.decode().splitlines()
        assert len(lines) == 2
        assert lines[1] == ".\t0\t3\t0.9\t1.56\t0.119\t1"

    def test_rows_sorted_by_start(self):
        records = [_record(5, 8, 0.1, 0.2, 0.8, False), _record(0, 2, 0.3, 0.4, 0.7, False)]
        out = write_segments(_result(records), Profile(np.zeros(10) + 0.5))
        starts = [int(line.split("\t")[1]) for line in out.decode().splitlines()[1:]]
        assert starts == sorted(starts)

    def test_bed_has_no_header_and_uses_positions(self):
        profile = Profile([0.5, 0.6], positions=[100, 200], label="chr3")
        out = write_segments(_result([_record(0, 2, 0.55, 1.0, 0.3)]), profile, format="bed")
        assert out == b"chr3\t100\t201\t0.55\t1\t0.3\t1\n"

    def test_deterministic(self):
        records = [_record(0, 4, 1 / 3, 2 / 7, 0.123456789)]
        profile = Profile(np.ones(4) * (1 / 3))
        assert write_segments(_result(records), profile) == write_segments(_result(records), profile)


class TestRoundTrip:
    def test_numeric_fields_reproduced(self):
        rng = np.random.default_rng(5)
        records = []
        cursor = 0
        for _ in range(20):
            start = cursor + int(rng.integers(0, 5))
            end = start + int(rng.integers(1, 30))
            cursor = end
            z = float(rng.normal(scale=10))
            p = float(np.exp(-abs(z)))
            records.append(_record(start, end, float(rng.normal()), z, p,
                                   significant=bool(rng.random() < 0.5)))
        profile = Profile(np.zeros(cursor + 1))
        out = write_segments(_result(records), profile)
        back = read_segments(out)
        assert len(back) == len(records)
        for original, parsed in zip(records, back):
            assert (parsed.start, parsed.end) == (original.start, original.end)
            # 6 significant digits in the table
            assert parsed.mean == pytest.approx(original.mean, rel=1e-5)
            assert parsed.z == pytest.approx(original.z, rel=1e-5)
            assert parsed.p_value == pytest.approx(original.p_value, rel=1e-5)
            assert parsed.significant == original.significant

    def test_tiny_p_clamps_not_zero(self):
        record = SegmentRecord(start=0, end=5, mean=9.0, z=50.0,
                               log_p=-2000.0, significant=True)
        assert math.exp(record.log_p) == 0.0
        assert record.p_value > 0.0
        out = write_segments(_result([record]), Profile(np.ones(5)))
        parsed = read_segments(out)[0]
        assert parsed.p_value > 0.0


def test_segment_record_validation():
    with pytest.raises(ValidationError):
        SegmentRecord(start=3, end=3, mean=0.0, z=0.0, log_p=0.0, significant=False)
