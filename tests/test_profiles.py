import codecs
import decimal
import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segscan import (NoiseModel, Profile, ProfileParseError, ScanConfig,
                     SegmentRecord, SegscanError, ValidationError, parse_profile,
                     read_segments, read_truth_manifest, write_segments)
from segscan import profiles
from segscan.profiles import _parse_lines
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

    def test_mixed_labels(self):
        with pytest.raises(ProfileParseError, match="multiple labels"):
            parse_profile(b"chr1\t1\t0.5\nchr2\t2\t0.6\n", format="tsv")

    def test_missing_column(self):
        with pytest.raises(ProfileParseError) as err:
            parse_profile(b"chr1\t100\n", format="tsv")
        assert err.value.line == 1

    @pytest.mark.parametrize("fmt, row", [
        ("tsv", "c\t99999999999999999999\t0.5"),
        ("tsv", "c\t-9223372036854775809\t0.5"),
        ("bedgraph", "c\t9223372036854775808\t9223372036854775809\t0.5"),
    ])
    def test_position_beyond_int64_names_its_line(self, fmt, row):
        first = "c\t-5\t0.25" if fmt == "tsv" else "c\t-5\t0\t0.25"
        with pytest.raises(ProfileParseError, match="64-bit") as err:
            parse_profile(f"{first}\n{row}\n".encode(), format=fmt)
        assert err.value.line == 2

    def test_int64_extremes_accepted(self):
        profile = parse_profile(b"c\t-9223372036854775808\t0.5\nc\t9223372036854775807\t1.5\n",
                                format="tsv")
        assert profile.positions.tolist() == [-2**63, 2**63 - 1]


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


def _rows(fmt, labels, positions):
    return "".join(f"{label}\t{pos}\t" + (f"{pos + 10}\t" if fmt == "bedgraph" else "")
                   + f"{i / 4}\n" for i, (label, pos) in enumerate(zip(labels, positions)))


# each test runs on the bulk pass (parse_profile on clean input) and on the
# line loop it defers to
@pytest.mark.parametrize("parse", [parse_profile, _parse_lines], ids=["bulk", "loop"])
@pytest.mark.parametrize("fmt", ["tsv", "bedgraph"])
class TestTrackLines:
    @pytest.mark.parametrize("label", ["trackA", "tracking", "track_y"])
    def test_label_starting_with_track_is_data(self, parse, fmt, label):
        profile = parse(_rows(fmt, [label] * 3, [10, 20, 30]), fmt)
        assert profile.label == label
        assert profile.positions.tolist() == [10, 20, 30]
        assert profile.values.tolist() == [0.0, 0.25, 0.5]

    @pytest.mark.parametrize("label", ["tracking", "track_y"])
    def test_row_labelled_like_a_track_is_not_dropped(self, parse, fmt, label):
        text = _rows(fmt, ["chr1", label, "chr1"], [10, 20, 30])
        with pytest.raises(ProfileParseError, match="multiple labels") as err:
            parse(text, fmt)
        assert err.value.line == 2

    @pytest.mark.parametrize("header", ["track", "track type=bedGraph name=x", "  track\tx=1"])
    def test_track_line_is_skipped(self, parse, fmt, header):
        profile = parse(header + "\n" + _rows(fmt, ["c"] * 2, [10, 20]), fmt)
        assert profile.positions.tolist() == [10, 20]


@pytest.mark.parametrize("parse", [parse_profile, _parse_lines], ids=["bulk", "loop"])
@pytest.mark.parametrize("fmt", ["tsv", "bedgraph"])
@pytest.mark.parametrize("third, previous", [(15, 20), (20, 20)], ids=["decreasing", "repeated"])
def test_non_increasing_position_names_its_line(parse, fmt, third, previous):
    text = "# header\n" + _rows(fmt, ["c"] * 4, [10, previous, third, 40])
    with pytest.raises(ProfileParseError, match="strictly increasing") as err:
        parse(text, fmt)
    assert str(err.value) == f"line 4: positions must be strictly increasing ({previous} then {third})"


@pytest.mark.parametrize("parse", [parse_profile, _parse_lines], ids=["bulk", "loop"])
@pytest.mark.parametrize("text, message", [
    ("c\t0\tabc\t0.5\nc\t10\t5\t0.25\n", "line 1: malformed end field 'abc'"),
    ("c\t0\t10\t0.5\nc\t10\t5\t0.25\n", "line 2: end 5 is not above start 10"),
    ("c\t0\t10\t0.5\nc\t10\t10\t0.25\n", "line 2: end 10 is not above start 10"),
    ("c\t0\t10\t0.5\nc\t10\t9223372036854775808\t0.25\n",
     "line 2: end '9223372036854775808' does not fit a 64-bit integer"),
    # rows may touch but not overlap: these two once parsed to positions [0, 50]
    ("c\t0\t100\t0.5\nc\t50\t150\t0.25\n",
     "line 2: start 50 is before the previous row's end 100"),
], ids=["malformed", "below", "equal", "beyond-int64", "overlap"])
def test_bad_bedgraph_end_names_its_line(parse, text, message):
    with pytest.raises(ProfileParseError) as err:
        parse(text, "bedgraph")
    assert str(err.value) == message


@pytest.mark.parametrize("read", [parse_profile, read_segments, read_truth_manifest])
def test_source_must_be_str_or_bytes(read):
    with pytest.raises(ValidationError, match="expected str or bytes input, got BytesIO"):
        read(io.BytesIO(b"1.0\n"))


@pytest.mark.parametrize("fmt, data", [
    ("plain", b"# caf\xe9\n1.0\n"),
    ("plain", b"1.0\n2.5\xff\n"),
    ("tsv", b"# r\xe9gion\nc\t10\t0.5\n"),
    ("bedgraph", b"chr1\t0\t50\t0.5\nchr\xc5\t50\t100\t0.5\n"),
], ids=["plain-header", "plain-body", "tsv-header", "bedgraph-body"])
def test_non_utf8_bytes_are_a_parse_error(fmt, data):
    with pytest.raises(ProfileParseError, match="input is not UTF-8 text"):
        parse_profile(data, fmt)


class TestByteOrderMark:
    # a UTF-8 byte-order mark, as some editors write it, is not part of line 1
    BOM = codecs.BOM_UTF8

    def test_plain(self):
        assert parse_profile(self.BOM + b"1.0\n2.5\n").values.tolist() == [1.0, 2.5]

    def test_bedgraph_track_line_is_skipped(self):
        data = self.BOM + b"track type=bedGraph\nchr2\t0\t25\t0.5\nchr2\t25\t50\t-0.25\n"
        profile = parse_profile(data, format="bedgraph")
        assert profile.values.tolist() == [0.5, -0.25]
        assert profile.label == "chr2"

    @pytest.mark.parametrize("rows", [1, 3])
    def test_tsv_label(self, rows):
        data = self.BOM + "".join(f"chr1\t{i}\t0.5\n" for i in range(rows)).encode()
        profile = parse_profile(data, format="tsv")
        assert profile.label == "chr1"
        assert profile.positions.tolist() == list(range(rows))

    def test_segment_table_header(self):
        profile = Profile(np.ones(5))
        table = write_segments(_result([_record(0, 5, 1.0, 2.0, 0.5)]), profile)
        assert read_segments(self.BOM + table) == read_segments(table)

    # text decoded as "utf-8" rather than "utf-8-sig" still starts with one
    def test_plain_text(self):
        assert parse_profile("\ufeff1.0\n2.5\n").values.tolist() == [1.0, 2.5]

    def test_segment_table_header_text(self):
        profile = Profile(np.ones(5))
        table = write_segments(_result([_record(0, 5, 1.0, 2.0, 0.5)]), profile).decode()
        assert read_segments("\ufeff" + table) == read_segments(table)


class TestUnknownFormat:
    @pytest.mark.parametrize("data", [b"# x\n", b"1.0\n"])
    def test_rejected_before_any_line_is_read(self, data):
        with pytest.raises(ValidationError, match="unknown profile format 'bogus'"):
            parse_profile(data, format="bogus")


def _outcome(parse, text, fmt):
    try:
        profile = parse(text, fmt)
    except SegscanError as exc:
        return type(exc), str(exc)
    positions = None if profile.positions is None else profile.positions.tolist()
    return profile.values.tobytes(), positions, profile.label


_SEPARATORS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]
_SKIPPED = ["", "   ", "# comment", "  #x\t1\t2\t3", "track type=bedGraph", "track",
            "track\t1\t2\t3", "\t\t\t"]
_VALUE_DEFECTS = {"nonfinite": ["nan", "inf", "-Infinity", "1e400"],
                  "malformed": ["NA", "", "1_000", "+5", "0x1p3", "1,5"]}


@st.composite
def _profile_texts(draw):
    fmt = draw(st.sampled_from(["plain", "tsv", "bedgraph"]))
    n = draw(st.integers(1, 12))
    values = [repr(v) for v in draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                             min_size=n, max_size=n))]
    positions = np.cumsum(draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n))).tolist()
    # a clean bedGraph row ends 50 past its start or, if sooner, where the next row starts
    ends = [min(pos + 50, nxt) for pos, nxt in zip(positions, positions[1:] + [math.inf])]
    pad = st.sampled_from(["", " ", "  ", "\u00a0", "\x1f"])
    # a clean text takes the bulk pass; a defect on some rows makes it defer
    defect = draw(st.sampled_from([None, "nonfinite", "malformed", "fields", "label",
                                   "position", "order", "end", "overlap", "skipped"]))
    hit = set(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))) if defect else ()
    rows = []
    for i, (value, pos, end) in enumerate(zip(values, positions, ends)):
        if defect in _VALUE_DEFECTS and i in hit:
            value = draw(st.sampled_from(_VALUE_DEFECTS[defect]))
        value = draw(pad) + value + draw(pad)
        if fmt == "plain":
            rows.append(value)
            continue
        fields = ["chr1", str(pos)] + ([str(end)] if fmt == "bedgraph" else []) + [value]
        if i in hit and defect == "fields":
            fields = fields + ["extra"] if draw(st.booleans()) else fields[:-1]
        elif i in hit and defect == "label":
            fields[0] = draw(st.sampled_from(["chr2", "tracking"]))
        elif i in hit and defect == "position":
            fields[1] = draw(st.sampled_from(["+5", "1_000", " 12", "x", "", str(2 ** 70),
                                              "5\u01fe", "\u0663"]))
        elif i in hit and defect == "order" and i > 0:
            fields[1] = str(positions[i - 1] - draw(st.integers(0, 3)))
        elif i in hit and defect == "end" and fmt == "bedgraph":
            fields[2] = draw(st.sampled_from(["abc", "", "1.5", str(pos), str(pos - 7),
                                              str(2 ** 70)]))
        elif i in hit and defect == "overlap" and fmt == "bedgraph" and i < n - 1:
            fields[2] = str(positions[i + 1] + draw(st.integers(1, 3)))
        rows.append("\t".join(fields))
    if defect == "skipped":
        for i in sorted(hit, reverse=True):
            rows.insert(i + 1, draw(st.sampled_from(_SKIPPED)))
    header = draw(st.lists(st.sampled_from(_SKIPPED), max_size=2))
    text = "".join(line + draw(st.sampled_from(_SEPARATORS)) for line in header + rows)
    return text[:-1] if draw(st.booleans()) else text, fmt


def _no_line_loop(text, fmt):
    raise AssertionError("the bulk pass deferred to the line loop")


@st.composite
def _near_midpoint(draw):
    # the exact decimal halfway between two adjacent doubles, cut short or
    # lengthened: the inputs where rounding twice could go wrong
    value = draw(st.floats(min_value=1e-6, max_value=1e6))
    with decimal.localcontext(prec=200):
        text = format((decimal.Decimal(value) + decimal.Decimal(math.nextafter(value, 2e6))) / 2,
                      "f")
    text = text[:draw(st.integers(min(3, len(text)), len(text)))]
    return text + draw(st.sampled_from(["", "0", "1", "9"]))


@st.composite
def _decimal_line(draw):
    digits = draw(st.text("0123456789", min_size=1, max_size=22))
    point = draw(st.integers(0, len(digits)))
    line = draw(st.one_of(
        st.just(digits[:point] + "." + digits[point:]),
        st.just(digits),
        _near_midpoint(),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(allow_nan=False, allow_infinity=False).map("{:.17e}".format),
        st.sampled_from(["nan", "inf", "", ".", "-", "--1", "1-5", "5-", "1.2.3", "0x10",
                         "1,5", "# c", "1e400", " 2.5", "2.5\t"])))
    sign = draw(st.sampled_from(["", "", "-", "+"]))
    zeros = draw(st.sampled_from(["", "", "0", "000"]))
    line = sign + zeros + line
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(line)))
        line = line[:at] + draw(st.sampled_from(["_", "\x1c", "e", "e-5"])) + line[at:]
    return line


@st.composite
def _decimal_texts(draw):
    lines = draw(st.lists(_decimal_line(), min_size=1, max_size=12))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestBulkParse:
    # the bulk pass must return exactly what the line loop returns, or
    # defer to it, so every error keeps its message and line number
    @settings(max_examples=60, deadline=None)
    @given(case=_profile_texts())
    @example(case=("0.5\nnan\n-1.0\n", "plain"))
    @example(case=("track x\nc\t0\t50\t0.5\nc\t50\t100\tinf\n", "bedgraph"))
    # the tab total is right (4 on 2 rows) but row 2 is short
    @example(case=("c\t1\t0.5\tc\n2\t0.75\n", "tsv"))
    @example(case=("c\t0\t50\t0.5\t9\nc\t50\t0.25\n", "bedgraph"))
    @example(case=("c\t0\tabc\t0.5\nc\t10\t5\t0.25\n", "bedgraph"))
    # numpy's reader takes "5\u01fe" for 512 and strips "\x1f"; int() and
    # float() reject both, and int() reads the Arabic-Indic digit as 3
    @example(case=("c\t5\u01fe\t0.5\n", "tsv"))
    @example(case=("c\t1\t0.5\nc\t\u0663\t0.25\n", "tsv"))
    @example(case=("c\t0\t50\t\x1f0.5\n", "bedgraph"))
    @example(case=("c\t\x1f7\t0.5\n", "tsv"))
    @example(case=("0.5\x1f\n1.5\n", "plain"))
    # numpy's separator reader takes any whitespace run for "\n" and reads
    # "nan(123)", which float() rejects
    @example(case=("1\n \n2 3\n", "plain"))
    @example(case=("1 2\n", "plain"))
    @example(case=("1 2\n\n3\n", "plain"))
    @example(case=("1\t2\n\n3\n", "plain"))
    @example(case=("nan(123)\n", "plain"))
    @example(case=("infinity\n", "plain"))
    @example(case=(".5\n5.\n", "plain"))
    @example(case=("1e\n", "plain"))
    # line ends: CRLF, a lone CR beside a blank line, a CR inside a header
    # line, no final newline
    @example(case=("1\r\n2\r\n", "plain"))
    @example(case=("1\r2\n\n3\n", "plain"))
    @example(case=("# h\r1.5\n2\n", "plain"))
    @example(case=("1\n2", "plain"))
    # lone CR and CRLF mixed, in either order; a lone CR inside a header line
    # or a data line of a CRLF file, where a line without digits (".") must
    # not vanish from the integer read
    @example(case=("1\r\n2\r3\r\n", "plain"))
    @example(case=("1\r2\r\n3\n", "plain"))
    @example(case=("# h\r\n# g\r1\r\n2\r\n", "plain"))
    @example(case=("1\r\n.\r5\r\n6\r\n", "plain"))
    @example(case=("1\r\n5\r\r\n\r6\r\n", "plain"))
    @example(case=("c\t1\t0.5\r\nc\t2\t0.25\rc\t3\t1\r\n", "tsv"))
    # non-ASCII text: in a header line the bulk pass reads past it, in the
    # body it defers (int() and float() read the Arabic-Indic digit as 1)
    @example(case=("# temp\u00e9rature\n0.5\n1.5\n", "plain"))
    @example(case=("track name=\u00e9\nc\t1\t0.5\n", "tsv"))
    @example(case=("0.5\n\u0661.5\n", "plain"))
    @example(case=("0.5\n1\u20282\n", "plain"))
    def test_matches_line_loop(self, case):
        text, fmt = case
        assert _outcome(parse_profile, text, fmt) == _outcome(_parse_lines, text, fmt)

    # a defect on one row deep in a long file must still reach the line
    # loop (the first case has no defect)
    @pytest.mark.parametrize("row, line", [
        (0, "chrX\t0\t10\t0.0"),
        (2500, "chrY\t25000\t25010\t0.5"),
        (2999, "chrX\t29990\t30000\tnan"),
        (1500, "chrX\t15000\t0.5"),
        (2048, "chrX\t20480\t20490\t0.5\tname"),
        (1024, "chrX\t1e4\t10250\t0.5"),
        (2047, ""),
        (2600, "chrX\t26000\t26000\t0.5"),
        (1100, "chrX\t11000\tend\t0.5"),
    ])
    def test_late_block_defect_matches_line_loop(self, row, line):
        rows = [f"chrX\t{10 * i}\t{10 * i + 10}\t{i / 7!r}" for i in range(3000)]
        rows[row] = line
        text = "track type=bedGraph\n" + "\n".join(rows) + "\n"
        assert (_outcome(parse_profile, text, "bedgraph")
                == _outcome(_parse_lines, text, "bedgraph"))

    @pytest.mark.parametrize("row", [0, 50_000, 99_999])
    @pytest.mark.parametrize("line", ["NA", "1 2", "", "nan(123)", "\x0c"])
    def test_late_plain_defect_matches_line_loop(self, row, line):
        rows = [repr(i / 7) for i in range(100_000)]
        rows[row] = line
        text = "\n".join(rows) + "\n"
        assert _outcome(parse_profile, text, "plain") == _outcome(_parse_lines, text, "plain")

    # each decimal line is read as an integer and scaled once, or read with
    # float(); the float reader stands in where long double is not x87's
    @settings(max_examples=150, deadline=None)
    @pytest.mark.parametrize("reader", ["exact", "float"])
    @given(text=_decimal_texts())
    @example(text="-0.0\n.5\n5.\n-.5\n")
    # a tie, the largest int64, the first value past it, a 20-digit mantissa
    @example(text="9007199254740993\n9223372036854775807\n")
    @example(text="9223372036854775808\n-9223372036854775809\n")
    @example(text="1234567890.1234567890\n")
    # 10**27 is the largest exact power of ten in a 64-bit significand
    @example(text="0.000000000000000000000000001\n0.0000000000000000000000000001\n")
    @example(text="1.2.3\n4.5\n")
    @example(text="5-\n6\n7\n")
    @example(text="1\n-\n2\n")
    @example(text="1e-05\n-2.5\n")
    # long double rounds these onto a midpoint between two doubles, and a
    # second rounding would go to the wrong one
    @example(text="7.43839337639475362\n0.7339112384472734063\n-6.385120517023365583\n")
    def test_decimals_match_line_loop(self, reader, text):
        with pytest.MonkeyPatch.context() as patch:
            if reader == "float":
                patch.setattr(profiles, "_X87", False)
            expected = _outcome(_parse_lines, text, "plain")
            assert _outcome(parse_profile, text, "plain") == expected
            assert _outcome(parse_profile, text.encode(), "plain") == expected

    # lines scaling cannot promise: rounded onto a midpoint between two
    # doubles, an int64 overflow, 28 decimals, a lost sign, an exponent
    @pytest.mark.parametrize("line", ["7.43839337639475362", "0.7339112384472734063",
                                      "-6.385120517023365583", "-12345678901234567890",
                                      "0.0000000000000000000000000001", "-0.0", "1e-05"])
    def test_lines_float_must_read_take_the_bulk_pass(self, monkeypatch, line):
        text = f"0.5\n{line}\n-2.25\n"
        monkeypatch.setattr(profiles, "_parse_lines", _no_line_loop)
        expected = np.array([0.5, float(line), -2.25])
        assert parse_profile(text).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("header", ["track type=x", "# values", "# temp\u00e9rature"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_clean_plain_text_takes_the_bulk_pass(self, monkeypatch, header, newline):
        text = newline.join([header, "0.5", "-2.25", "1e-3"])
        expected = _parse_lines(text, "plain")
        monkeypatch.setattr(profiles, "_parse_lines", _no_line_loop)
        assert parse_profile(text).values.tobytes() == expected.values.tobytes()

    # many chunks, a few lines float() must read (and in the %.17e style,
    # so many that the chunk goes to the float reader)
    @pytest.mark.parametrize("reader", ["exact", "float"])
    @pytest.mark.parametrize("style", ["{!r}", "{:.17e}"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_long_clean_text_takes_the_bulk_pass(self, monkeypatch, reader, style, newline):
        values = np.random.default_rng(3).standard_normal(20_000)
        values[::997] *= 1e-6
        lines = list(map(style.format, values.tolist()))
        text = newline.join(lines).encode()
        assert len(text) > 2 * profiles._CHUNK
        monkeypatch.setattr(profiles, "_parse_lines", _no_line_loop)
        if reader == "float":
            monkeypatch.setattr(profiles, "_X87", False)
        profile = parse_profile(text)
        assert profile.values.tobytes() == np.array(list(map(float, lines))).tobytes()

    # a chunk whose head holds an exponent on most lines goes to the float
    # reader from two byte counts; the decimal lines after that head read
    # the same, and a defect among them still reaches the line loop
    @pytest.mark.parametrize("line", [None, " 1.5", "NA", "", "1e5e"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    def test_exponent_head_matches_line_loop(self, monkeypatch, line, newline):
        values = np.random.default_rng(5).standard_normal(20_000).tolist()
        rows = list(map("{:.17e}".format, values[:300])) + list(map(repr, values[300:]))
        if line is not None:
            rows[3_000] = line  # in the first chunk, past its head
        text = newline.join(rows) + newline
        assert len(text) > 2 * profiles._CHUNK
        expected = _outcome(_parse_lines, text, "plain")
        if line is None:
            monkeypatch.setattr(profiles, "_parse_lines", _no_line_loop)
        assert _outcome(parse_profile, text, "plain") == expected

    # older numpy warns about unmatched text and returns the values before
    # it, where numpy 2.4 raises: under an error filter the warning defers,
    # and without one a short read or text after the last value defers. A
    # FF once read two values from one line, which would make up for the
    # line the read stopped in; so would a lone CR inside a line of a CRLF
    # file, which is not a line end there. The stub takes numpy's signature,
    # so it stands in for the integer read and the float read alike.
    @pytest.mark.parametrize("action", ["error", "ignore"])
    @pytest.mark.parametrize("text, read", [
        ("1\n2\n3\n", [1.0, 2.0]),
        ("1\n2\nx\n", [1.0, 2.0]),
        ("1\n2\n3x\n", [1.0, 2.0, 3.0]),
        ("1\n2\n3\x1c4", [1.0, 2.0, 3.0]),
        ("1\r2\n3x\n3\n", [1.0, 2.0, 3.0]),
        ("1\x0c2\n3x\n3\n", [1.0, 2.0, 3.0]),
        ("0\r\n1\r2\r\n3\r4\r\nx\r\n4\r\n", [0.0, 1.0, 2.0, 3.0, 4.0]),
    ])
    def test_partial_read_defers(self, monkeypatch, text, read, action):
        def fromstring(string, dtype=float, count=-1, *, sep, like=None):
            warnings.warn("string or file could not be read to its end due to "
                          "unmatched data", DeprecationWarning, stacklevel=2)
            return np.array(read, dtype=dtype)
        monkeypatch.setattr(profiles.np, "fromstring", fromstring)
        expected = _outcome(_parse_lines, text, "plain")
        with warnings.catch_warnings():
            warnings.simplefilter(action, DeprecationWarning)
            assert _outcome(parse_profile, text, "plain") == expected

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
    @pytest.mark.parametrize("fmt, text", [
        ("tsv", "c\t10\t0.5\tname\nc\t20\t0.25\n"),
        ("bedgraph", "track x\nc\t0\t50\t0.5\t+\nc\t50\t100\t0.25\t-\t9\n"),
    ])
    def test_extra_columns_take_the_bulk_pass(self, monkeypatch, fmt, text, newline):
        text = text.replace("\n", newline)
        expected = _parse_lines(text, fmt)
        monkeypatch.setattr(profiles, "_parse_lines", _no_line_loop)
        profile = parse_profile(text, fmt)
        assert profile.positions.tolist() == expected.positions.tolist()
        assert profile.values.tolist() == expected.values.tolist() == [0.5, 0.25]

    @pytest.mark.parametrize("fmt, text", [
        ("tsv", "# r\u00e9gion\nc\t10\t0.5\nc\t20\t0.25\n"),
        ("bedgraph", "chr\u00c5\t0\t50\t0.5\n"),
    ])
    def test_non_ascii_text_goes_to_the_line_loop(self, monkeypatch, fmt, text):
        def loadtxt(*args, **kwargs):
            raise AssertionError("non-ASCII text reached the bulk reader")
        monkeypatch.setattr(profiles.np, "loadtxt", loadtxt)
        assert parse_profile(text, fmt).values[0] == 0.5

    def test_late_error_keeps_its_line_number(self):
        lines = ["0.5"] * 100_000
        lines[73_411] = "NA"
        with pytest.raises(ProfileParseError) as err:
            parse_profile("\n".join(lines) + "\n")
        assert str(err.value) == "line 73412: malformed numeric field 'NA'"
        assert err.value.line == 73_412


class TestProfileInvariants:
    def test_values_immutable(self):
        profile = Profile([1.0, 2.0])
        with pytest.raises(ValueError):
            profile.values[0] = 9.0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            Profile([1.0, math.inf])

    @pytest.mark.parametrize("positions", [[0.5, 1.7, 2.2], [0.0, 1.0, math.nan],
                                           [0.0, 1.0, 1e30]])
    def test_non_integral_positions_rejected(self, positions):
        with pytest.raises(ValidationError, match="positions must be integers"):
            Profile([1.0, 2.0, 3.0], positions=positions)

    def test_integral_float_positions_accepted(self):
        profile = Profile([1.0, 2.0, 3.0], positions=np.array([0.0, 10.0, 2.0 ** 62]))
        assert profile.positions.dtype == np.int64
        assert profile.positions.tolist() == [0, 10, 2 ** 62]

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

    def test_result_refuses_unordered_records(self):
        # write_segments writes the records in their order, which the
        # result holds to start order
        records = [_record(5, 8, 0.1, 0.2, 0.8, False), _record(0, 2, 0.3, 0.4, 0.7, False)]
        with pytest.raises(ValidationError, match=re.escape("[5, 8) before [0, 2)")):
            _result(records)

    def test_bed_has_no_header_and_uses_positions(self):
        profile = Profile([0.5, 0.6], positions=[100, 200], label="chr3")
        out = write_segments(_result([_record(0, 2, 0.55, 1.0, 0.3)]), profile, format="bed")
        assert out == b"chr3\t100\t201\t0.55\t1\t0.3\t1\n"

    @pytest.mark.parametrize("fmt", ["csv", "bedgraph"])
    def test_unknown_format_rejected(self, fmt):
        with pytest.raises(ValidationError, match=f"unknown output format '{fmt}'"):
            write_segments(_result([]), Profile([0.0]), format=fmt)

    def test_record_past_the_profile_rejected(self):
        with pytest.raises(ValidationError, match=r"segment \[1, 4\) exceeds profile length"):
            write_segments(_result([_record(1, 4, 1.0, 2.0, 0.1)]), Profile(np.ones(3)))

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

    @pytest.mark.parametrize("flag, significant", [
        ("1", True), ("True", True), ("true", True), ("0", False), ("False", False),
        ("false", False)])
    def test_significant_flags(self, flag, significant):
        (record,) = read_segments(f"c\t0\t5\t1\t2\t0.5\t{flag}\n")
        assert record.significant is significant

    @pytest.mark.parametrize("flag", ["maybe", "2", "", "yes"])
    def test_unknown_significant_flag_names_its_line(self, flag):
        text = f"#header\nc\t0\t5\t1\t2\t0.5\t1\nc\t5\t9\t1\t2\t0.5\t{flag}\n"
        with pytest.raises(ProfileParseError) as err:
            read_segments(text)
        assert str(err.value) == f"line 3: malformed significant field {flag!r}"

    @pytest.mark.parametrize("p", ["1.5", "-0.25"])
    def test_p_value_outside_unit_interval_names_its_line(self, p):
        text = f"#header\nc\t0\t5\t1\t2\t0.5\t1\nc\t5\t9\t1\t2\t{p}\t1\n"
        with pytest.raises(ProfileParseError) as err:
            read_segments(text)
        assert str(err.value) == f"line 3: p_value {float(p)} outside [0, 1]"

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


class TestSegmentRecordType:
    RECORD = SegmentRecord(2, 9, 0.5, 1.25, -3.0, True)

    def test_fields_repr_and_properties(self):
        record = self.RECORD
        assert SegmentRecord(start=2, end=9, mean=0.5, z=1.25, log_p=-3.0,
                             significant=True) == record
        assert repr(record) == ("SegmentRecord(start=2, end=9, mean=0.5, z=1.25, log_p=-3.0, "
                                "significant=True)")
        assert record.length == 7
        assert record.p_value == math.exp(-3.0)

    def test_equality_and_hashing_follow_the_fields(self):
        same = SegmentRecord(2, 9, 0.5, 1.25, -3.0, True)
        assert same == self.RECORD and hash(same) == hash(self.RECORD)
        assert SegmentRecord(2, 9, 0.5, 1.25, -3.0, False) != self.RECORD
        assert len({self.RECORD, same, SegmentRecord(2, 10, 0.5, 1.25, -3.0, True)}) == 2

    def test_immutable(self):
        with pytest.raises(AttributeError):
            self.RECORD.start = 0

    @pytest.mark.parametrize("start, end", [(3, 3), (5, 3), (-1, 4)])
    def test_every_construction_checks_the_interval(self, start, end):
        message = rf"invalid segment interval \[{start}, {end}\)"
        with pytest.raises(ValidationError, match=message):
            SegmentRecord(start, end, 0.0, 0.0, 0.0, False)
        with pytest.raises(ValidationError, match=message):
            self.RECORD._replace(start=start, end=end)
        with pytest.raises(ValidationError, match=message):
            SegmentRecord._make((start, end, 0.0, 0.0, 0.0, False))
