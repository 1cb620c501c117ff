"""Profile input parsing and segment table output.

Supported input formats:

* ``plain``: one float per line.
* ``tsv``: three tab-separated columns (label, position, value).
* ``bedgraph``: standard 4-column chrom/start/end/value; every interval row
  contributes exactly one measurement, with its start used as the position
  and an integer end above the start and not past the next row's start
  required: rows may touch but not overlap.

Columns past the value, comment lines (leading ``#``) and ``track`` lines
(first whitespace-delimited token exactly ``track``) are skipped. Missing or
non-numeric values ("", "NA", "nan") and positions that do not increase are
rejected with the offending line number, never imputed or reordered.

Each rule is stated once: ``Profile`` owns the value and position rules
(finite values, integral and strictly increasing positions), and
``_COLUMNS`` owns the tsv and bedGraph layout (column indexes and the
message for a short row). The bulk parser works on the file's bytes. It
reads plain text in chunks that end at a line end: each decimal line as an
int64 mantissa (numpy's separator reader, ``np.fromstring``, on the text
without its points) scaled once by a power of ten in x87 long double,
which gives ``float()``'s double bit for bit, and the few lines that scaling
cannot promise, such as "1e-05", with ``float()`` itself. tsv and bedGraph
text goes through ``np.loadtxt``. The bulk parser defers to the line parser
wherever its reader could differ from it or ``Profile`` rejects its columns,
and the line parser names the offending line.

The segment table is written with 6 significant digits for the float columns
(mean, z, p_value); the ``bed`` variant is the same rows without the header.
All indices in memory are 0-based half-open; when the profile carries genomic
positions, output coordinates are positions[start] .. positions[end-1] + 1.
"""

from __future__ import annotations

import codecs
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ProfileParseError, ValidationError
from .stats import TINY_P

FLOAT_FORMAT = ".6g"


@dataclass(frozen=True)
class Profile:
    """An ordered sequence of measurements, optionally with genomic positions."""

    values: np.ndarray
    positions: np.ndarray | None = None
    label: str | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size < 1:
            raise ValidationError("profile must contain at least one value")
        if not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise ValidationError(f"non-finite value at index {bad}")
        values = values.copy() if values.flags.writeable else values
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.positions is not None:
            with np.errstate(invalid="ignore"):  # NaN and huge floats fail the check
                positions = np.asarray(self.positions).astype(np.int64, copy=False)
            if not (positions == self.positions).all():
                raise ValidationError("positions must be integers")
            if positions.shape != values.shape:
                raise ValidationError("positions and values must have the same length")
            if not (positions[1:] > positions[:-1]).all():
                raise ValidationError("positions must be strictly increasing")
            positions = positions.copy() if positions.flags.writeable else positions
            positions.flags.writeable = False
            object.__setattr__(self, "positions", positions)

    def __len__(self) -> int:
        return int(self.values.size)


class _SegmentFields(NamedTuple):
    start: int
    end: int
    mean: float
    z: float
    log_p: float
    significant: bool


class SegmentRecord(_SegmentFields):
    """One reported segment: half-open index interval plus its statistics.

    A named tuple, so building one costs about what a tuple does: it is
    immutable, hashable and equal to any tuple of the same fields. Every
    way of building one, ``_replace`` included, checks its interval.
    """

    __slots__ = ()

    def __new__(cls, start: int, end: int, mean: float, z: float, log_p: float,
                significant: bool):
        if not (0 <= start < end):
            raise ValidationError(f"invalid segment interval [{start}, {end})")
        return tuple.__new__(cls, (start, end, mean, z, log_p, significant))

    @classmethod
    def _make(cls, iterable) -> "SegmentRecord":
        # the base's _make, which _replace calls, would skip the check
        return cls(*iterable)

    @property
    def length(self) -> int:
        return self.end - self.start

    @property
    def p_value(self) -> float:
        """Tail probability in [0, 1]; clamped at the smallest positive double."""
        p = math.exp(min(self.log_p, 0.0))
        return p if p > 0.0 else TINY_P


def _decode(source) -> str:
    if isinstance(source, bytes):
        try:
            return source.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise ProfileParseError(f"input is not UTF-8 text: {exc}") from None
    if isinstance(source, str):
        # text read with encoding="utf-8" keeps the byte-order mark
        return source.removeprefix("\ufeff")
    raise ValidationError(f"expected str or bytes input, got {type(source).__name__}")


def _skip(line: str) -> bool:
    stripped = line.strip()
    return not stripped or stripped.startswith("#") or stripped.split(None, 1)[0] == "track"


def _parse_value(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ProfileParseError(f"malformed numeric field {token!r}", line=lineno) from None
    if not math.isfinite(value):
        raise ProfileParseError(f"non-finite value {token!r}", line=lineno)
    return value


# The layout of a tsv or bedGraph row: the index of each numeric column (the
# label is column 0, text), and the message for a row too short to hold them.
_COLUMNS = {"tsv": ({"position": 1, "value": 2},
                    "expected 3 tab-separated columns (label, position, value)"),
            "bedgraph": ({"position": 1, "end": 2, "value": 3},
                         "expected 4 bedGraph columns (chrom, start, end, value)")}


def parse_profile(source, format: str = "plain") -> Profile:
    """Parse a text profile in ``plain``, ``tsv``, or ``bedgraph`` format.

    The file is parsed in one bulk pass over its bytes. Input the bulk pass
    does not cover exactly goes to the line-by-line parser, which reports
    the offending line: non-ASCII text past the leading header (or anywhere
    in tsv and bedGraph), a skipped or blank line past the header, a row
    with missing fields, a bad or non-finite number, a bedGraph end not
    above its start or past the next row's start, mixed labels, positions
    that do not increase, no data.
    In plain text the bulk pass reads with ``float()`` the few lines it
    cannot read exactly as integers ("1e-05", "+1"), so they stay on it.
    """
    if format != "plain" and format not in _COLUMNS:
        raise ValidationError(f"unknown profile format {format!r}")
    profile = None
    if isinstance(source, (bytes, str)):
        # a lone surrogate in a str survives the encoding and fails the
        # bulk pass's UTF-8 and ASCII checks, which leaves it to the line loop
        data = source if isinstance(source, bytes) else source.encode("utf-8", "surrogatepass")
        profile = _parse_bulk(data.removeprefix(codecs.BOM_UTF8), format)
    return profile if profile is not None else _parse_lines(_decode(source), format)


def _parse_bulk(data: bytes, format: str) -> Profile | None:
    """Return the Profile ``_parse_lines`` would return, or None to defer to it.

    Lines end at LF or CRLF. A file whose first CR is a lone CR has every CR
    read as LF, which splits it where str.splitlines does; a file that also
    holds a CRLF then has a blank line, which defers it. Non-ASCII tsv and
    bedGraph text and a non-ASCII plain body defer; columns past the value
    are ignored.
    """
    cr = data.find(b"\r")
    if cr >= 0 and not data.startswith(b"\n", cr + 1):
        data = data.replace(b"\r", b"\n")
    start = _body_start(data)
    if start is None:
        return None
    if format == "plain":
        return _parse_plain(data, start)
    body = data[start:]
    # numpy's int parser reads non-ASCII text int() rejects ("5\u01fe" as 512),
    # and it strips "\x1f" as whitespace where int() and float() reject it
    if not data.isascii() or b"\x1f" in body:
        return None
    lines = body.decode().splitlines()
    # A skipped line inside the body never gets through: it has a label
    # other than the first row's, or a position the reader rejects.
    label = lines[0].partition("\t")[0]
    if not all(map(str.startswith, lines, repeat(label + "\t"))):
        return None
    columns = _COLUMNS[format][0]
    dtype = [(name, "f8" if name == "value" else "i8") for name in columns]
    # Profile rejects non-finite values and positions that do not increase;
    # it never sees a bedGraph end, so each end is checked here: above its
    # start, and not past the next row's start
    try:
        rows = np.loadtxt(lines, dtype=dtype, delimiter="\t", comments=None, quotechar=None,
                          usecols=tuple(columns.values()), ndmin=1)
        if "end" in columns and not ((rows["end"] > rows["position"]).all()
                                     and (rows["end"][:-1] <= rows["position"][1:]).all()):
            return None
        return Profile(rows["value"], positions=rows["position"], label=label)
    except (ValueError, ValidationError):
        return None


def _body_start(data: bytes) -> int | None:
    """The offset of the first line past the leading skipped lines, or None.

    The walk goes one line at a time, each line ending at an LF, less one CR
    before it, and never splits the file. None when no data line follows,
    when a skipped line is not UTF-8, or when it holds another line break (a
    lone CR or "# h\x0c1.5"), which would hide a line from the walk.
    """
    start = 0
    while True:
        end = data.find(b"\n", start)
        try:
            line = data[start:end if end >= 0 else len(data)].decode().removesuffix("\r")
        except UnicodeDecodeError:
            return None
        if not _skip(line):
            return start
        if end < 0 or (line and line.splitlines() != [line]):
            return None
        start = end + 1


# Where np.longdouble is x87's 80-bit format (a 64-bit significand, low
# word first), plain decimals are read as integers and scaled once; else
# each chunk goes through numpy's float separator reader.
_X87 = np.finfo(np.longdouble).nmant == 63 and sys.byteorder == "little"
# 10**k is exact in a 64-bit significand up to k = 27 (5**27 < 2**63)
_MAX_SCALE = 27
_POW10 = np.ldexp(np.array([5 ** k for k in range(_MAX_SCALE + 1)]).astype(np.longdouble),
                  np.arange(_MAX_SCALE + 1))
_CHUNK = 1 << 17
# The head of a chunk whose "e" count can send it to the float reader; see
# _read_chunk.
_PROBE = 1 << 12
_INT64 = np.iinfo(np.int64)


def _parse_plain(data: bytes, start: int) -> Profile | None:
    """The plain branch of ``_parse_bulk``: ``data[start:]`` in line-end chunks.

    Each chunk of about ``_CHUNK`` bytes ends just past an LF, so a CRLF is
    never split and only one chunk's working arrays are alive at a time.
    """
    parts = []
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK)
        stop = end + 1 if end >= 0 else len(data)
        # numpy 2.4 raises ValueError on unmatched text, where older numpy
        # warns and returns the values before it; float() raises ValueError
        try:
            values = _read_chunk(data[start:stop])
        except (ValueError, DeprecationWarning):
            return None
        if values is None:
            return None
        parts.append(values)
        start = stop
    values = np.concatenate(parts)
    # read-only, so Profile keeps the array instead of copying it
    values.flags.writeable = False
    try:
        return Profile(values)
    except ValidationError:
        return None


def _read_chunk(chunk: bytes) -> np.ndarray | None:
    """The value of each line of ``chunk``, or None to defer the body.

    Lines end at LF. On x87 the chunk is read by ``_decimal_values``,
    unless more than one line in eight holds a byte outside ``[0-9.\\-]``
    ("1e-05", " 1.5", "nan", a CR that does not end a CRLF): such a chunk is
    cheaper through numpy's float separator reader. A chunk whose first
    ``_PROBE`` bytes hold more than one "e" per eight lines ("%.17e",
    np.savetxt's default) goes to that reader from those byte counts alone,
    before the per-byte masks the decimal read needs. The reader splits at
    any run of C whitespace, so it reads only chunks without a space, tab,
    VT, FF or lone CR, where it splits only at line ends and reads each
    line to ``float()``'s double or to an error (or to the nan of
    "nan(123)", which Profile rejects). Either way a read that stops early
    comes up short of one value per line (blank lines do too), and text
    after the last value fails ``float()`` of the last line.
    """
    if not chunk.isascii():
        return None
    text = chunk if chunk.endswith(b"\n") else chunk + b"\n"
    decimal = _X87 and 8 * text.count(b"e", 0, _PROBE) <= text.count(b"\n", 0, _PROBE)
    buf = np.frombuffer(text, np.uint8)
    if decimal:
        # line i is text[starts[i]:stops[i]], without the CR of a CRLF
        ends = np.flatnonzero(buf == 10)
        lines = ends.size
        starts = np.concatenate(([0], ends[:-1] + 1))
        stops = ends - (buf[ends - 1] == 13)
        # every byte outside [0-9.-], a CR too unless it ends a CRLF
        outside = (buf - np.uint8(45) > 12) & (buf != 10) | (buf == 47)
        outside[stops] = False
        other = np.zeros(lines, bool)
        other[np.searchsorted(ends, np.flatnonzero(outside))] = True
        decimal = 8 * np.count_nonzero(other) <= lines
    else:
        lines = np.count_nonzero(buf == 10)
    if decimal:
        values = _decimal_values(text, starts, stops, ends, other)
    elif (any(map(text.__contains__, (b" ", b"\t", b"\x0b", b"\x0c")))
          or b"\r" in text and ((buf[:-1] == 13) & (buf[1:] != 10)).any()):
        return None
    else:
        values = np.fromstring(text, sep="\n")
    if values is None or values.size != lines:
        return None
    # the last line, without its line end
    stop = len(text) - (2 if text.endswith(b"\r\n") else 1)
    first = text.rfind(b"\n", 0, stop) + 1
    if values[-1] != float(text[first:stop].decode()):
        return None
    return values


def _decimal_values(text: bytes, starts: np.ndarray, stops: np.ndarray, ends: np.ndarray,
                    other: np.ndarray) -> np.ndarray | None:
    """Read each line as an integer mantissa m and a count k of decimals.

    Each value is m / 10**k, divided in x87 long double and rounded once to
    a double. m is exact (|m| < 2**63) and so is 10**k for k <= 27, so the
    quotient is m / 10**k rounded once to 64 significand bits. Rounding
    that to 53 bits gives float()'s correctly rounded double unless it lies
    exactly halfway between two doubles (its low 11 bits read 0x400): a
    double-rounding error needs the 64-bit rounding to land on that
    midpoint. Those lines go to float(), with every line whose mantissa
    overflowed (numpy clamps it to an int64 extreme), with k > 27, or with
    a byte outside ``[0-9.\\-]`` (``other``, blanked to zeros for the
    integer read).

    The integer read gives at most one value per line: numpy starts a new
    value only after at least one whitespace byte, so a sign inside a line
    ("5-", "1-5") stops the read, and a line without digits ("-", ".")
    gives none. A line with two points defers the body.
    """
    digits = text
    if other.any():
        work = bytearray(text)
        for start, stop in zip(starts[other].tolist(), stops[other].tolist()):
            work[start:stop] = b"0" * (stop - start)
        digits = bytes(work)
    buf = np.frombuffer(digits, np.uint8)
    points = np.flatnonzero(buf == 46)
    lines = ends.size
    if points.size == lines and (points < stops).all() and (points[1:] > ends[:-1]).all():
        scale = stops - points - 1  # one point on every line
    else:
        point_lines = np.searchsorted(ends, points)
        # "1.2.3" would read as 123
        if (point_lines[1:] == point_lines[:-1]).any():
            return None
        scale = np.zeros(lines, np.intp)
        scale[point_lines] = stops[point_lines] - points - 1
    mantissas = np.fromstring(digits.replace(b".", b""), dtype=np.int64, sep="\n")
    if mantissas.size != lines:
        return None
    quotients = mantissas.astype(np.longdouble)
    quotients /= _POW10[np.minimum(scale, _MAX_SCALE)]
    low_bits = quotients.view(np.uint32)[::quotients.itemsize // 4] & 0x7FF
    redo = (other | (low_bits == 0x400) | (scale > _MAX_SCALE)
            | (mantissas == _INT64.max) | (mantissas == _INT64.min))
    values = quotients.astype(np.float64)
    # the integer read drops the sign of "-0.0"
    zeros = np.flatnonzero(mantissas == 0)
    values[zeros[buf[starts[zeros]] == 45]] = -0.0
    for i in np.flatnonzero(redo).tolist():
        values[i] = float(text[starts[i]:stops[i]].decode())
    return values


def _parse_int(token: str, name: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ProfileParseError(f"malformed {name} field {token!r}", line=lineno) from None
    if not _INT64.min <= value <= _INT64.max:
        raise ProfileParseError(f"{name} {token!r} does not fit a 64-bit integer", line=lineno)
    return value


def _parse_lines(text: str, format: str) -> Profile:
    """Parse line by line, raising at the first bad line with its number."""
    values: list[float] = []
    positions: list[int] = []
    label: str | None = None
    columns, short_row = _COLUMNS.get(format, ({}, ""))

    for lineno, line in enumerate(text.splitlines(), start=1):
        if _skip(line):
            continue
        if format == "plain":
            values.append(_parse_value(line.strip(), lineno))
            continue
        fields = line.split("\t")
        if len(fields) <= max(columns.values()):
            raise ProfileParseError(short_row, line=lineno)
        row_label = fields[0]
        if label is None:
            label = row_label
        elif row_label != label:
            raise ProfileParseError(
                f"multiple labels in one file ({label!r} then {row_label!r}); "
                "segment one profile at a time", line=lineno)
        position = _parse_int(fields[columns["position"]], "position", lineno)
        if positions and position <= positions[-1]:
            raise ProfileParseError("positions must be strictly increasing "
                                    f"({positions[-1]} then {position})", line=lineno)
        if "end" in columns:
            # ``end`` is still the previous row's
            if positions and position < end:
                raise ProfileParseError(f"start {position} is before the previous row's "
                                        f"end {end}", line=lineno)
            end = _parse_int(fields[columns["end"]], "end", lineno)
            if end <= position:
                raise ProfileParseError(f"end {end} is not above start {position}", line=lineno)
        positions.append(position)
        values.append(_parse_value(fields[columns["value"]], lineno))

    if not values:
        raise ProfileParseError("empty input: no data lines found")
    if format == "plain":
        return Profile(np.array(values))
    return Profile(np.array(values), positions=np.array(positions, dtype=np.int64), label=label)


def read_profile(path, format: str = "plain") -> Profile:
    """Parse a profile from a file path."""
    return parse_profile(Path(path).read_bytes(), format=format)


OUTPUT_COLUMNS = ("label", "start", "end", "mean", "z", "p_value", "significant")


def _record_row(record: SegmentRecord, profile: Profile) -> str:
    start, end, mean, z, _, significant = record
    if profile.positions is not None:
        start = int(profile.positions[start])
        end = int(profile.positions[end - 1]) + 1
    label = profile.label if profile.label is not None else "."
    return "\t".join((
        label,
        str(start),
        str(end),
        format(mean, FLOAT_FORMAT),
        format(z, FLOAT_FORMAT),
        format(record.p_value, FLOAT_FORMAT),
        "1" if significant else "0",
    ))


def write_segments(result, profile: Profile, format: str = "tsv") -> bytes:
    """Serialize a segmentation result as a tsv (with header) or bed table, in record order."""
    if format not in ("tsv", "bed"):
        raise ValidationError(f"unknown output format {format!r}")
    lines = []
    if format == "tsv":
        lines.append("#" + "\t".join(OUTPUT_COLUMNS))
    for record in result.records:
        if record.end > len(profile):
            raise ValidationError(f"segment [{record.start}, {record.end}) exceeds profile length")
        lines.append(_record_row(record, profile))
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_segments(source) -> list[SegmentRecord]:
    """Parse a segment table written by write_segments (tsv or bed)."""
    text = _decode(source)
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != len(OUTPUT_COLUMNS):
            raise ProfileParseError(f"expected {len(OUTPUT_COLUMNS)} columns, got {len(fields)}",
                                    line=lineno)
        try:
            start, end = int(fields[1]), int(fields[2])
            mean, z, p = float(fields[3]), float(fields[4]), float(fields[5])
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"p_value {p} outside [0, 1]")
            flag = fields[6].strip()
            if flag not in ("1", "True", "true", "0", "False", "false"):
                raise ValueError(f"malformed significant field {fields[6]!r}")
            records.append(SegmentRecord(start=start, end=end, mean=mean, z=z,
                                         log_p=math.log(p) if p > 0 else -math.inf,
                                         significant=flag in ("1", "True", "true")))
        except (ValueError, ValidationError) as exc:
            raise ProfileParseError(str(exc), line=lineno) from None
    return records

