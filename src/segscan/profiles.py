"""Profile input parsing and segment table output.

Supported input formats:

* ``plain``: one float per line.
* ``tsv``: three tab-separated columns (label, position, value).
* ``bedgraph``: standard 4-column chrom/start/end/value; every interval row
  contributes exactly one measurement, with its start used as the position
  and an integer end above the start required.

Columns past the value, comment lines (leading ``#``) and ``track`` lines
(first whitespace-delimited token exactly ``track``) are skipped. Missing or
non-numeric values ("", "NA", "nan") and positions that do not increase are
rejected with the offending line number, never imputed or reordered.

Each rule is stated once: ``Profile`` owns the value and position rules
(finite values, integral and strictly increasing positions), and
``_COLUMNS`` owns the tsv and bedGraph layout (column indexes and the
message for a short row). The bulk parser defers to the line parser
wherever ``Profile`` rejects its columns, and the line parser names the
offending line.

The segment table is written with 6 significant digits for the float columns
(mean, z, p_value); the ``bed`` variant is the same rows without the header.
All indices in memory are 0-based half-open; when the profile carries genomic
positions, output coordinates are positions[start] .. positions[end-1] + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

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


@dataclass(frozen=True)
class SegmentRecord:
    """One reported segment: half-open index interval plus its statistics."""

    start: int
    end: int
    mean: float
    z: float
    log_p: float
    significant: bool

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValidationError(f"invalid segment interval [{self.start}, {self.end})")

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

    The file is parsed in one bulk pass. Input the bulk pass does not cover
    exactly (non-ASCII tsv or bedGraph text, a skipped line past the leading
    header, a row with missing fields, a bad or non-finite number, a bedGraph
    end not above its start, mixed labels, positions that do not increase, no
    data) goes to the line-by-line parser, which reports the offending line.
    """
    if format != "plain" and format not in _COLUMNS:
        raise ValidationError(f"unknown profile format {format!r}")
    text = _decode(source)
    profile = _parse_bulk(text, format)
    return profile if profile is not None else _parse_lines(text, format)


def _parse_bulk(text: str, format: str) -> Profile | None:
    """Return the Profile ``_parse_lines`` would return, or None to defer to it.

    Non-ASCII tsv and bedGraph text defers; columns past the value are ignored.
    """
    lines = text.splitlines()
    first = 0
    while first < len(lines) and _skip(lines[first]):
        first += 1
    if first == len(lines):
        return None
    body = lines[first:] if first else lines
    if format == "plain":
        # float() strips the whitespace line.strip() does and rejects every
        # line _skip would skip, so this either matches the loop or raises;
        # Profile rejects non-finite values
        try:
            return Profile(np.fromiter(map(float, body), np.float64, len(body)))
        except (ValueError, ValidationError):
            return None
    # numpy's int parser reads non-ASCII text int() rejects ("5\u01fe" as 512),
    # and it strips "\x1f" as whitespace where int() and float() reject it
    if not text.isascii() or "\x1f" in text:
        return None
    # A skipped line inside the body never gets through: it has a label
    # other than the first row's, or a position the reader rejects.
    label = body[0].partition("\t")[0]
    if not all(map(str.startswith, body, repeat(label + "\t"))):
        return None
    columns = _COLUMNS[format][0]
    dtype = [(name, "f8" if name == "value" else "i8") for name in columns]
    # Profile rejects non-finite values and positions that do not increase;
    # it never sees a bedGraph end
    try:
        rows = np.loadtxt(body, dtype=dtype, delimiter="\t", comments=None, quotechar=None,
                          usecols=tuple(columns.values()), ndmin=1)
        if "end" in columns and not (rows["end"] > rows["position"]).all():
            return None
        return Profile(rows["value"], positions=rows["position"], label=label)
    except (ValueError, ValidationError):
        return None


_INT64 = np.iinfo(np.int64)


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
    if profile.positions is not None:
        start = int(profile.positions[record.start])
        end = int(profile.positions[record.end - 1]) + 1
    else:
        start, end = record.start, record.end
    label = profile.label if profile.label is not None else "."
    return "\t".join((
        label,
        str(start),
        str(end),
        format(record.mean, FLOAT_FORMAT),
        format(record.z, FLOAT_FORMAT),
        format(record.p_value, FLOAT_FORMAT),
        "1" if record.significant else "0",
    ))


def write_segments(result, profile: Profile, format: str = "tsv") -> bytes:
    """Serialize a segmentation result as a tsv (with header) or bed table."""
    if format not in ("tsv", "bed"):
        raise ValidationError(f"unknown output format {format!r}")
    records = sorted(result.records, key=lambda r: r.start)
    lines = []
    if format == "tsv":
        lines.append("#" + "\t".join(OUTPUT_COLUMNS))
    for record in records:
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

