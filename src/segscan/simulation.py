"""Synthetic benchmark profiles with planted constant-mean segments.

Background positions draw i.i.d. N(0, 1); positions inside a planted
segment draw N(snr * mu, 1), so the SNR parameter scales signal amplitude
against unit noise. Generation uses numpy's PCG64 generator and is
bit-reproducible given the seed.

Two canonical suites mirror the benchmark setups this package is tested
against:

* short: 10 profiles of length 5 000, five planted segments each;
* long:  10 profiles of length 100 000, seven planted segments each
  (about 1% covered by signal, so these are sparse).

The layouts are fixed documented constants, chosen to span hard and easy
cases: a single point, a handful of points, a medium run, and long runs in
every profile. Segment means come from the set {0.72, 0.83, 0.76, 0.9, 0.7}
for the short suite with 0.6 additionally used in the long suite; the
largest mean sits on the medium segment so every segment of length >= 20
stays detectable at SNR 1.0. Typical SNR settings are 0.5 / 1.0 / 2.0 for
hard / realistic / easy noise conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ProfileParseError, ValidationError
from .profiles import Profile, _decode
from .scanning import _check_start_order

@dataclass(frozen=True)
class PlantedSegment:
    """Ground-truth segment: half-open interval plus its mean in sigma units."""

    start: int
    end: int
    mu: float

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValidationError(f"invalid planted interval [{self.start}, {self.end})")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True)
class SimSpec:
    """Full description of one simulated profile."""

    length: int
    planted: tuple[PlantedSegment, ...] = ()
    snr: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.length < 1:
            raise ValidationError("profile length must be >= 1")
        if not (self.snr > 0 and math.isfinite(self.snr)):
            raise ValidationError("snr must be positive and finite")
        object.__setattr__(self, "planted", tuple(self.planted))
        ordered = sorted(self.planted, key=lambda s: s.start)
        for seg in ordered:
            if seg.end > self.length:
                raise ValidationError(f"planted segment [{seg.start}, {seg.end}) "
                                      f"exceeds length {self.length}")
        _check_start_order(ordered)


def simulate(spec: SimSpec, label: str | None = None) -> tuple[Profile, list[PlantedSegment]]:
    """Generate one profile and return it with its ground truth."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    values = rng.standard_normal(spec.length)
    for seg in spec.planted:
        values[seg.start:seg.end] += spec.snr * seg.mu
    return Profile(values, label=label), list(spec.planted)


SHORT_LENGTH = 5_000
SHORT_LAYOUT = (
    PlantedSegment(350, 351, 0.72),     # single point
    PlantedSegment(800, 805, 0.70),     # 5 points
    PlantedSegment(1800, 1850, 0.90),   # 50 points
    PlantedSegment(2900, 3020, 0.83),   # 120 points
    PlantedSegment(4000, 4250, 0.76),   # 250 points
)

LONG_LENGTH = 100_000
LONG_LAYOUT = (
    PlantedSegment(5_000, 5_001, 0.83),
    PlantedSegment(15_000, 15_005, 0.72),
    PlantedSegment(30_000, 30_030, 0.90),
    PlantedSegment(45_000, 45_080, 0.76),
    PlantedSegment(60_000, 60_150, 0.70),
    PlantedSegment(75_000, 75_300, 0.83),
    PlantedSegment(90_000, 90_500, 0.60),
)

SUITE_SIZE = 10
_KINDS = {"short": (SHORT_LENGTH, SHORT_LAYOUT), "long": (LONG_LENGTH, LONG_LAYOUT)}


def benchmark_suite(kind: str, snr: float = 1.0,
                    seed: int = 0) -> list[tuple[Profile, list[PlantedSegment]]]:
    """Generate the canonical 10-profile suite of the given kind.

    Per-profile seeds derive from numpy's SeedSequence on the master seed,
    so the whole suite is reproducible from one integer.
    """
    try:
        length, layout = _KINDS[kind]
    except KeyError:
        raise ValidationError(f"unknown suite kind {kind!r} (expected 'short' or 'long')") from None
    child_seeds = np.random.SeedSequence(seed).generate_state(SUITE_SIZE, np.uint64)
    suite = []
    for i, child in enumerate(child_seeds):
        spec = SimSpec(length=length, planted=layout, snr=snr, seed=int(child))
        suite.append(simulate(spec, label=f"profile_{i:02d}"))
    return suite


def write_truth_manifest(suite_truth: dict[str, list[PlantedSegment]],
                         length: int | None = None) -> bytes:
    """Serialize ground truth as tsv rows (profile_id, start, end, mu)."""
    lines = []
    if length is not None:
        lines.append(f"# length={length}")
    lines.append("#profile_id\tstart\tend\tmu")
    for profile_id in sorted(suite_truth):
        for seg in sorted(suite_truth[profile_id], key=lambda s: s.start):
            lines.append(f"{profile_id}\t{seg.start}\t{seg.end}\t{seg.mu!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_truth_manifest(source) -> tuple[dict[str, list[PlantedSegment]], int | None]:
    """Parse a ground-truth manifest; returns (truth by profile, length or None)."""
    text = _decode(source)
    truth: dict[str, list[PlantedSegment]] = {}
    length: int | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            if stripped.startswith("# length="):
                try:
                    length = int(stripped.split("=", 1)[1])
                except ValueError:
                    raise ProfileParseError(f"malformed length header {stripped!r}",
                                            line=lineno) from None
                if length < 1:
                    raise ProfileParseError(f"length header {stripped!r} is below 1",
                                            line=lineno)
            continue
        fields = stripped.split("\t")
        if len(fields) != 4:
            raise ProfileParseError("expected 4 columns (profile_id, start, end, mu)",
                                    line=lineno)
        try:
            seg = PlantedSegment(int(fields[1]), int(fields[2]), float(fields[3]))
        except (ValueError, ValidationError) as exc:
            raise ProfileParseError(str(exc), line=lineno) from None
        truth.setdefault(fields[0], []).append(seg)
    return truth, length


def write_profile_plain(profile: Profile, path) -> None:
    """Write a profile in the plain one-float-per-line format, full precision."""
    Path(path).write_text("\n".join(repr(float(v)) for v in profile.values) + "\n",
                          encoding="utf-8")
