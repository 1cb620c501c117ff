"""Numeric kernel: prefix sums, robust scale estimation, z statistics, tail p-values.

Segment sums are served in O(1) from a cumulative-sum array so that scanning
many overlapping windows costs one subtraction per window instead of one pass
over the data. p-values are kept as natural-log values end to end; for
|z| > 38 the two-sided tail underflows double precision, and log-space keeps
ranking and FDR arithmetic exact in that regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr

from .errors import DegenerateScaleError, ValidationError

LOG_TWO = math.log(2.0)
_SQRT2 = math.sqrt(2.0)

# Consistency factor making the MAD estimate agree with the standard
# deviation of a normal sample.
MAD_SCALE = 1.4826

#: Smallest positive double; serialized p-values are clamped here when the
#: log-space value underflows (see SegmentRecord.p_value).
TINY_P = 5e-324


@dataclass
class OpCounter:
    """Counts summation operations (adds/subtracts of data sums).

    Used to check the measured cost of a scan against the predicted
    memoized operation count. Only operations that combine measurement
    sums are counted; per-window scalar arithmetic (divides, square
    roots) is not.
    """

    count: int = 0

    def add(self, n: int) -> None:
        self.count += int(n)


@dataclass(frozen=True)
class NoiseModel:
    """Known noise scale ``sigma`` and tested baseline ``background``."""

    sigma: float
    background: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValidationError(f"sigma must be a positive finite number, got {self.sigma}")
        if not math.isfinite(self.background):
            raise ValidationError("background level must be finite")


@dataclass(frozen=True)
class PrefixSums:
    """Cumulative sums of a profile, length n+1 with cumulative[0] == 0."""

    cumulative: np.ndarray
    n: int = 0

    def range_sum(self, start: int, end: int) -> float:
        """Sum of values[start:end] in O(1)."""
        return float(self.cumulative[end] - self.cumulative[start])


def build_prefix_sums(profile, counter: OpCounter | None = None) -> PrefixSums:
    """Build the cumulative sum array of a profile.

    O(N) construction; afterwards any segment sum is one subtraction.
    """
    values = profile.values
    cumulative = np.empty(values.size + 1, dtype=np.float64)
    cumulative[0] = 0.0
    np.cumsum(values, out=cumulative[1:])
    cumulative.flags.writeable = False
    if counter is not None:
        counter.add(values.size)
    return PrefixSums(cumulative, int(values.size))


def estimate_sigma_mad(profile, background: float = 0.0) -> NoiseModel:
    """Estimate the noise standard deviation from the median absolute deviation.

    sigma = 1.4826 * median(|x - median(x)|), which is consistent for the
    standard deviation under normal noise and robust to the signal segments
    themselves.

    Raises
    ------
    DegenerateScaleError
        If the MAD is zero (more than half of the values identical); in
        that case the caller must supply sigma explicitly.
    """
    values = profile.values
    if values.size < 2:
        raise ValidationError("need at least 2 values to estimate sigma")
    med = float(np.median(values))
    mad = float(np.median(np.abs(values - med)))
    if mad == 0.0:
        raise DegenerateScaleError(
            "MAD is zero (more than half of the values are identical); "
            "supply sigma explicitly (--sigma on the command line)"
        )
    return NoiseModel(sigma=MAD_SCALE * mad, background=background)


def z_statistic(total: float, n: int, noise: NoiseModel) -> float:
    """z score of a segment with sum ``total`` over ``n`` points.

    z = (mean - background) * sqrt(n) / sigma. Defined for n = 1, which is
    what makes single-point segments testable under the same model as long
    ones.
    """
    return (total / n - noise.background) * math.sqrt(n) / noise.sigma


def z_statistic_batch(sums: np.ndarray, n: int, noise: NoiseModel) -> np.ndarray:
    # Must mirror z_statistic operation for operation so scalar
    # recomputation reproduces scanned values bit for bit.
    return (sums / n - noise.background) * np.sqrt(n) / noise.sigma


def p_value(z: float, sides: str = "two") -> float:
    """Gaussian tail probability of a z score.

    Two-sided by default: p = 2*(1 - Phi(|z|)), evaluated as
    erfc(|z|/sqrt(2)) which is accurate to better than 1e-12 relative for
    |z| <= 8. One-sided mode tests for means above the background only.
    """
    if sides == "two":
        return math.erfc(abs(z) / _SQRT2)
    return 0.5 * math.erfc(z / _SQRT2)


def log_p_value(z: float, sides: str = "two") -> float:
    """Natural log of p_value(z); does not underflow for large |z|."""
    if sides == "two":
        return float(LOG_TWO + log_ndtr(-abs(z)))
    return float(log_ndtr(-z))


def log_p_value_batch(z: np.ndarray, sides: str = "two") -> np.ndarray:
    if sides == "two":
        return LOG_TWO + log_ndtr(-np.abs(z))
    return log_ndtr(-z)


def segment_stats(ps: PrefixSums, noise: NoiseModel, start: int, end: int,
                  sides: str = "two") -> tuple[float, float, float]:
    """(mean, z, log_p) of values[start:end] from prefix sums."""
    n = end - start
    total = ps.range_sum(start, end)
    z = z_statistic(total, n, noise)
    return total / n, z, log_p_value(z, sides)
