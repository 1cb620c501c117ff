"""Numeric kernel: prefix sums, robust scale estimation, z statistics, tail p-values.

Segment sums are served in O(1) from a cumulative-sum array so that scanning
many overlapping windows costs one subtraction per window instead of one pass
over the data. p-values are kept as natural-log values end to end; for
|z| > 38 the two-sided tail underflows double precision, and log-space keeps
ranking and FDR arithmetic exact in that regime.

The Gaussian tail is computed here, without a special-function library.
log Phi(-a) for 0 <= a <= 37 is a degree-7 Taylor polynomial about the
nearest node k/32, from a table built at import: node values come from
math.erfc, derivatives from the inverse Mills ratio recurrence
lambda' = lambda^2 - a*lambda. Past 37 the asymptotic series of Phi(-a)
takes over. The batch kernel (log_p_value_batch) handles every z. The
scalar kernel (log_p_value) is the hot path, refinement's one segment at
a time: it evaluates the table itself only for two-sided z and for
one-sided z >= 0, with |z| <= 37, in the batch kernel's IEEE operations
and order, and hands every other case (one-sided z < 0, |z| > 37, nan)
to the batch kernel, so the two agree bit for bit.

The batch kernel's numpy calls cost ~20 us per call whatever its size,
while the scalar kernel costs ~0.6 us per value, so the stages that score
an array of z (the scan's tail, refinement's batch passes, finalize) go
through _log_p_values, which runs the scalar kernel once per value below
LOG_P_SCALAR_BELOW values, unless one of them is a case it hands on, and
the batch kernel otherwise. On short profiles most of those arrays hold a
few dozen values or fewer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateScaleError, ValidationError

LOG_TWO = math.log(2.0)

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
    """Known noise scale ``sigma`` and tested baseline ``background``.

    Every z test, and finalize's ``p_b`` cutoff, measures from
    ``background``. The stages that also take a ScanConfig refuse a model
    whose background differs from ``ScanConfig.background``.
    """

    sigma: float
    background: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValidationError(f"sigma must be a positive finite number, got {self.sigma}")
        if not math.isfinite(self.background):
            raise ValidationError("background level must be finite")


def build_prefix_sums(profile, counter: OpCounter | None = None) -> np.ndarray:
    """The read-only float64 cumulative sums of a profile: n + 1 values, the first 0.

    O(N) construction; afterwards the sum of values[start:end] is one
    subtraction, ``ps[end] - ps[start]`` (see segment_stats).

    Raises
    ------
    ValidationError
        If some window sum would overflow double precision, that is, if
        the largest prefix sum minus the smallest is not finite.
    """
    values = profile.values
    ps = np.empty(values.size + 1, dtype=np.float64)
    ps[0] = 0.0
    with np.errstate(over="ignore"):
        np.cumsum(values, out=ps[1:])
    # Python floats, whose difference overflows to inf without a warning
    if not math.isfinite(ps.max().item() - ps.min().item()):
        raise ValidationError("prefix sums overflow double precision; rescale the profile")
    ps.flags.writeable = False
    if counter is not None:
        counter.add(values.size)
    return ps


def estimate_sigma_mad(profile, background: float = 0.0) -> NoiseModel:
    """Estimate the noise standard deviation from the median absolute deviation.

    sigma = 1.4826 * median(|x - median(x)|), which is consistent for the
    standard deviation under normal noise and robust to the signal segments
    themselves.

    Both medians are np.median's values, bit for bit, from a one-rank
    partition of one reused buffer. After ``partition(n // 2)`` the element
    at n // 2 is the upper middle value, and for even n the largest element
    below it is the lower one; np.median partitions at both ranks (and at
    the last, to look for NaN, which a Profile never holds) and averages
    the two middle values as (lower + upper) / 2, the same IEEE operations.
    Only the sign of a zero median can differ, and |x - median| does not
    see it.

    Raises
    ------
    DegenerateScaleError
        If the MAD is zero (more than half of the values identical); in
        that case the caller must supply sigma explicitly.
    """
    values = profile.values
    if values.size < 2:
        raise ValidationError("need at least 2 values to estimate sigma")
    buf = values.copy()
    med = _median_in_place(buf)
    np.subtract(values, med, out=buf)
    np.abs(buf, out=buf)
    mad = _median_in_place(buf)
    if mad == 0.0:
        raise DegenerateScaleError(
            "MAD is zero (more than half of the values are identical); "
            "supply sigma explicitly (--sigma on the command line)"
        )
    return NoiseModel(sigma=MAD_SCALE * mad, background=background)


def _median_in_place(buf: np.ndarray) -> float:
    """Median of a non-empty finite array, reordering it; see estimate_sigma_mad."""
    k = buf.size // 2
    buf.partition(k)
    upper = buf.item(k)
    if buf.size % 2:
        return upper
    return (buf[:k].max().item() + upper) / 2


def z_statistic(total: float, n: int, noise: NoiseModel) -> float:
    """z score of a segment with sum ``total`` over ``n`` points.

    z = (mean - background) * sqrt(n) / sigma. Defined for n = 1, which is
    what makes single-point segments testable under the same model as long
    ones.
    """
    return (total / n - noise.background) * math.sqrt(n) / noise.sigma


def z_statistic_batch(sums: np.ndarray, n: int | np.ndarray, noise: NoiseModel) -> np.ndarray:
    """z_statistic over arrays of sums, with one length or one per sum."""
    # Must mirror z_statistic operation for operation so scalar
    # recomputation reproduces scanned values bit for bit.
    return (sums / n - noise.background) * np.sqrt(n) / noise.sigma


# With nodes 1/32 apart (|t| <= 1/64) the degree-8 Taylor term of
# log Phi(-a) stays below 1e-5 ulp of log Phi(-a), so degree 7 suffices.
# Fewer, longer pieces keep the import-time build short. Phi(-a) is a
# normal double up to a = 37.5.
_NODES_PER_UNIT = 32.0
_A_MAX = 37.0
_DEGREE = 7
# Rows of the node table past the Taylor coefficients of log Phi(-a) about
# a_k (rows 0-7): Phi(-a_k) itself, and the tilt added to c1 (see
# _tilt_to_monotone).
_PHI_ROW = _DEGREE + 1
_TILT_ROW = _DEGREE + 2
_SQRT2 = math.sqrt(2.0)
# sqrt(2) - _SQRT2, the rounding error of the double
_SQRT2_LO = -9.667293313452913e-17
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _table_terms(coef: np.ndarray, a: np.ndarray):
    """(c0, q, k, t) with log Phi(-a) = c0 + q, for a in [0, _A_MAX].

    k is the nearest node (ties to even), t = a - a_k, q the polynomial's
    non-constant part by Horner. Rows past _A_MAX, and nan, are clamped to
    the last node.
    """
    t = np.fmin(a, _A_MAX)
    node = t * _NODES_PER_UNIT
    np.rint(node, out=node)
    k = node.astype(np.intp)
    node /= _NODES_PER_UNIT
    t -= node
    q = coef[_DEGREE].take(k)
    for row in coef[_DEGREE - 1:0:-1]:
        q *= t
        q += row.take(k)
    q *= t
    return coef[0].take(k), q, k, t


def _tilt_to_monotone(coef: np.ndarray) -> None:
    """Turn neighbouring pieces so the table never steps up between nodes.

    Each piece is good to about an ulp, so two neighbours can disagree by an
    ulp at their common midpoint, while near a = 0 log Phi(-a) falls by less
    than an ulp per representable a. Where the value steps up across a
    midpoint, both pieces turn about their node by half the step: adding d
    to c1 lowers a piece's left end by d*h/2 (h the node spacing) and
    raises its right end by as much. The tilt is kept in its own row, because the relative error it
    puts into Phi(-a) = exp(log Phi(-a)) would be far more than an ulp.
    """
    mid = (np.arange(1, coef.shape[1]) - 0.5) / _NODES_PER_UNIT
    around = (np.nextafter(mid, 0.0), mid, np.nextafter(mid, _A_MAX))
    for _ in range(8):
        before, at, after = (np.add(*_table_terms(coef, a)[:2]) for a in around)
        step = 0.5 * np.fmax(np.fmax(at - before, after - at), 0.0)
        if not step.any():
            return
        tilt = np.zeros(coef.shape[1])
        tilt[1:] = step
        np.fmax(tilt[:-1], step, out=tilt[:-1])
        tilt *= 2.0 * _NODES_PER_UNIT
        coef[1] += tilt
        coef[_TILT_ROW] += tilt


def _split(v):
    """(hi, lo) with v = hi + lo and hi on 26 bits, so hi * hi is exact (Dekker)."""
    scaled = 134217729.0 * v
    hi = scaled - (scaled - v)
    return hi, v - hi


def _node_table() -> np.ndarray:
    """The node table at a_k = k/32, k = 0..1184, one column per node.

    Rows 0-7 hold the Taylor coefficients of log Phi(-a) about a_k, then
    _PHI_ROW and _TILT_ROW.
    """
    a = np.arange(round(_A_MAX * _NODES_PER_UNIT) + 1) / _NODES_PER_UNIT
    x = a / _SQRT2
    phi = 0.5 * np.fromiter(map(math.erfc, x.tolist()), np.float64, a.size)
    # erfc was taken at sqrt(2)*x, which misses a by the rounding of x.
    # The miss is formed exactly (Dekker's product) and carried to first
    # order through the slope of log Phi(-a), minus the inverse Mills ratio
    # lambda = phi(a) / Phi(-a).
    x_hi, x_lo = _split(x)
    s_hi, s_lo = _split(_SQRT2)
    prod = x * _SQRT2
    prod_err = ((x_hi * s_hi - prod) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    density = np.exp(-0.5 * a * a) / _SQRT_2PI
    shift = density / phi * (((a - prod) - prod_err) - x * _SQRT2_LO)
    coef = np.zeros((_TILT_ROW + 1, a.size))
    coef[0] = np.log(phi) - shift
    coef[_PHI_ROW] = phi - phi * shift
    lam = density / coef[_PHI_ROW]
    # Taylor coefficients l_j of lambda about a_k from lambda' = lambda^2 -
    # a*lambda: (j+1) l_{j+1} = sum_i l_i l_{j-i} - a_k l_j - l_{j-1}
    lams = [lam]
    for j in range(_DEGREE - 1):
        nxt = sum(lams[i] * lams[j - i] for i in range(j + 1)) - a * lams[j]
        if j:
            nxt -= lams[j - 1]
        lams.append(nxt / (j + 1))
    for j in range(1, _DEGREE + 1):
        coef[j] = lams[j - 1] / -j
    _tilt_to_monotone(coef)
    return coef


_COEF = _node_table()
# the Taylor coefficients as Python floats, one list per node, for the
# scalar kernel
_ROWS = _COEF[:_DEGREE + 1].T.tolist()


def _tail(z, sides: str):
    """log p for |z| > _A_MAX (and nan), scalar or array, numpy ufuncs only.

    Phi(-a) = phi(a)/a * (1 - 1/a^2 + 3/a^4 - ...); six terms are exact
    to double precision past a = 37.
    """
    with np.errstate(over="ignore"):
        a = np.abs(z)
        r = 1.0 / (a * a)
        series = r * (-1.0 + r * (3.0 + r * (-15.0 + r * (105.0 + r * (-945.0 + r * 10395.0)))))
        log_tail = ((-0.5 * (a * a) - np.log(a)) - _HALF_LOG_2PI) + np.log1p(series)
    if sides == "two":
        return LOG_TWO + log_tail
    # One-sided z < 0: log(1 - Phi(-a)) = -Phi(-a) here. exp(-a^2/2) is
    # split at h, a rounded to 2^-16, so that h*h is exact and the rounding
    # of a^2 stays out of the exponent. Phi(-40) underflows to 0.
    a = np.fmin(a, 40.0)
    h = np.rint(a * 65536.0) / 65536.0
    phi = np.exp(-0.5 * (h * h)) * (np.exp(-0.5 * ((a - h) * (a + h)))
                                    * (1.0 + series) / (a * _SQRT_2PI))
    return np.where(z < 0.0, -phi, log_tail)


def log_p_value(z: float, sides: str = "two") -> float:
    """Natural log of the Gaussian tail probability of a z score.

    Two-sided (default): p = 2 * Phi(-|z|); one-sided, testing for means
    above the background only: p = Phi(-z). Computed in log space, so it
    does not underflow for large |z|; equal bit for bit to
    log_p_value_batch.
    """
    a = abs(z)
    if not (a <= _A_MAX and (sides == "two" or z >= 0.0)):
        # one-sided z < 0, |z| > _A_MAX and nan
        return float(log_p_value_batch([z], sides)[0])
    k = round(a * _NODES_PER_UNIT)
    c0, c1, c2, c3, c4, c5, c6, c7 = _ROWS[k]
    t = a - k / _NODES_PER_UNIT
    q = t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * (c5 + t * (c6 + t * c7))))))
    return LOG_TWO + (c0 + q) if sides == "two" else c0 + q


def log_p_value_batch(z, sides: str = "two") -> np.ndarray:
    """log_p_value over an array of z scores."""
    z = np.asarray(z, dtype=np.float64)
    a = np.abs(z)
    c0, q, k, t = _table_terms(_COEF, a)
    out = np.add(c0, q, out=c0)
    if sides == "two":
        out += LOG_TWO
    else:
        neg = np.flatnonzero(z < 0.0)
        k = k[neg]
        untilted = q[neg] - t[neg] * _COEF[_TILT_ROW].take(k)
        out[neg] = np.log1p(-(_COEF[_PHI_ROW].take(k) * np.exp(untilted)))
    if not a.max(initial=0.0) <= _A_MAX:
        far = np.flatnonzero(~(a <= _A_MAX))
        out[far] = _tail(z[far], sides)
    return out


#: Arrays of z shorter than this get log p from the scalar kernel, one value
#: at a time (see _log_p_values). Timed in-process on a 2-vCPU x86-64 host,
#: the scalar route takes 2.8 / 8.7 / 18.1 / 29.2 us for 4 / 16 / 32 / 48
#: values, the batch kernel a flat 19-23 us.
LOG_P_SCALAR_BELOW = 32


def _log_p_values(z: np.ndarray, sides: str) -> np.ndarray:
    """log_p_value_batch(z, sides) for a 1-D array, bit for bit, by the cheaper kernel.

    Below LOG_P_SCALAR_BELOW values the scalar kernel runs once per value,
    which spares the batch kernel's fixed cost per call; larger arrays go
    to the batch kernel. So do short arrays holding a value the scalar
    kernel would hand on (|z| > 37 or one-sided z < 0, as a strong peak
    gives), since each such value would cost a batch call of its own: 16
    values, half of them above 37, took ~340 us value by value against
    ~30 us in one batch call. min and max can miss a nan, which the scalar
    kernel hands on itself, so the values stay exact.
    """
    if z.size < LOG_P_SCALAR_BELOW:
        values = z.tolist()
        if (max(values, default=0.0) <= _A_MAX
                and min(values, default=0.0) >= (0.0 if sides == "one" else -_A_MAX)):
            return np.array([log_p_value(v, sides) for v in values], dtype=np.float64)
    return log_p_value_batch(z, sides)


@lru_cache(maxsize=64)
def z_cut(log_p_max: float, sides: str = "two") -> float:
    """A bound that every z with log_p_value(z) <= log_p_max meets.

    Two-sided: such z have |z| >= the bound; one-sided: z >= the bound.
    The bound is the least such z, found by bisection on log_p_value
    (which is non-increasing in z, or in |z| two-sided), and loosened by a
    relative 1e-6 as a margin. It is -inf for a one-sided test at p = 1.
    The bisection takes ~40 us, so bounds are cached per (log_p_max, sides):
    every profile of a run scans at the same p_s.
    """
    # lo is where log p leaves 0: two-sided at z = 0, one-sided at -40,
    # below which log p is -0.0
    lo = 0.0 if sides == "two" else -40.0
    if log_p_value(lo, sides) <= log_p_max:
        cut = lo if sides == "two" else -math.inf
    else:
        hi = 1.0
        while log_p_value(hi, sides) > log_p_max:
            hi *= 2.0
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if log_p_value(mid, sides) <= log_p_max:
                hi = mid
            else:
                lo = mid
        cut = hi
    return cut - 1e-6 * (1.0 + abs(cut))


def segment_stats(ps: np.ndarray, noise: NoiseModel, start: int, end: int,
                  sides: str = "two") -> tuple[float, float, float]:
    """(mean, z, log_p) of values[start:end] from the prefix sums ``ps``.

    The reference order of the scalar operations: the sum is one
    subtraction of two prefix sums as Python floats, the same IEEE
    subtraction as on the array's doubles, then z_statistic.
    """
    n = end - start
    total = ps.item(end) - ps.item(start)
    z = z_statistic(total, n, noise)
    return total / n, z, log_p_value(z, sides)
