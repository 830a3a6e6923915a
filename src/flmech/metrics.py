"""Fairness and inequality measures over allocations."""

import math

import numpy as np

from .core import sigmoid

# A subnormal below 2**-1048 keeps fewer than 26 of a double's 53 significant
# bits, too few for a ratio over such values to mean anything.
_TINY = 2.0 ** -1048
# Below this many values math.fsum over the list is faster than extraction
# (the two are about even at 240 values on a 2-vCPU AVX-512 host).
_EXTRACT_MIN = 256


def exact_sum(x) -> float:
    """Exactly math.fsum(x.tolist()), sign of zero and errors included, by
    one error-free extraction (Rump, Ogita & Oishi 2008): for sigma = 2**e >=
    2**ceil(log2(n+2)) * max|x|, q = (sigma + x) - sigma and r = x - q are
    exact, every |r_i| <= 2**(e-53), and q.sum() is exact in any order.

    The residual's plain sum rs then proves the rounding, or the input goes
    to fsum whole. Any summation order gives |rs - sum(r)| <= gamma(n-1) *
    sum|r_i| < n*n * 2**(e-106) (an addition that underflows is exact), so
    with bound = n*n * 2**(e-105) + n * 2**-1074, even after rs -+ bound is
    rounded, lo = rs - bound < sum(r) < rs + bound = hi. fsum rounds
    correctly, hence monotonically: if fsum([q.sum(), lo]) ==
    fsum([q.sum(), hi]), the exact total rounds to that value. An exact-zero
    total never passes, since lo and hi make the two totals nonzero multiples
    of 2**-1074 of opposite signs, so fsum gives its sign of zero. Short,
    all-zero, non-finite and extreme inputs go to fsum whole too."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    peak = float(np.abs(x).max()) if n >= _EXTRACT_MIN else 0.0
    if 2.0 ** -900 <= peak <= 2.0 ** 900:
        e = math.frexp(peak)[1] + (n + 1).bit_length()
        sigma = math.ldexp(1.0, e)
        q = (sigma + x) - sigma
        level, rs = float(q.sum()), float((x - q).sum())
        bound = math.ldexp(n * n, e - 105) + math.ldexp(n, -1074)
        lo = math.fsum([level, rs - bound])
        if lo == math.fsum([level, rs + bound]):
            return lo
    return math.fsum(x.tolist())


def window_std(window: np.ndarray, window_mean: np.ndarray) -> np.ndarray:
    """Population std of each column of the (k, n) `window`, from its column
    means `window_mean` (`window.mean(axis=0)`) with `np.std`'s own
    operations, so equal to `np.std(window, axis=0)` bit for bit."""
    d = window - window_mean
    return np.sqrt((d * d).sum(axis=0) / len(window))


def mean(values) -> float:
    """Arithmetic mean by exact_sum; 0.0 for empty input."""
    return exact_sum(values) / len(values) if len(values) else 0.0


def pstd(values) -> float:
    """Population standard deviation about the mean, both sums by exact_sum;
    0.0 for empty input."""
    if not len(values):
        return 0.0
    v = np.asarray(values, dtype=float)
    d = v - mean(v)
    return math.sqrt(mean(d * d))


def jain_ratio(values, eps: float = 1e-8) -> float:
    """The classic fairness ratio (sum)^2 / (n * sum of squares + eps).

    The ratio is scale invariant, but eps is not: values below 1 are first
    scaled by an exact power of two so that the largest lies in [0.5, 1),
    which keeps their squares from going subnormal and eps from swamping
    them. Values whose largest magnitude is below 2**-1048 are not scaled;
    their squares underflow, and they score 0 like all-zero input.
    """
    return _jain_parts(values, eps)[0]


def _jain_parts(values, eps: float) -> tuple[float, float | None]:
    """(jain_ratio of the values, their exact total), the total None when
    the values were rescaled, since it is then not the values' own."""
    v = np.asarray(values, dtype=float)
    peak = float(np.abs(v).max()) if v.size else 0.0
    scaled = _TINY <= peak < 1.0
    if scaled:
        v = np.ldexp(v, -math.frexp(peak)[1])
    total = exact_sum(v)
    sq = exact_sum(v * v)
    return (total * total) / (len(v) * sq + eps), None if scaled else total


def jain_index(values, eps: float = 1e-8) -> float:
    """Fairness index: the jain_ratio of the values, scaled by a sigmoid of
    the mean so low-valued allocations score lower.

    Equal positive values give the pure ratio 1; the result is then
    sigmoid(mean/10) of that. All-zero input scores 0. The mean reuses the
    ratio's total unless the ratio rescaled the values.
    """
    ratio, total = _jain_parts(values, eps)
    # an empty input's total is 0.0, so max() only guards the division
    m = mean(values) if total is None else total / max(len(values), 1)
    return ratio * sigmoid(m / 10.0)


def gini(values) -> float:
    """Gini coefficient in [0, 1): 0 for perfect equality.

    Computed from the ascending cumulative-sum identity
    G = (n + 1 - 2 * sum_i cum_i / total) / n, with both running sums added
    left to right. All-zero input is defined as 0 (no inequality among
    identical zeros).
    """
    n = len(values)
    ordered = np.sort(np.asarray(values, dtype=float))
    total = exact_sum(ordered)
    if total == 0.0:
        return 0.0
    cum_sum = float(np.cumsum(np.cumsum(ordered))[-1])
    return (n + 1 - 2.0 * cum_sum / total) / n

