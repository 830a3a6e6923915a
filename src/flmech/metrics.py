"""Fairness and inequality measures over allocations."""

import math

import numpy as np

from .core import sigmoid

# A subnormal below 2**-1048 keeps fewer than 26 of a double's 53 significant
# bits, too few for a ratio over such values to mean anything.
_TINY = 2.0 ** -1048


def mean(values: list[float]) -> float:
    """Arithmetic mean by math.fsum; 0.0 for empty input."""
    return math.fsum(values) / len(values) if values else 0.0


def pstd(values) -> float:
    """Population standard deviation about the mean, both sums by math.fsum;
    0.0 for empty input."""
    if not len(values):
        return 0.0
    v = np.asarray(values, dtype=float)
    d = v - math.fsum(v.tolist()) / len(v)
    return math.sqrt(math.fsum((d * d).tolist()) / len(v))


def jain_ratio(values: list[float], eps: float = 1e-8) -> float:
    """The classic fairness ratio (sum)^2 / (n * sum of squares + eps).

    The ratio is scale invariant, but eps is not: values below 1 are first
    scaled by an exact power of two so that the largest lies in [0.5, 1),
    which keeps their squares from going subnormal and eps from swamping
    them. Values whose largest magnitude is below 2**-1048 are not scaled;
    their squares underflow, and they score 0 like all-zero input.
    """
    v = np.asarray(values, dtype=float)
    peak = float(np.abs(v).max()) if v.size else 0.0
    if _TINY <= peak < 1.0:
        v = np.ldexp(v, -math.frexp(peak)[1])
    total = math.fsum(v.tolist())
    sq = math.fsum((v * v).tolist())
    return (total * total) / (len(v) * sq + eps)


def jain_index(values: list[float], eps: float = 1e-8) -> float:
    """Fairness index: the jain_ratio of the values, scaled by a sigmoid of
    the mean so low-valued allocations score lower.

    Equal positive values give the pure ratio 1; the result is then
    sigmoid(mean/10) of that. All-zero input scores 0.
    """
    return jain_ratio(values, eps) * sigmoid(mean(values) / 10.0)


def gini(values) -> float:
    """Gini coefficient in [0, 1): 0 for perfect equality.

    Computed from the ascending cumulative-sum identity
    G = (n + 1 - 2 * sum_i cum_i / total) / n, with both running sums added
    left to right. All-zero input is defined as 0 (no inequality among
    identical zeros).
    """
    n = len(values)
    ordered = np.sort(np.asarray(values, dtype=float))
    total = math.fsum(ordered.tolist())
    if total == 0.0:
        return 0.0
    cum_sum = float(np.cumsum(np.cumsum(ordered))[-1])
    return (n + 1 - 2.0 * cum_sum / total) / n


def sequential_sum(values: np.ndarray, start: float = 0.0) -> float:
    """start + values[0] + values[1] + ..., added left to right in doubles,
    as a Python loop of `+=` would add them."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])
