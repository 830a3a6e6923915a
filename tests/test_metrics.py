"""Exact sums, the fairness index (the committee bonus's too), and Gini
coefficient identities and invariances."""

import math
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flmech.core import sigmoid
from flmech.metrics import _EXTRACT_MIN, exact_sum, gini, jain_index, mean, pstd
from flmech.reward import committee_bonus
from oracles import jain_ratio

positive_lists = st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=30)


def assume_exact_scaling(values, scale):
    # a product that lands below the smallest normal float is rounded, so the
    # list handed to the program would not be a scaled copy of `values`
    assume(all(v == 0.0 or scale * v >= sys.float_info.min for v in values))


def test_mean_of_array():
    assert mean(np.array([1.0, 2.0])) == 1.5
    assert mean(np.array([])) == 0.0
    assert pstd(np.array([1.0, 3.0])) == 1.0
    assert pstd([]) == 0.0


# one value of each kind exact_sum must add as fsum does: the kernels' column
# elements, subnormals, signed zeros, values spread over 1900 binary exponents
# (far past what one extraction resolves), and non-finite or near-overflow values
SUM_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=10.0), st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=500.0), st.floats(min_value=0.0, max_value=1e5),
    st.floats(min_value=-1e3, max_value=1e3),
    st.floats(min_value=-sys.float_info.min, max_value=sys.float_info.min),
    st.sampled_from([0.0, -0.0]),
    st.builds(math.ldexp, st.floats(min_value=-1.0, max_value=1.0),
              st.integers(min_value=-1000, max_value=899)),
    st.sampled_from([math.inf, -math.inf, math.nan, sys.float_info.max, -sys.float_info.max,
                     2.0 ** 900, math.nextafter(2.0 ** 900, math.inf), 2.0 ** -900]),
)


def near_tie(rng, n):
    """Values on a 2**-20 grid, so their numpy total t is exact, then half an
    ulp of t and a push of 2**-60 to 2**-119 either way: the exact total lies
    just off a rounding midpoint, most often within the first level's
    stopping bound of it."""
    x = np.floor(rng.uniform(0.0, 10.0, n) * 2.0 ** 20) / 2.0 ** 20
    if n >= 2:
        push = rng.choice([-1, 1]) * 2.0 ** -rng.integers(60, 120)
        x[-2:] = math.ulp(float(x[:-2].sum())) / 2, push
    return rng.permutation(x)


def tie_within_rounding(seed):
    """1.0, then values in [2**-44, 2**-43) that the first level leaves whole
    in its residual, the last set so that the exact total lies within 2**-97
    of a rounding midpoint: closer than the rounding of numpy's sum of the
    residual may be."""
    x = np.random.default_rng(seed).uniform(2.0 ** -44, 2.0 ** -43, _EXTRACT_MIN)
    x[0] = 1.0
    rest, ulp = sum(map(Fraction, x[:-1])), Fraction(2) ** -52
    # the midpoint after 1.0 at or just below rest + 1.5 * 2**-44
    x[-1] = (rest + Fraction(3, 2 ** 45) - 1) // ulp * ulp + 1 + ulp / 2 - rest
    return x


# the bulk of an array, from a seeded numpy generator: the values above mostly
# come as a few drawn cells over it
SUM_BULKS = {
    "zero": lambda rng, n: np.zeros(n),
    "negative zero": lambda rng, n: np.full(n, -0.0),
    "contribution": lambda rng, n: rng.uniform(0.0, 10.0, n),
    "gaussian": lambda rng, n: rng.normal(7.0, 1.0, n),
    "subnormal": lambda rng, n: rng.uniform(-1.0, 1.0, n) * sys.float_info.min,
    # pairs of about +-1e16 that cancel exactly, over values of order 1
    "cancelling": lambda rng, n: rng.permutation(np.concatenate(
        [big := rng.uniform(-1e16, 1e16, n // 3), -big, rng.normal(0.0, 1.0, n - 2 * len(big))])),
    "spread": lambda rng, n: np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1000, 900, n)),
    # spread pairs that cancel exactly, so the values of order 1 make the sum
    "spread cancelling": lambda rng, n: rng.permutation(np.concatenate(
        [big := np.ldexp(rng.uniform(-1.0, 1.0, n // 3), rng.integers(-1000, 900, n // 3)),
         -big, rng.normal(0.0, 1.0, n - 2 * len(big))])),
    "sparse": lambda rng, n: np.where(rng.random(n) < 0.05, rng.uniform(0.0, 1e4, n), 0.0),
    "near tie": near_tie,
}


@st.composite
def sum_columns(draw):
    """An array of a length on either side of exact_sum's cutoff: drawn values
    repeated to that length, or a seeded bulk with a few drawn cells."""
    n = draw(st.integers(min_value=0, max_value=2 * _EXTRACT_MIN)
             | st.sampled_from([_EXTRACT_MIN - 1, _EXTRACT_MIN, _EXTRACT_MIN + 1]))
    if draw(st.booleans()):
        return np.resize(np.array(draw(st.lists(SUM_VALUES, min_size=1, max_size=40))), n)
    bulk = SUM_BULKS[draw(st.sampled_from(sorted(SUM_BULKS)))]
    x = bulk(np.random.default_rng(draw(st.integers(min_value=0, max_value=2 ** 32 - 1))), n)
    for i, v in draw(st.lists(st.tuples(st.integers(min_value=0, max_value=max(n - 1, 0)),
                                        SUM_VALUES), max_size=8 if n else 0)):
        x[i] = v
    return x


def sum_outcome(f, x):
    """The bits and the sign of f(x), or the class of the error it raises."""
    try:
        total = f(x)
    except (OverflowError, ValueError) as exc:
        return type(exc)
    return struct.pack("<d", total), math.copysign(1.0, total)


@settings(max_examples=600, deadline=None)
@given(x=sum_columns())
@example(x=np.full(2 * _EXTRACT_MIN, -0.0))
@example(x=np.array([]))
@example(x=np.append(np.linspace(0.5, 1.5, 600), 2.0 ** 900))
# pairs from 2**900 down to 2**550 that cancel exactly, over 600 values of 0.1:
# extraction at the peak's scale leaves a residual whose bound dwarfs the
# 0.1s, so the list goes to fsum whole
@example(x=np.append(np.full(600, 0.1), 2.0 ** np.arange(900, 500, -50) * [[1], [-1]]))
@example(x=np.full(_EXTRACT_MIN, sys.float_info.max))  # the sum overflows
# the first level's residual sum 2**-53 sits on the midpoint after 1.0, and
# 2**-120 is within the stopping bound of it: fsum rounds up to 1 + 2**-52
@example(x=np.append([1.0, 2.0 ** -53, 2.0 ** -120], np.zeros(_EXTRACT_MIN - 3)))
# the exact total is a midpoint, which fsum rounds to even, and numpy's sum of
# the first residual lies 2**-88 above it: a stopping bound 2**15 times too
# small stops there and rounds up
@example(x=tie_within_rounding(40))
# nonzero values that cancel to an exact zero, which no level may stop at
@example(x=np.resize([0.1, 1e-20, -0.1, -1e-20], _EXTRACT_MIN))
# a midpoint of 2**-900 pushed up by 2**-1074, at the smallest peak that is
# extracted: the residual 2**-953 + 2**-1074 rounds onto the midpoint, the
# bound cannot tell its sides apart, and fsum of the whole list rounds up
@example(x=np.append([2.0 ** -900, 2.0 ** -953, 2.0 ** -1074], np.zeros(_EXTRACT_MIN - 3)))
def test_exact_sum_is_fsum_of_the_list(x):
    assert sum_outcome(exact_sum, x) == sum_outcome(lambda v: math.fsum(v.tolist()), x)


@pytest.mark.parametrize("x", [tie_within_rounding(40),
                               np.resize([0.1, 1e-20, -0.1, -1e-20], _EXTRACT_MIN)],
                         ids=["midpoint", "exact zero"])
def test_an_uncertified_sum_goes_to_fsum_whole(monkeypatch, x):
    # one extraction cannot prove these roundings (a midpoint that numpy's
    # residual sum misses, and an exact zero), so after its two certification
    # sums exact_sum hands math.fsum the whole list, once, and takes no second level
    fsum, calls = math.fsum, []

    def recorded_fsum(values):
        calls.append(list(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", recorded_fsum)
    total = exact_sum(x)
    assert [len(values) for values in calls] == [2, 2, len(x)]
    assert calls[-1] == x.tolist()
    assert struct.pack("<d", total) == struct.pack("<d", fsum(x.tolist()))


def outcome(f, values):
    """The bits of f(values), or the type of the error it raises."""
    try:
        return struct.pack("<d", f(values))
    except (ArithmeticError, RuntimeWarning) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
@example(values=[0.0, -0.0, 5e-324, 2.0 ** -1040, 1.0])
@example(values=[0.0, 0.0])
def test_list_and_array_give_identical_bits(values):
    # records hold float64 columns; callers may still pass lists of floats
    array = np.array(values, dtype=np.float64)
    for f in (mean, jain_index, gini):
        assert outcome(f, values) == outcome(f, array), f.__name__


def separately_summed_jain_index(values, eps=1e-8):
    """jain_index as the reference ratio times the sigmoid of a mean summed
    on its own."""
    return jain_ratio(values, eps) * sigmoid(mean(values) / 10.0)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=30))
@example(values=[0.3, 0.1, 0.2])                # peak in [2**-1048, 0.5): rescaled
@example(values=[2.0 ** -1048, 5e-324, -0.0])   # the smallest peak that is rescaled
@example(values=[1e-320, -5e-324, 0.0])         # subnormals too small to rescale
@example(values=[0.0, -0.0])
@example(values=[-0.0])
@example(values=[])
@example(values=[1e200, 3.0])                   # the squares overflow
@example(values=[1.5e308, 1.5e308])             # the total overflows
def test_jain_index_reuses_only_an_unscaled_total(values):
    # jain_index takes the mean from the ratio's total unless the ratio
    # rescaled the values; the bits, or the error, must not change
    for v in (values, np.array(values, dtype=np.float64)):
        assert outcome(jain_index, v) == outcome(separately_summed_jain_index, v)


# one committee member's reputation: in the engine's range, any finite float
# (past 1.3e154 its square overflows), or below 1, where the ratio rescales
MEMBER_VALUES = st.one_of(
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 5e-324, 2.0 ** -1048]),
)


@st.composite
def member_reputations(draw):
    """Up to 300 reputations, past metrics.exact_sum's cutoff: drawn values
    repeated to the length, some shifted so their peak lies in
    [2**-1048, 1); as a list or an array."""
    n = draw(st.integers(min_value=0, max_value=300))
    values = np.resize(np.array(draw(st.lists(MEMBER_VALUES, min_size=1, max_size=20))), n)
    peak = float(np.abs(values).max(initial=0.0))
    if peak and draw(st.booleans()):
        e = draw(st.integers(min_value=-1047, max_value=0))
        values = np.ldexp(values, e - math.frexp(peak)[1])
    return values if draw(st.booleans()) else values.tolist()


def reference_bonus(values, base_bonus, eps):
    """The base bonus times the reference ratio times the sigmoid of the
    mean, multiplied left to right."""
    m = math.fsum(values) / len(values) if len(values) else 0.0
    return base_bonus * jain_ratio(values, eps) * sigmoid(m / 10.0)


@settings(max_examples=300, deadline=None)
@given(values=member_reputations(), base_bonus=st.floats(min_value=0.0, max_value=1e6),
       eps=st.floats(min_value=1e-300, max_value=1.0))
@example(values=[], base_bonus=40.0, eps=1e-8)
@example(values=np.array([]), base_bonus=40.0, eps=1e-8)
@example(values=[0.3, 0.1, 0.2], base_bonus=40.0, eps=1e-8)       # rescaled
# B * (ratio * weight) would round this one differently
@example(values=[250.0, 120.0, 333.0], base_bonus=40.0, eps=1e-8)
@example(values=np.linspace(100.0, 500.0, 300), base_bonus=40.0, eps=1e-8)
@example(values=[1e200, 3.0], base_bonus=40.0, eps=1e-8)          # the squares overflow
@example(values=[1.5e308, 1.5e308], base_bonus=40.0, eps=1e-8)    # the total overflows
def test_committee_bonus_is_base_times_ratio_times_weight(values, base_bonus, eps):
    assert (outcome(lambda v: committee_bonus(v, base_bonus, eps), values)
            == outcome(lambda v: reference_bonus(v, base_bonus, eps), values))


def test_jain_equal_values():
    # ratio 1 times sigmoid(10)
    assert jain_index([100.0] * 4) == pytest.approx(sigmoid(10.0), rel=1e-9)
    assert abs(jain_index([100.0] * 4) - 0.9999546) < 1e-7


def test_jain_all_zero():
    assert jain_index([0.0, 0.0, 0.0, 0.0]) == 0.0


def test_jain_single_spike():
    # (1)^2/(4*1+eps) * sigmoid(0.025)
    expected = 1.0 / (4.0 + 1e-8) * sigmoid(0.025)
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == pytest.approx(expected, rel=1e-12)
    assert abs(jain_index([1.0, 0.0, 0.0, 0.0]) - 0.12656) < 1e-4


def test_gini_equal_values_zero():
    for n in (1, 2, 5, 40):
        assert gini([3.5] * n) == pytest.approx(0.0, abs=1e-12)


def test_gini_single_spike_extreme():
    assert gini([0.0, 0.0, 0.0, 1.0]) == pytest.approx(0.75, abs=1e-12)


def test_gini_arithmetic_case():
    # cumulative sums 1,3,6,10 sum to 20: (5 - 2*20/10)/4 = 0.25
    assert gini([1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.25, abs=1e-12)


def test_gini_all_zero_defined_as_zero():
    assert gini([0.0, 0.0, 0.0]) == 0.0


def test_gini_order_free():
    assert gini([4.0, 1.0, 3.0, 2.0]) == pytest.approx(gini([1.0, 2.0, 3.0, 4.0]), abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(values=positive_lists, scale=st.floats(min_value=1e-3, max_value=1e3))
def test_gini_scale_invariant(values, scale):
    if math.fsum(values) == 0.0:
        return
    assume_exact_scaling(values, scale)
    assert gini([scale * v for v in values]) == pytest.approx(gini(values), abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(values=positive_lists, scale=st.floats(min_value=1e-2, max_value=1e2))
def test_jain_presigmoid_ratio_scale_invariant(values, scale):
    # dividing out the sigmoid factor recovers the scale-invariant ratio
    if math.fsum(values) == 0.0:
        return
    assume_exact_scaling(values, scale)
    n = len(values)

    def ratio(vs):
        mean = math.fsum(vs) / n
        return jain_index(vs, eps=1e-300) / sigmoid(mean / 10.0)

    assert ratio([scale * v for v in values]) == pytest.approx(ratio(values), rel=1e-9)


@settings(max_examples=150, deadline=None)
@given(values=positive_lists)
def test_gini_bounds(values):
    n = len(values)
    g = gini(values)
    assert -1e-12 <= g <= (n - 1) / n + 1e-12


@settings(max_examples=150, deadline=None)
@given(values=positive_lists)
def test_jain_bounds(values):
    assert 0.0 <= jain_index(values) <= 1.0 + 1e-12

