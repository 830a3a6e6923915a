"""Quality, decay, stability, and the capped reputation update.

Frozen expected values are independent evaluations of the defining formulas
(logistic function, population std by definition, plain arithmetic).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flmech.core import DomainError, Node, SystemConfig
from flmech.reputation import decay_factor, qualities, quality, stability, update_reputation

CFG = SystemConfig()


def make_node(reputation=100.0, participation=0):
    return Node(id=0, stake=100.0, reputation=reputation,
                participation=participation)


def test_quality_reference_values():
    assert quality(0.0, 0.0, 10.0) == 0.5
    # 1/(1+e^-1) and 1/(1+e^-0.5), evaluated independently
    assert abs(quality(10.0, 0.0, 10.0) - 0.7310585786300049) < 1e-12
    assert abs(quality(5.0, 0.0, 10.0) - 0.6224593312018546) < 1e-12


def test_quality_rejects_empty_range():
    with pytest.raises(DomainError):
        quality(1.0, 5.0, 5.0)
    for c_max in [5.0, 4.0]:
        with pytest.raises(DomainError, match="c_max must exceed c_min"):
            qualities(np.array([1.0, 6.0]), 5.0, c_max)


def test_decay_factor_values():
    assert decay_factor(0.88, 0.07, 0) == 0.88
    assert abs(decay_factor(0.88, 0.07, 100) - 0.915) < 1e-12
    # supremum 0.95 approached but never attained
    assert decay_factor(0.88, 0.07, 10**9) < 0.95
    assert decay_factor(0.88, 0.07, 10**9) > 0.9499


def test_stability_constant_window():
    assert stability([7.0] * 5, 5, 0.8) == 1.0


def test_stability_short_history_uses_default():
    assert stability([3.0, 9.0], 5, 0.8) == 0.8


def test_stability_volatile_window():
    # population std of [10,0,10,0,10] is sqrt(24) = 4.898979...;
    # 1 - 4.898979/5 = 0.0202041
    val = stability([10.0, 0.0, 10.0, 0.0, 10.0], 5, 0.8)
    assert abs(val - (1.0 - math.sqrt(24.0) / 5.0)) < 1e-12
    assert abs(val - 0.020204) < 1e-6


def test_stability_clamped_to_unit_interval():
    # huge swings make the raw value negative; it must clamp at 0
    assert stability([100.0, -100.0, 100.0, -100.0, 100.0], 5, 0.8) == 0.0


def test_update_reputation_reference_case():
    # 0.88*100 + 50*sigmoid(0.7) + 30*0.8 = 145.40939 (participation 0, t=1)
    node = make_node(reputation=100.0, participation=0)
    q = quality(7.0, 0.0, 10.0)
    result = update_reputation(node, q, 0.8, CFG, t=1)
    assert abs(result - 145.40938860840832) < 1e-9
    assert result < 300.0


def test_update_reputation_cap_binds():
    node = make_node(reputation=500.0, participation=50)
    assert update_reputation(node, 0.9, 1.0, CFG, t=10) == 500.0


def test_update_reputation_from_zero():
    node = make_node(reputation=0.0)
    assert update_reputation(node, 0.5, 0.0, CFG, t=1) == 25.0


def test_early_round_cap_is_300():
    node = make_node(reputation=295.0, participation=3)
    assert update_reputation(node, 0.7, 1.0, CFG, t=5) == 300.0
    assert update_reputation(node, 0.7, 1.0, CFG, t=6) > 300.0


@settings(max_examples=150, deadline=None)
@given(c1=st.floats(min_value=0.0, max_value=10.0),
       c2=st.floats(min_value=0.0, max_value=10.0),
       r=st.floats(min_value=0.0, max_value=200.0))
def test_monotone_in_contribution_below_cap(c1, c2, r):
    node = make_node(reputation=r)
    lo, hi = sorted((c1, c2))
    r_lo = update_reputation(node, quality(lo, 0.0, 10.0), 0.5, CFG, t=1)
    r_hi = update_reputation(node, quality(hi, 0.0, 10.0), 0.5, CFG, t=1)
    if r_hi < 300.0 and hi - lo > 1e-6:  # cap not binding, gap visible to float
        assert r_hi > r_lo


@settings(max_examples=150, deadline=None)
@given(r=st.floats(min_value=0.0, max_value=1e6),
       q=st.floats(min_value=0.0, max_value=1.0),
       lam=st.floats(min_value=0.0, max_value=1.0),
       t=st.integers(min_value=0, max_value=200))
def test_update_always_within_caps(r, q, lam, t):
    node = make_node(reputation=r)
    out = update_reputation(node, q, lam, CFG, t)
    assert 0.0 <= out <= CFG.r_max(t)


def test_uncapped_fixed_point_exceeds_late_cap():
    # With q >= 0.66, stability >= 0.9, delta >= 0.915 the uncapped fixed
    # point (q*X_c + lam*X_s)/(1-delta) tops 500, so the cap must bind for a
    # steady honest population.
    q, lam, delta = 0.66, 0.9, 0.915
    fixed_point = (q * CFG.contribution_bonus + lam * CFG.stability_bonus) / (1 - delta)
    assert fixed_point > 500.0
