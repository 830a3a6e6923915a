"""The column kernels against the scalar functions they vectorise.

Each round layer computes every node at once from a `Population`'s columns.
The scalar functions stay as the definition of each quantity, and here they
are the oracles: every kernel is run over Hypothesis-drawn populations and
histories and compared node by node with the scalar computation.

- quality, historical contribution, penalty, cooldowns and reward
  allocation use element-for-element the same IEEE arithmetic, so they must
  match exactly;
- stability and the reputation update take a node's window std by a numpy
  reduction instead of `math.fsum`, so they must match within rel=1e-12;
- detection compares a mean or a spread with a threshold. Its three
  conditions must equal the scalar ones wherever the scalar margin
  |lhs - threshold| exceeds 1e-12 * |threshold|; inside that band the two
  summation orders may round to opposite sides.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from flmech.committee import update_cooldowns
from flmech.core import Population, SystemConfig
from flmech.detection import DetectionReport, apply_penalties, detect, penalty
from flmech.metrics import jain_index, mean, pstd
from flmech.reputation import (
    qualities, quality, stabilities, stability, update_reputation, update_reputations,
)
from flmech.reward import (
    allocate_rewards, alpha_weight, committee_bonus, effective_stake, historical_contribution,
    historical_contributions,
)

CFG = SystemConfig()
BAND = 1e-12

contribution = st.floats(min_value=CFG.c_min, max_value=CFG.c_max)


@st.composite
def populations(draw, min_rounds=0, max_rounds=CFG.window + 1):
    """n nodes with k <= window+1 rounds of history and arbitrary state."""
    n = draw(st.integers(min_value=1, max_value=25))
    k = draw(st.integers(min_value=min_rounds, max_value=max_rounds))

    def column(dtype, elements):
        return draw(hnp.arrays(dtype, n, elements=elements))

    return Population(
        stake=column(float, st.floats(min_value=0.0, max_value=1e4)),
        reputation=column(float, st.floats(min_value=0.0, max_value=CFG.r_max_late)),
        total_reward=column(float, st.floats(min_value=0.0, max_value=1e5)),
        participation=column(np.int64, st.integers(min_value=0, max_value=1000)),
        cooldown=column(np.int64, st.integers(min_value=0, max_value=CFG.cooldown_period)),
        history=draw(hnp.arrays(float, (k, n), elements=contribution)),
        malicious=column(bool, st.booleans()),
    )


def members_of(draw, n):
    return draw(st.lists(st.integers(min_value=0, max_value=n - 1), unique=True,
                         max_size=min(n, CFG.committee_size)))


def histories(pop):
    return [pop.history[:, i].tolist() for i in range(len(pop))]


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(float, st.integers(min_value=0, max_value=50),
                  elements=st.floats(min_value=-1e3, max_value=1e3)),
       st.floats(min_value=-10.0, max_value=10.0), st.floats(min_value=1e-3, max_value=20.0))
def test_qualities_equal_quality(c, c_min, span):
    c_max = c_min + span
    assert qualities(c, c_min, c_max).tolist() == [quality(x, c_min, c_max) for x in c.tolist()]


@settings(max_examples=100, deadline=None)
@given(populations(), st.floats(min_value=0.01, max_value=0.99))
def test_historical_contributions_equal_scalar(pop, zeta):
    expected = [historical_contribution(h, zeta, CFG.window) for h in histories(pop)]
    assert historical_contributions(pop.history, zeta, CFG.window).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(st.data(), populations())
def test_apply_penalties_equals_scalar(data, pop):
    mask = data.draw(hnp.arrays(bool, len(pop), elements=st.booleans()))
    none = np.zeros(len(pop), dtype=bool)
    out = apply_penalties(pop, DetectionReport(none, none, mask), CFG)
    lam_r, lam_s = CFG.reputation_penalty_factor, CFG.stake_penalty_factor
    total = 0.0
    for i, nd in enumerate(pop):
        if mask[i]:
            amount = penalty(nd.reputation, nd.stake, lam_r, lam_s)
            assert out.amounts[i] == amount
            assert out.reputation[i] == max(0.0, nd.reputation - amount)
            assert out.stake[i] == max(0.0, nd.stake - lam_s * nd.stake)
            total += lam_s * nd.stake
        else:
            assert (out.amounts[i], out.reputation[i], out.stake[i]) == (0.0, nd.reputation,
                                                                        nd.stake)
    assert out.stake_deducted == total


@settings(max_examples=100, deadline=None)
@given(st.data(), populations())
def test_update_cooldowns_equals_scalar(data, pop):
    members = members_of(data.draw, len(pop))
    expected = [CFG.cooldown_period if nd.id in members else max(0, nd.cooldown - 1)
                for nd in pop]
    assert update_cooldowns(pop, members, CFG).tolist() == expected


def scalar_rewards(pop, committee, cfg):
    """Reward allocation node by node, from the scalar functions."""
    nodes = list(pop)
    reputations = [nd.reputation for nd in nodes]
    fairness = jain_index(reputations, cfg.epsilon)
    alpha = alpha_weight(mean(reputations), cfg.initial_reputation, cfg.f_scale,
                         cfg.stake_weight)
    total_stake = math.fsum(nd.stake for nd in nodes)
    mean_stake = total_stake / len(nodes)
    hist = [historical_contribution(nd.contribution_history, cfg.history_decay, cfg.window)
            for nd in nodes]
    c_total = math.fsum(hist)
    bonus = committee_bonus([nd.reputation for nd in nodes if nd.id in committee],
                            cfg.committee_bonus, cfg.epsilon)
    out = []
    for nd, h in zip(nodes, hist):
        stake_share = effective_stake(nd.stake, mean_stake) / total_stake if total_stake > 0 else 0.0
        contrib_share = h / c_total if c_total > 0 else 0.0
        total = ((alpha * cfg.reward_pool * stake_share
                  + (1.0 - alpha) * cfg.reward_pool * contrib_share) * fairness
                 + (bonus if nd.id in committee else 0.0))
        if not nd.contribution_history or nd.contribution_history[-1] == 0.0:
            total = 0.0
        out.append(float(total))
    return out


@settings(max_examples=100, deadline=None)
@given(st.data(), populations())
def test_allocate_rewards_equals_scalar(data, pop):
    members = members_of(data.draw, len(pop))
    assert allocate_rewards(pop, members, CFG).tolist() == scalar_rewards(pop, set(members), CFG)


@settings(max_examples=100, deadline=None)
@given(populations())
def test_stabilities_match_scalar(pop):
    expected = [stability(h, CFG.window, CFG.default_stability) for h in histories(pop)]
    actual = stabilities(pop.history, CFG.window, CFG.default_stability).tolist()
    assert actual == pytest.approx(expected, rel=BAND)


@settings(max_examples=100, deadline=None)
@given(populations(), st.data(), st.integers(min_value=0, max_value=20))
def test_update_reputations_match_scalar(pop, data, t):
    q = data.draw(hnp.arrays(float, len(pop), elements=st.floats(min_value=0.0, max_value=1.0)))
    expected = [update_reputation(nd, q[i], stability(nd.contribution_history, CFG.window,
                                                      CFG.default_stability), CFG, t)
                for i, nd in enumerate(pop)]
    assert update_reputations(pop, q, CFG, t).tolist() == pytest.approx(expected, rel=BAND)


def scalar_conditions(pop, cfg):
    """Per node, (lhs, threshold, holds) of each condition, as the scalar
    detector computes them with `metrics.mean` and `metrics.pstd`."""
    tau = cfg.window
    windows = [h[-tau:] for h in histories(pop)]
    pooled = sorted(c for w in windows for c in w)
    mid = len(pooled) // 2
    median = pooled[mid] if len(pooled) % 2 else 0.5 * (pooled[mid - 1] + pooled[mid])
    this_round = [w[-1] for w in windows]
    round_mean, round_std = mean(this_round), pstd(this_round)
    out = []
    for h, own in zip(histories(pop), windows):
        c_now, prev = own[-1], h[-(tau + 1):-1]
        lhs1, thr1 = mean(own), cfg.theta_low * median
        lhs2, thr2 = abs(c_now - round_mean), cfg.theta_fluct * round_std
        lhs3, thr3 = abs(c_now - mean(prev)), cfg.theta_jump * max(pstd(prev), cfg.eps_std)
        out.append(((lhs1, thr1, lhs1 < thr1), (lhs2, thr2, lhs2 > thr2),
                    (lhs3, thr3, lhs3 > thr3)))
    return out


@settings(max_examples=200, deadline=None)
@given(populations(min_rounds=2))
def test_detect_conditions_match_scalar_outside_the_band(pop):
    report = detect(pop, CFG)
    columns = (report.cond1, report.cond2, report.cond3)
    for i, conditions in enumerate(scalar_conditions(pop, CFG)):
        for cond, (lhs, threshold, holds) in zip(columns, conditions):
            if abs(lhs - threshold) > BAND * abs(threshold):
                assert cond[i] == holds, (i, lhs, threshold)
    assert report.detected == np.flatnonzero((report.cond1 & report.cond2) | report.cond3).tolist()


@settings(max_examples=50, deadline=None)
@given(populations(max_rounds=1))
def test_detect_flags_nothing_under_two_rounds(pop):
    report = detect(pop, CFG)
    assert not (report.cond1.any() or report.cond2.any() or report.cond3.any())
    assert report.detected == []


@settings(max_examples=50, deadline=None)
@given(populations())
def test_population_round_trips_through_nodes(pop):
    back = Population.from_nodes(list(pop))
    for f in dataclasses.fields(Population):
        assert np.array_equal(getattr(back, f.name), getattr(pop, f.name))
    assert [nd.id for nd in pop] == list(range(len(pop)))
