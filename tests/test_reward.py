"""Reward allocation: weights, caps, decayed histories, bonuses, overrides."""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from flmech.core import DomainError, Node, SystemConfig, sigmoid
from flmech.metrics import jain_index
from flmech.reward import alpha_weight, allocate_rewards, committee_bonus, effective_stake
from oracles import historical_contribution, population_from_nodes

CFG = SystemConfig()


def node_with_history(i, contributions, stake=100.0, reputation=100.0):
    nd = Node(id=i, stake=stake, reputation=reputation)
    # the engine keeps the last window+1 contributions
    nd.contribution_history = [float(c) for c in contributions][-(CFG.window + 1):]
    return nd


def test_effective_stake_cap():
    assert effective_stake(100.0, 100.0) == 100.0
    assert effective_stake(500.0, 100.0) == 300.0
    assert effective_stake(300.0, 100.0) == 300.0  # boundary


def test_historical_contribution_geometric_oracle():
    # constant history c with zeta=0.9 over six weighted entries:
    # c * (1 - 0.9^6) / (1 - 0.9) = 4.68559 c
    c = 3.7
    val = historical_contribution([c] * 8, 0.9, 5)
    assert abs(val - c * (1 - 0.9 ** 6) / 0.1) < 1e-12
    assert abs(val - 4.68559 * c) < 1e-4


def test_historical_contribution_edges():
    assert historical_contribution([], 0.9, 5) == 0.0
    assert historical_contribution([2.5], 0.9, 5) == 2.5


def test_alpha_weight_values():
    assert alpha_weight(100.0, 100.0, 100.0, 0.4) == pytest.approx(0.2)
    assert alpha_weight(300.0, 100.0, 100.0, 0.4) == pytest.approx(
        sigmoid(2.0) * 0.4, abs=1e-12)
    assert abs(alpha_weight(300.0, 100.0, 100.0, 0.4) - 0.352318) < 1e-5
    assert alpha_weight(1e9, 100.0, 100.0, 0.4) == pytest.approx(0.4)
    with pytest.raises(DomainError):
        alpha_weight(100.0, 100.0, 0.0, 0.4)


def test_committee_bonus_equal_members():
    # equal reputations: fairness ratio 1, sigmoid(50) ~ 1 -> full bonus
    assert committee_bonus([500.0] * 5, 40.0, 1e-8) == pytest.approx(40.0, abs=1e-6)


def test_committee_bonus_unequal_members():
    # members (100,0,0,0,0): ratio 0.2, mean 20 -> 40*0.2*sigmoid(2)
    val = committee_bonus([100.0, 0.0, 0.0, 0.0, 0.0], 40.0, 1e-8)
    assert val == pytest.approx(40.0 * 0.2 * sigmoid(2.0), abs=1e-9)
    assert abs(val - 7.0464) < 1e-4


def test_committee_bonus_empty():
    assert committee_bonus([], 40.0, 1e-8) == 0.0


def test_single_node_collapses_to_pool_times_fairness():
    cfg = dataclasses.replace(CFG, n_nodes=1, committee_size=1)
    pop = population_from_nodes([node_with_history(0, [5.0, 5.0, 5.0], reputation=200.0)])
    out = allocate_rewards(pop, [0], cfg)[0]
    expected_fairness = jain_index([200.0], cfg.epsilon)
    expected = cfg.reward_pool * expected_fairness + committee_bonus(
        [200.0], cfg.committee_bonus, cfg.epsilon)
    assert out == pytest.approx(expected, rel=1e-12)
    assert pop.total_reward[0] == 0.0  # the engine credits the total, see test_engine


def test_zero_contribution_override_beats_committee_bonus():
    nodes = [node_with_history(0, [5.0, 0.0]), node_with_history(1, [5.0, 5.0])]
    out = allocate_rewards(population_from_nodes(nodes), [0], CFG)
    assert out[0] == 0.0            # zero contributor earns nothing, even selected
    assert out[1] > 0.0


def test_empty_history_override():
    # histories all have one length, so an empty one means no round yet
    nodes = [node_with_history(0, []), node_with_history(1, [])]
    out = allocate_rewards(population_from_nodes(nodes), [], CFG)
    assert out[0] == 0.0


def test_symmetric_population_equal_rewards():
    nodes = [node_with_history(i, [4.0, 4.0]) for i in range(10)]
    out = allocate_rewards(population_from_nodes(nodes), [], CFG)
    first = out[0]
    assert first > 0.0
    assert all(abs(r - first) < 1e-9 for r in out)
    # equal split of the fairness-scaled pool
    fairness = jain_index([100.0] * 10, CFG.epsilon)
    assert first == pytest.approx(CFG.reward_pool * fairness / 10, rel=1e-9)


def test_permutation_symmetry():
    histories = [[3.0, 6.0], [1.0, 2.0], [8.0, 8.0]]
    stakes = [50.0, 100.0, 400.0]

    nodes = [node_with_history(i, histories[i], stake=stakes[i]) for i in range(3)]
    base = allocate_rewards(population_from_nodes(nodes), [2], CFG)

    perm = [2, 0, 1]  # new id of original node i
    nodes2 = [node_with_history(perm[i], histories[i], stake=stakes[i]) for i in range(3)]
    nodes2.sort(key=lambda nd: nd.id)
    permuted = allocate_rewards(population_from_nodes(nodes2), [perm[2]], CFG)  # indexed by id after the sort
    for i in range(3):
        assert base[i] == pytest.approx(permuted[perm[i]], rel=1e-12)


def test_conservation_bound_per_round():
    rng_histories = [[9.0, 8.5], [7.0, 7.5], [0.5, 1.0], [10.0, 10.0]]
    nodes = [node_with_history(i, rng_histories[i % 4], stake=100.0 * (i + 1))
             for i in range(12)]
    out = allocate_rewards(population_from_nodes(nodes), [0, 1, 2, 3, 4], CFG)
    total = math.fsum(out)
    assert total <= CFG.reward_pool + CFG.committee_size * CFG.committee_bonus


def test_stake_cap_effect_on_share():
    # beyond 3x the mean stake, a bigger stake no longer raises the holder's
    # own numerator (it still inflates the denominator)
    fairness = jain_index([100.0] * 10, CFG.epsilon)
    alpha = alpha_weight(100.0, 100.0, CFG.f_scale, CFG.stake_weight)

    def whale_reward(whale_stake):
        nodes = [node_with_history(0, [5.0, 5.0], stake=whale_stake)]
        nodes += [node_with_history(i, [5.0, 5.0], stake=100.0) for i in range(1, 10)]
        return allocate_rewards(population_from_nodes(nodes), [], CFG)[0]

    def reward_counting(counted_stake, total_stake):
        # equal reputations and contributions: a tenth of the contribution term
        stake_term = alpha * CFG.reward_pool * counted_stake / total_stake
        contrib_term = (1.0 - alpha) * CFG.reward_pool / 10
        return (stake_term + contrib_term) * fairness

    assert whale_reward(200.0) == pytest.approx(reward_counting(200.0, 1100.0), rel=1e-12)
    for whale_stake in (2000.0, 5000.0):
        total_stake = whale_stake + 900.0
        capped = reward_counting(3 * total_stake / 10, total_stake)
        assert whale_reward(whale_stake) == pytest.approx(capped, rel=1e-12)
        assert capped < reward_counting(whale_stake, total_stake)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=12),
       st.integers(min_value=0, max_value=11))
def test_rewards_nonnegative(contribs, committee_pick):
    nodes = [node_with_history(i, [c, c]) for i, c in enumerate(contribs)]
    members = [committee_pick] if committee_pick < len(nodes) else []
    out = allocate_rewards(population_from_nodes(nodes), members, CFG)
    assert len(out) == len(nodes)
    assert all(r >= 0.0 for r in out)
