"""Stratified committee selection: quotas, weighted sampling, cooldowns.

The weighted-sampling frequency checks use the analytic sequential-draw
probability as the oracle; the monotonicity check computes exact inclusion
probabilities by enumerating draw sequences rather than by simulation.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flmech.committee import (
    SampleError, select_committee, stratum_quota, update_cooldowns,
    weighted_sample_without_replacement,
)
from flmech.core import Node, Population, SystemConfig


def make_node(i, reputation=100.0, cooldown=0):
    return Node(id=i, stake=100.0, reputation=reputation, cooldown=cooldown)


def test_quota_vectors():
    assert [stratum_quota(5, 3, k) for k in (1, 2, 3)] == [2, 2, 1]
    assert [stratum_quota(6, 3, k) for k in (1, 2, 3)] == [2, 2, 2]
    assert [stratum_quota(1, 3, k) for k in (1, 2, 3)] == [1, 0, 0]


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=1, max_value=50), L=st.integers(min_value=1, max_value=12))
def test_quota_sums_to_committee_size(k, L):
    quotas = [stratum_quota(k, L, i) for i in range(1, L + 1)]
    assert sum(quotas) == k
    assert all(q in (k // L, k // L + 1) for q in quotas)


def test_exhaustive_draw_returns_everyone():
    rng = np.random.default_rng(0)
    picks = weighted_sample_without_replacement(["a", "b", "c"], [1.0, 1.0, 1.0], 3, rng)
    assert sorted(picks) == ["a", "b", "c"]


def test_oversized_draw_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(SampleError):
        weighted_sample_without_replacement([1, 2], [1.0, 1.0], 3, rng)


def test_weighted_frequency_matches_analytic_probability():
    # reputations (4,1) with gamma=0.5 weight as (2,1): P(first) = 2/3.
    rng = np.random.default_rng(42)
    wins = 0
    trials = 100_000
    for _ in range(trials):
        picks = weighted_sample_without_replacement([0, 1], [4 ** 0.5, 1 ** 0.5], 1, rng)
        wins += picks[0] == 0
    assert abs(wins / trials - 2 / 3) < 0.01


def test_zero_weight_only_after_positive_exhausted():
    rng = np.random.default_rng(3)
    for _ in range(500):
        picks = weighted_sample_without_replacement([0, 1, 2], [0.0, 5.0, 1.0], 2, rng)
        assert 0 not in picks
    picks = weighted_sample_without_replacement([0, 1, 2], [0.0, 5.0, 1.0], 3, rng)
    assert picks[2] == 0  # the zero-weight candidate comes out last


def _inclusion_probabilities(weights, count):
    """Exact P(i in sample) for sequential weighted draws, by enumeration."""
    n = len(weights)
    probs = [0.0] * n
    for seq in itertools.permutations(range(n), count):
        p = 1.0
        remaining = list(range(n))
        for pick in seq:
            total = sum(weights[j] for j in remaining)
            p *= weights[pick] / total
            remaining.remove(pick)
        for pick in seq:
            probs[pick] += p
    return probs


def test_inclusion_probability_monotone_in_weight():
    base = [1.0, 2.0, 3.0, 4.0]
    for count in (1, 2, 3):
        lo = _inclusion_probabilities(base, count)[0]
        bumped = [2.5, 2.0, 3.0, 4.0]
        hi = _inclusion_probabilities(bumped, count)[0]
        assert hi > lo


def test_inclusion_frequency_matches_enumerated_probability():
    # the sampler against the enumerated sequential-draw oracle, beyond one pick
    weights = [1.0, 2.0, 3.0, 4.0]
    rng = np.random.default_rng(8)
    trials = 10_000
    for count in (2, 3):
        counts = np.zeros(len(weights))
        for _ in range(trials):
            counts[weighted_sample_without_replacement([0, 1, 2, 3], weights, count, rng)] += 1
        expected = _inclusion_probabilities(weights, count)
        assert np.allclose(counts / trials, expected, atol=0.02), (count, counts / trials)


def test_all_zero_weights_pick_uniformly():
    rng = np.random.default_rng(9)
    k, trials = 4, 10_000
    first = np.zeros(k)
    for _ in range(trials):
        first[weighted_sample_without_replacement(list(range(k)), [0.0] * k, 2, rng)[0]] += 1
    assert np.allclose(first / trials, 1 / k, atol=0.02), first / trials


def test_select_committee_respects_quotas():
    cfg = SystemConfig()
    nodes = [make_node(i) for i in range(100)]
    rng = np.random.default_rng(11)
    sel = select_committee(nodes, cfg, rng)
    assert len(sel.members) == 5
    assert not sel.undersized
    assert len(set(sel.members)) == 5
    # equal reputations: strata are the id blocks [0,33), [33,66), [66,100),
    # and members list the (2, 2, 1) stratum picks in stratum order
    assert all(0 <= nid < 33 for nid in sel.members[:2])
    assert all(33 <= nid < 66 for nid in sel.members[2:4])
    assert 66 <= sel.members[4] < 100


def test_select_committee_all_on_cooldown():
    cfg = SystemConfig()
    nodes = [make_node(i, cooldown=2) for i in range(100)]
    sel = select_committee(nodes, cfg, np.random.default_rng(0))
    assert sel.members == []
    assert sel.undersized


def test_cooldown_stratum_spills_into_global_pool():
    # 9 nodes, 3 strata of 3; the middle stratum (ranks 3-5) is cooling down.
    # Quotas (2,2,1): strata 1 and 3 supply 2+1, the remaining 2 must come
    # from the global pool = eligible-not-picked nodes of strata 1 and 3.
    cfg = dataclasses.replace(SystemConfig(), n_nodes=9, committee_size=5, strata=3)
    reps = [90, 80, 70, 60, 50, 40, 30, 20, 10]
    nodes = [make_node(i, reputation=reps[i], cooldown=(1 if 3 <= i <= 5 else 0))
             for i in range(9)]
    sel = select_committee(nodes, cfg, np.random.default_rng(2))
    assert len(sel.members) == 5
    assert not sel.undersized
    assert len(set(sel.members)) == 5
    # members: 2 picks from stratum 1, none from stratum 2, 1 from stratum 3,
    # then 2 remainder picks from the eligible nodes not yet picked
    assert all(nid in (0, 1, 2) for nid in sel.members[:2])
    assert sel.members[2] in (6, 7, 8)
    assert all(nid in (0, 1, 2, 6, 7, 8) for nid in sel.members[3:])


def test_update_cooldowns():
    cfg = SystemConfig()
    pop = Population.from_nodes([make_node(0, cooldown=0), make_node(1, cooldown=0),
                                 make_node(2, cooldown=2)])
    cooldown = update_cooldowns(pop, [0], cfg)
    assert cooldown[0] == 3  # selected
    assert cooldown[1] == 0  # max(0, -1)
    assert cooldown[2] == 1


def test_no_consecutive_membership_over_many_rounds():
    cfg = dataclasses.replace(SystemConfig(), n_nodes=30)
    pop = Population.from_nodes([make_node(i, reputation=100.0 + i) for i in range(30)])
    rng = np.random.default_rng(0)
    previous: set[int] = set()
    for t in range(200):
        sel = select_committee(pop, cfg, rng)
        assert not (set(sel.members) & previous)
        pop = dataclasses.replace(pop, cooldown=update_cooldowns(pop, sel.members, cfg))
        previous = set(sel.members)


def test_ineligible_for_exactly_three_rounds():
    cfg = dataclasses.replace(SystemConfig(), n_nodes=6, committee_size=1)
    pop = Population.from_nodes([make_node(i) for i in range(6)])
    pop = dataclasses.replace(pop, cooldown=update_cooldowns(pop, [0], cfg))
    history = []
    for _ in range(3):
        history.append(pop[0].cooldown)
        pop = dataclasses.replace(pop, cooldown=update_cooldowns(pop, [], cfg))
    assert history == [3, 2, 1]
    assert pop[0].cooldown == 0
