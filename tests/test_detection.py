"""Detection conditions, penalty arithmetic, and penalty application."""

import dataclasses

import numpy as np

from flmech.core import Node, Population, Role, SystemConfig
from flmech.detection import DetectionReport, apply_penalties, detect, penalty

CFG = SystemConfig()


def node_with_history(i, contributions, role=Role.HONEST, reputation=100.0, stake=100.0):
    nd = Node(id=i, stake=stake, reputation=reputation, role=role)
    # the engine keeps the last window+1 contributions
    nd.contribution_history = [float(c) for c in contributions][-(CFG.window + 1):]
    return nd


def steady_population(n=20, rounds=6, rng=None, level=7.0):
    rng = rng or np.random.default_rng(0)
    return [node_with_history(i, np.clip(rng.normal(level, 1.0, rounds), 0, 10))
            for i in range(n)]


def flagged(*mask):
    """A report that flags the nodes whose entry in `mask` is true."""
    none = np.zeros(len(mask), dtype=bool)
    return DetectionReport(cond1=none, cond2=none, cond3=np.array(mask, dtype=bool))


def test_penalty_reference_values():
    assert penalty(300.0, 100.0, 0.3, 0.1) == 100.0   # min(90+10, 150)
    assert penalty(0.0, 0.0, 0.3, 0.1) == 0.0
    assert penalty(100.0, 1000.0, 0.3, 0.1) == 50.0   # cap r/2 binds
    assert penalty(10.0, 0.0, 0.3, 0.1) == 3.0


def test_fresh_nodes_never_flagged():
    nodes = [node_with_history(i, [0.0]) for i in range(10)]
    report = detect(Population.from_nodes(nodes), CFG)
    assert report.detected == []


def test_jump_fires_on_attack_switch():
    # five rounds of ~9.5 then a zero: |0 - 9.5| far exceeds the jump
    # threshold theta_jump * eps_std
    nodes = steady_population(n=17)
    attacker = node_with_history(17, [9.5, 9.4, 9.6, 9.5, 9.5, 0.0], role=Role.MALICIOUS)
    nodes.append(attacker)
    report = detect(Population.from_nodes(nodes), CFG)
    assert 17 in report.detected
    assert report.cond3[17]


def test_steady_zero_contributor_detected_persistently():
    # all-zero recent window: recent mean far below population median AND a
    # clear per-round outlier against the population
    nodes = steady_population(n=17)
    attacker = node_with_history(17, [9.5, 0, 0, 0, 0, 0], role=Role.MALICIOUS)
    nodes.append(attacker)
    report = detect(Population.from_nodes(nodes), CFG)
    assert 17 in report.detected
    assert report.cond1[17] and report.cond2[17]
    assert not report.cond3[17]  # no jump: window already near zero


def test_node_at_population_median_untouched():
    rng = np.random.default_rng(4)
    nodes = steady_population(n=19, rng=rng)
    calm = node_with_history(19, [7.0] * 6)
    nodes.append(calm)
    report = detect(Population.from_nodes(nodes), CFG)
    assert 19 not in report.detected
    assert not report.cond1[19] and not report.cond2[19] and not report.cond3[19]


def test_detection_blind_to_role_tag():
    # identical histories, flipped tags: the report must be identical
    def build(role_for_last):
        nodes = steady_population(n=10)
        extra = node_with_history(10, [9.5, 9.5, 9.5, 9.5, 9.5, 0.0], role=role_for_last)
        nodes.append(extra)
        return Population.from_nodes(nodes)

    r_honest = detect(build(Role.HONEST), CFG)
    r_malicious = detect(build(Role.MALICIOUS), CFG)
    assert r_honest.detected == r_malicious.detected
    assert np.array_equal(r_honest.cond1, r_malicious.cond1)
    assert np.array_equal(r_honest.cond2, r_malicious.cond2)
    assert np.array_equal(r_honest.cond3, r_malicious.cond3)


def test_honest_false_positive_rate_below_two_percent():
    # 10^4 honest node-rounds with steady gaussian draws
    rng = np.random.default_rng(123)
    flagged = total = 0
    for _ in range(50):
        nodes = steady_population(n=20, rounds=10, rng=rng)
        report = detect(Population.from_nodes(nodes), CFG)
        flagged += len(report.detected)
        total += len(nodes)
    assert total >= 1000
    assert flagged / total < 0.02


def test_apply_penalties_updates_state_and_ledger():
    pop = Population.from_nodes([node_with_history(0, [9.5, 0.0], reputation=300.0, stake=100.0)])
    out = apply_penalties(pop, flagged(True), CFG)
    assert out.reputation[0] == 200.0            # 300 - min(90+10, 150)
    assert abs(out.stake[0] - 90.0) < 1e-12      # 10% stake slash
    assert abs(out.stake_deducted - 10.0) < 1e-12
    assert out.amounts[0] == 100.0


def test_apply_penalties_empty_report_noop():
    pop = Population.from_nodes([node_with_history(0, [5.0], reputation=120.0)])
    out = apply_penalties(pop, flagged(False), CFG)
    assert out.stake_deducted == 0.0
    assert out.reputation[0] == 120.0 and out.stake[0] == 100.0
    assert not out.amounts.any()


def test_penalties_never_go_negative():
    pop = Population.from_nodes([node_with_history(0, [1.0, 0.0], reputation=10.0, stake=0.0)])
    out = apply_penalties(pop, flagged(True), CFG)
    assert out.reputation[0] == 7.0              # 10 - min(3, 5)
    assert out.stake[0] == 0.0
    for _ in range(50):
        pop = dataclasses.replace(pop, reputation=out.reputation, stake=out.stake)
        out = apply_penalties(pop, flagged(True), CFG)
    assert out.reputation[0] >= 0.0
    assert out.stake[0] >= 0.0
