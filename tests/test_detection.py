"""Detection conditions, penalty arithmetic, and penalty application."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flmech import detection
from flmech.core import Node, Population, Role, SystemConfig
from flmech.detection import DetectionReport, _median, apply_penalties, detect
from flmech.metrics import window_std
from flmech.reputation import stabilities
from oracles import penalty, population_from_nodes

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
    report = detect(population_from_nodes(nodes), CFG)
    assert report.detected == []


def test_jump_fires_on_attack_switch():
    # five rounds of ~9.5 then a zero: |0 - 9.5| far exceeds the jump
    # threshold theta_jump * eps_std
    nodes = steady_population(n=17)
    attacker = node_with_history(17, [9.5, 9.4, 9.6, 9.5, 9.5, 0.0], role=Role.MALICIOUS)
    nodes.append(attacker)
    report = detect(population_from_nodes(nodes), CFG)
    assert 17 in report.detected
    assert report.cond3[17]


def test_steady_zero_contributor_detected_persistently():
    # all-zero recent window: recent mean far below population median AND a
    # clear per-round outlier against the population
    nodes = steady_population(n=17)
    attacker = node_with_history(17, [9.5, 0, 0, 0, 0, 0], role=Role.MALICIOUS)
    nodes.append(attacker)
    report = detect(population_from_nodes(nodes), CFG)
    assert 17 in report.detected
    assert report.cond1[17] and report.cond2[17]
    assert not report.cond3[17]  # no jump: window already near zero


def test_node_at_population_median_untouched():
    rng = np.random.default_rng(4)
    nodes = steady_population(n=19, rng=rng)
    calm = node_with_history(19, [7.0] * 6)
    nodes.append(calm)
    report = detect(population_from_nodes(nodes), CFG)
    assert 19 not in report.detected
    assert not report.cond1[19] and not report.cond2[19] and not report.cond3[19]


def test_detection_blind_to_role_tag():
    # identical histories, flipped tags: the report must be identical
    def build(role_for_last):
        nodes = steady_population(n=10)
        extra = node_with_history(10, [9.5, 9.5, 9.5, 9.5, 9.5, 0.0], role=role_for_last)
        nodes.append(extra)
        return population_from_nodes(nodes)

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
        report = detect(population_from_nodes(nodes), CFG)
        flagged += len(report.detected)
        total += len(nodes)
    assert total >= 1000
    assert flagged / total < 0.02


def test_apply_penalties_updates_state_and_ledger():
    pop = population_from_nodes([node_with_history(0, [9.5, 0.0], reputation=300.0, stake=100.0)])
    out = apply_penalties(pop, flagged(True), CFG)
    assert out.reputation[0] == 200.0            # 300 - min(90+10, 150)
    assert abs(out.stake[0] - 90.0) < 1e-12      # 10% stake slash
    assert abs(out.stake_deducted - 10.0) < 1e-12
    assert out.amounts[0] == 100.0


def test_apply_penalties_empty_report_noop():
    pop = population_from_nodes([node_with_history(0, [5.0], reputation=120.0)])
    out = apply_penalties(pop, flagged(False), CFG)
    assert out.stake_deducted == 0.0
    assert out.reputation[0] == 120.0 and out.stake[0] == 100.0
    assert not out.amounts.any()


def test_penalties_never_go_negative():
    pop = population_from_nodes([node_with_history(0, [1.0, 0.0], reputation=10.0, stake=0.0)])
    out = apply_penalties(pop, flagged(True), CFG)
    assert out.reputation[0] == 7.0              # 10 - min(3, 5)
    assert out.stake[0] == 0.0
    for _ in range(50):
        pop = dataclasses.replace(pop, reputation=out.reputation, stake=out.stake)
        out = apply_penalties(pop, flagged(True), CFG)
    assert out.reputation[0] >= 0.0
    assert out.stake[0] >= 0.0


def middle_of_sorted(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5, -3.0])
                | st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=80))
@example([-0.0, 0.0, -0.0])
@example([0.0, -0.0, 0.0, -0.0])
@example([3.0, 3.0, 1.0, 3.0])
@example([2.5, 1.0, 2.5, 1.0, 2.5])
def test_median_is_the_middle_of_the_sorted_values(values):
    # compared by value: a zero's sign may differ from the sorted list's
    assert _median(np.array(values)) == middle_of_sorted(values)


@pytest.mark.parametrize("length", [1999, 2000, 9995, 9996, 10_000, 10_001])
def test_median_of_a_wide_window_with_ties_and_signed_zeros(length):
    # window sizes the engine reaches at n = 1999, 2000, through numpy's
    # vectorised partition kernels
    rng = np.random.default_rng(length)
    values = rng.integers(-3, 4, length) * 0.5
    values[rng.random(length) < 0.2] = -0.0
    assert _median(values) == middle_of_sorted(values.tolist())


@pytest.mark.parametrize("rows", range(1, CFG.window + 2))
def test_window_stds_are_np_std_bit_for_bit(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    n = 2000
    history = np.clip(rng.normal(rng.uniform(0, 10, n), rng.uniform(0, 3, n), (rows, n)), 0, 10)
    history[:, :100] = 7.3
    history[:, 100:200] = rng.choice([0.0, 9.5], (rows, 100))
    assert (window_std(history, history.mean(axis=0)).tobytes()
            == np.std(history, axis=0).tobytes())
    for tau in {rows, CFG.window}:
        expected = (np.clip(1.0 - np.std(history[-tau:], axis=0) / tau, 0.0, 1.0)
                    if rows >= tau else np.full(n, CFG.default_stability))
        assert (stabilities(history, tau, CFG.default_stability).tobytes()
                == expected.tobytes())

    # detect's jump scale: the std of the tau rounds before this one
    scales = []

    def recorded(window, window_mean):
        scales.append((window, window_std(window, window_mean)))
        return scales[-1][1]

    monkeypatch.setattr(detection, "window_std", recorded)
    detect(Population(stake=np.full(n, 100.0), reputation=np.full(n, 100.0),
                      total_reward=np.zeros(n), participation=np.zeros(n, dtype=np.int64),
                      cooldown=np.zeros(n, dtype=np.int64), history=history,
                      malicious=np.zeros(n, dtype=bool)), CFG)
    assert len(scales) == (rows >= 2)
    for window, scale in scales:
        assert np.array_equal(window, history[-(CFG.window + 1):-1])
        assert scale.tobytes() == np.std(window, axis=0).tobytes()
