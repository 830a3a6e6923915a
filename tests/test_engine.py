"""Round-loop orchestration: step order effects, atomicity, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flmech import committee, metrics, reward
from flmech.core import RngStream, Role, SystemConfig, validate_config
from flmech.engine import iter_rounds, new_world, run_round, run_simulation

FAST = dataclasses.replace(SystemConfig(), n_nodes=30, rounds=12,
                           malicious_percent=0.2, eta_switch=3)


def record_bytes(records):
    return json.dumps([dataclasses.asdict(r) for r in records], sort_keys=True,
                      default=np.ndarray.tolist).encode()


def test_seed_argument_becomes_the_config_seed():
    assert FAST.seed == 42
    state = run_simulation(dataclasses.replace(FAST, rounds=3), seed=5)
    assert state.cfg.seed == 5 == state.rng.seed


def test_first_round_structure():
    state = new_world(SystemConfig(), seed=0)
    rec = run_round(state)
    assert rec.round == 0
    assert len(rec.committee) == 5
    assert not rec.undersized_committee
    assert rec.detected == []  # insufficient history
    for i, c in enumerate(rec.contributions):
        if c > 0.0:
            assert rec.rewards[i] > 0.0
        else:
            assert rec.rewards[i] == 0.0
    # run_round returns its record and keeps only the tallies
    assert state.t == 1 and state.detected_per_round == [0] and state.records == []


def test_zero_phase_contributors_earn_nothing():
    cfg = SystemConfig()
    state = new_world(cfg, seed=1)
    for _ in range(cfg.eta_switch + 2):
        rec = run_round(state)
    malicious = [nd.id for nd in state.nodes if nd.role is Role.MALICIOUS]
    assert all(rec.contributions[i] == 0.0 for i in malicious)
    assert all(rec.rewards[i] == 0.0 for i in malicious)


def test_rounds_zero_returns_initial_state():
    cfg = dataclasses.replace(SystemConfig(), rounds=0)
    result = run_simulation(cfg, seed=5)
    assert result.records == []
    assert all(nd.reputation == 100.0 and nd.total_reward == 0.0 for nd in result.nodes)


def test_same_seed_byte_identical():
    a = run_simulation(FAST, seed=77)
    b = run_simulation(FAST, seed=77)
    assert record_bytes(a.records) == record_bytes(b.records)
    assert [nd.total_reward for nd in a.nodes] == [nd.total_reward for nd in b.nodes]
    c = run_simulation(FAST, seed=78)
    assert record_bytes(a.records) != record_bytes(c.records)


def test_total_reward_adds_each_round_reward():
    # the engine credits every round's reward to the node's total, in round order
    result = run_simulation(FAST, seed=5)
    for nd in result.nodes:
        total = 0.0
        for rec in result.records:
            total += rec.rewards[nd.id]
        assert nd.total_reward == total


def test_round_application_is_atomic(monkeypatch):
    state = new_world(FAST, seed=3)
    run_round(state)
    nodes_snapshot = record_nodes(state)
    t_before = state.t
    tallies_before = (list(state.detected_per_round), dict(state.first_detected))

    import flmech.engine as engine_mod

    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(engine_mod.reward_mod, "allocate_rewards", boom)
    with pytest.raises(RuntimeError, match="injected failure"):
        run_round(state)
    assert state.t == t_before
    assert len(state.detected_per_round) == t_before
    assert (state.detected_per_round, state.first_detected) == tallies_before
    assert record_nodes(state) == nodes_snapshot


def test_iter_rounds_yields_every_round_and_keeps_none():
    state = new_world(FAST, seed=3)
    rounds = [rec.round for rec in iter_rounds(state)]
    assert rounds == list(range(FAST.rounds))
    assert state.t == FAST.rounds and state.records == []
    assert list(iter_rounds(state)) == []
    # the streamed records are the ones run_simulation keeps
    state = new_world(FAST, seed=3)
    assert record_bytes(iter_rounds(state)) == record_bytes(run_simulation(FAST, seed=3).records)


def test_summary_tallies_match_records():
    cfg = dataclasses.replace(SystemConfig(), n_nodes=40, rounds=30)
    result = run_simulation(cfg, seed=0)
    first = {}
    for rec in result.records:
        for node_id in rec.detected:
            first.setdefault(node_id, rec.round)
    assert first
    summary = result.summary()
    assert summary["rounds"] == len(result.records)
    assert summary["detected_per_round"] == [len(rec.detected) for rec in result.records]
    assert summary["first_detection_round"] == first == result.first_detection_round()


def test_round_failing_mid_stream_leaves_state_unchanged(monkeypatch):
    check_failing_round_leaves_state_unchanged(monkeypatch, reward, "allocate_rewards")


def test_round_failing_in_its_commit_leaves_state_unchanged(monkeypatch):
    # update_cooldowns runs inside tally_round, after every step has succeeded
    check_failing_round_leaves_state_unchanged(monkeypatch, committee, "update_cooldowns")


def check_failing_round_leaves_state_unchanged(monkeypatch, module, name):
    state = new_world(FAST, seed=3)
    stream = iter_rounds(state)
    for _ in range(5):
        next(stream)
    assert state.first_detected  # round 3 flags nodes at this seed
    before = (state.t, list(state.detected_per_round), dict(state.first_detected),
              record_nodes(state), state.stake_income)

    def boom(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(module, name, boom)
    with pytest.raises(RuntimeError, match="injected failure"):
        next(stream)
    assert (state.t, state.detected_per_round, state.first_detected,
            record_nodes(state), state.stake_income) == before
    # a fresh stream resumes at the failed round and ends where an unbroken run ends
    monkeypatch.undo()
    for _ in iter_rounds(state):
        pass
    assert state.summary() == run_simulation(FAST, seed=3).summary()


def record_nodes(state):
    return [(nd.id, nd.stake, nd.reputation, nd.total_reward, nd.participation,
             nd.cooldown, tuple(nd.contribution_history))
            for nd in state.nodes]


def test_run_round_past_the_last_round_raises_and_leaves_state_unchanged():
    state = run_simulation(dataclasses.replace(FAST, rounds=3), seed=3)
    nodes = state.nodes
    before = (state.t, list(state.detected_per_round), dict(state.first_detected),
              state.stake_income)
    with pytest.raises(ValueError, match="round 3 out of range; run has 3 rounds"):
        run_round(state)
    assert state.nodes is nodes
    assert (state.t, state.detected_per_round, state.first_detected,
            state.stake_income) == before


def test_tally_round_commits_cooldowns_rewards_and_tallies():
    state = new_world(FAST, seed=3)
    for _ in range(5):
        run_round(state)
    old, t, income = state.nodes, state.t, state.stake_income
    counts, first = list(state.detected_per_round), dict(state.first_detected)
    flagged_before = min(first)
    fresh = next(i for i in range(FAST.n_nodes) if i not in first)
    # some nodes sit on cooldown, some are off it, so both branches of the tick run
    assert 0 < np.count_nonzero(old.cooldown) < FAST.n_nodes
    members = [0, 7, 19]
    rewards = np.linspace(0.0, 3.0, FAST.n_nodes)
    nodes = old.with_columns(reputation=old.reputation / 2.0)
    state.tally_round(nodes, members, rewards, [flagged_before, fresh], 1.25)

    new = state.nodes
    assert new.cooldown.tolist() == [FAST.cooldown_period if i in members else max(0, c - 1)
                                     for i, c in enumerate(old.cooldown.tolist())]
    assert np.array_equal(new.total_reward, old.total_reward + rewards)
    assert new.reputation is nodes.reputation
    assert state.stake_income == income + 1.25
    assert state.detected_per_round == counts + [2]
    assert state.first_detected == {**first, fresh: t}
    assert state.t == t + 1
    assert not [name for name, col in vars(new).items() if col.flags.writeable]


def test_participation_monotone_and_counts_positive_contributions():
    state = new_world(FAST, seed=9)
    last = {nd.id: 0 for nd in state.nodes}
    records = []
    for _ in range(FAST.rounds):
        records.append(run_round(state))
        for nd in state.nodes:
            assert nd.participation >= last[nd.id]
            last[nd.id] = nd.participation
    for nd in state.nodes:
        positive = sum(1 for rec in records if rec.contributions[nd.id] > 0.0)
        assert nd.participation == positive


def test_round_counter_and_bounded_history():
    # node state holds the last window+1 contributions however long the run
    cfg = dataclasses.replace(FAST, rounds=12 * FAST.window)
    state = new_world(cfg, seed=11)
    records = []
    for expected_t in range(cfg.rounds):
        rec = run_round(state)
        records.append(rec)
        assert rec.round == expected_t
        for nd in state.nodes:
            assert len(nd.contribution_history) == min(expected_t + 1, cfg.window + 1)
            assert nd.contribution_history[-1] == rec.contributions[nd.id]
    assert state.t == cfg.rounds
    assert len(records) == cfg.rounds
    for nd in state.nodes:
        assert nd.contribution_history == [rec.contributions[nd.id]
                                           for rec in records[-(cfg.window + 1):]]


def test_every_column_is_read_only_after_each_round():
    state = new_world(dataclasses.replace(FAST, t_max=1.0), seed=3)
    while state.t < state.cfg.rounds:
        run_round(state)
        for f in dataclasses.fields(state.nodes):
            assert not getattr(state.nodes, f.name).flags.writeable, (state.t, f.name)


def test_timeout_zeroes_contribution_and_logs():
    # tau is uniform on [0.5, 1.5]; a deadline of 1.0 forces about half of
    # the submissions to time out and be recorded as zero contributions
    cfg = dataclasses.replace(FAST, t_max=1.0)
    state = new_world(cfg, seed=21)
    rec = run_round(state)
    assert rec.timeouts
    for i in rec.timeouts:
        assert rec.contributions[i] == 0.0
        assert rec.completion_times[i] > 1.0
        assert rec.rewards[i] == 0.0
    honest_on_time = [i for i, nd in enumerate(state.nodes)
                      if nd.role is Role.HONEST and i not in rec.timeouts]
    assert any(rec.contributions[i] > 0 for i in honest_on_time)


def test_record_holds_node_columns_and_id_lists():
    # per-node fields are the layers' float64 columns; id fields stay lists of
    # ints, which callers concatenate
    cfg = dataclasses.replace(FAST, t_max=1.0)
    result = run_simulation(cfg, seed=21)
    assert any(rec.detected for rec in result.records)
    for rec in result.records:
        for column in (rec.contributions, rec.completion_times, rec.qualities,
                       rec.reputation_after, rec.penalties, rec.rewards):
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.float64 and column.shape == (cfg.n_nodes,)
        assert rec.committee and rec.timeouts
        for ids in (rec.committee, rec.detected, rec.timeouts):
            assert type(ids) is list and all(type(i) is int for i in ids)


def test_no_timeouts_without_deadline():
    state = new_world(FAST, seed=21)
    rec = run_round(state)
    assert rec.timeouts == []


def test_detected_committee_member_with_zero_contribution_unpaid():
    cfg = SystemConfig()
    state = new_world(cfg, seed=2)
    for _ in range(10):
        rec = run_round(state)
        for i in rec.committee:
            if rec.contributions[i] == 0.0:
                assert rec.rewards[i] == 0.0


def test_publisher_ledger_accumulates_stake_deductions():
    cfg = SystemConfig()
    state = new_world(cfg, seed=0)
    stakes_before = {nd.id: nd.stake for nd in state.nodes}
    for _ in range(8):
        run_round(state)
    assert state.stake_income > 0.0
    total_lost = sum(stakes_before[nd.id] - nd.stake for nd in state.nodes)
    assert state.stake_income == pytest.approx(total_lost, rel=1e-9)
    malicious = [nd for nd in state.nodes if nd.role is Role.MALICIOUS]
    assert all(nd.stake < 100.0 for nd in malicious)


def test_all_honest_population_rarely_flagged():
    # ~100 * 90 honest node-rounds: the false-positive rate stays under 2%
    cfg = dataclasses.replace(SystemConfig(), malicious_percent=0.0)
    result = run_simulation(cfg, seed=6)
    flagged = sum(len(rec.detected) for rec in result.records)
    node_rounds = cfg.n_nodes * cfg.rounds
    assert flagged / node_rounds < 0.02


def test_round_record_consistency():
    cfg = FAST
    result = run_simulation(cfg, seed=15)
    ids = set(range(cfg.n_nodes))
    for rec in result.records:
        assert set(rec.detected) <= ids
        assert len(rec.committee) == cfg.committee_size or rec.undersized_committee
        assert len(set(rec.committee)) == len(rec.committee)
        assert rec.total_paid == pytest.approx(sum(rec.rewards), rel=1e-12)


def test_cooldowns_stay_in_configured_range():
    state = new_world(FAST, seed=17)
    for _ in range(FAST.rounds):
        run_round(state)
        assert all(0 <= nd.cooldown <= FAST.cooldown_period for nd in state.nodes)


def test_honest_contributions_independent_of_attack_schedule():
    # each round draws every variable for every node before patterns apply,
    # so changing the malicious schedule must not move any honest node's
    # contributions
    cfg_a = FAST
    cfg_b = dataclasses.replace(FAST, attack_schedule=[(0, FAST.rounds, "zero")])
    a = run_simulation(cfg_a, seed=19)
    b = run_simulation(cfg_b, seed=19)
    honest = [nd.id for nd in a.nodes if nd.role is Role.HONEST]
    assert honest == [nd.id for nd in b.nodes if nd.role is Role.HONEST]
    for rec_a, rec_b in zip(a.records, b.records):
        for i in honest:
            assert rec_a.contributions[i] == rec_b.contributions[i]


def test_each_round_follows_its_one_round_phase():
    # one-round phases alternating zero and false_high put a phase boundary
    # between every two rounds, so each round's lookup is checked
    cfg = dataclasses.replace(
        SystemConfig(), n_nodes=10, rounds=12, committee_size=3, malicious_percent=0.3,
        attack_schedule=[(t, t + 1, ("zero", "false_high")[t % 2]) for t in range(12)])
    state = run_simulation(cfg, seed=3)
    malicious = [nd.id for nd in state.nodes if nd.role is Role.MALICIOUS]
    assert len(malicious) == 3
    for rec in state.records:
        bad = rec.contributions[malicious]
        assert np.all(bad > 0.0) if rec.round % 2 else np.all(bad == 0.0), rec.round


def test_schedule_memory_does_not_grow_with_rounds():
    # the attack schedule is held as its phase table, so a run of 2**53
    # rounds validates and builds its world in the memory of a short one
    cfg = dataclasses.replace(SystemConfig(), rounds=2**53)
    tracemalloc.start()
    try:
        validate_config(cfg)
        state = new_world(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(state.schedule) == 4
    assert peak < 1 << 20, peak


def test_mechanism_never_reads_role_tag():
    # Tagging half the population malicious but scheduling them on the
    # normal pattern produces draw-for-draw identical contributions (node i
    # takes element i of each round's batch, whatever its role). Every
    # mechanism output must then be byte-identical to the all-honest run.
    honest_cfg = dataclasses.replace(FAST, malicious_percent=0.0)
    tagged_cfg = dataclasses.replace(
        FAST, malicious_percent=0.5,
        attack_schedule=[(0, FAST.rounds, "normal")])
    a = run_simulation(honest_cfg, seed=13)
    b = run_simulation(tagged_cfg, seed=13)
    assert sum(nd.role is Role.MALICIOUS for nd in b.nodes) == 15
    assert record_bytes(a.records) == record_bytes(b.records)


def test_one_rng_stream_per_purpose_and_round(monkeypatch):
    # roles once, then one contrib and one committee stream per round,
    # whatever the population size
    labels = []
    stream = RngStream.stream

    def counting(self, purpose, round_=0, node=0):
        labels.append((purpose, round_, node))
        return stream(self, purpose, round_, node)

    monkeypatch.setattr(RngStream, "stream", counting)
    cfg = dataclasses.replace(FAST, n_nodes=50, rounds=8)
    run_simulation(cfg, seed=0)
    assert len(labels) == 1 + 2 * cfg.rounds
    assert labels[0] == ("roles", 0, 0)
    assert sorted(labels[1:]) == sorted((p, t, 0) for t in range(cfg.rounds)
                                        for p in ("contrib", "committee"))


def test_simulation_does_not_import_scipy():
    # scipy is a test dependency only: a fresh interpreter that imports the
    # package, runs the simulator and solves the contract never loads it
    code = ("import sys, dataclasses, flmech\n"
            "cfg = dataclasses.replace(flmech.SystemConfig(), n_nodes=20, rounds=8, eta_switch=3)\n"
            "flmech.run_simulation(cfg, seed=0)\n"
            "flmech.solve_constrained(flmech.SystemConfig())\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_round_sums_each_column_once_from_a_list(monkeypatch):
    # math.fsum over an ndarray walks numpy scalars, several times slower than
    # over the array's list; and a round needs 11 exact sums over n values
    n, fsum, lengths = 50, math.fsum, []

    def list_only_fsum(values):
        assert not isinstance(values, np.ndarray), "math.fsum given an ndarray"
        lengths.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", list_only_fsum)
    state = new_world(dataclasses.replace(SystemConfig(), n_nodes=n, rounds=12))
    for _ in range(12):
        lengths.clear()
        run_round(state)
        assert lengths.count(n) <= 11


def test_round_sums_above_the_cutoff_extract_each_column_once(monkeypatch):
    # above exact_sum's cutoff a round still takes 11 exact sums over n values,
    # each certified after one extraction: no column reaches math.fsum as its
    # whole list of n values, neither just above the cutoff nor at the
    # benchmark's wide_population width
    fsum, exact_sum = math.fsum, metrics.exact_sum
    fsum_lengths, extracted = [], []

    def list_only_fsum(values):
        assert not isinstance(values, np.ndarray), "math.fsum given an ndarray"
        fsum_lengths.append(len(values))
        return fsum(values)

    def counted_exact_sum(x):
        extracted.append(len(x))
        return exact_sum(x)

    monkeypatch.setattr(math, "fsum", list_only_fsum)
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("flmech") and hasattr(m, "exact_sum")]:
        monkeypatch.setattr(module, "exact_sum", counted_exact_sum)
    for n in (metrics._EXTRACT_MIN + 1, 2000):
        state = new_world(dataclasses.replace(SystemConfig(), n_nodes=n, rounds=12))
        for _ in range(12):
            fsum_lengths.clear()
            extracted.clear()
            run_round(state)
            assert 0 < extracted.count(n) <= 11
            assert n not in fsum_lengths
