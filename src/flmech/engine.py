"""Round loop orchestration.

Each round: collect contributions, select the committee, (logically)
aggregate, detect and penalize malicious behaviour or apply the reputation
update, allocate rewards, compute fairness metrics, and emit an audit
record. Rounds apply atomically: a failure inside any step restores the
pre-round state.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import committee as committee_mod
from . import detection as detection_mod
from . import reward as reward_mod
# `sample_contribution` is not called here; it stays a name of this module
# because bench/spans.py wraps `engine.sample_contribution` by that name.
from .behavior import sample_contribution, sample_contributions  # noqa: F401
from .contract import contribution_value
from .core import (
    Node, PatternKind, Role, RngStream, RoundRecord, SystemConfig, attack_patterns,
    init_population, validate_config,
)
from .metrics import gini, jain_index, mean
from .reputation import quality, stability, update_reputation


@dataclass
class PublisherLedger:
    """Running account of what the mechanism earns for the task publisher."""
    stake_deductions: float = 0.0
    contract_margin: float = 0.0   # accumulated (V - R) terms, when enabled


@dataclass
class WorldState:
    """The whole simulation: config, population (node i at index i), attack
    schedule (round t's malicious pattern at index t), RNG, round counter,
    publisher ledger, and the two tallies `summary()` reads: the detected
    count of each finished round and each flagged node's first detection
    round. `records` holds the per-round records only after `run_simulation`;
    `run_round` and `iter_rounds` keep none."""
    cfg: SystemConfig
    nodes: list[Node]
    schedule: list[PatternKind]
    rng: RngStream
    t: int = 0
    ledger: PublisherLedger = field(default_factory=PublisherLedger)
    detected_per_round: list[int] = field(default_factory=list)
    first_detected: dict[int, int] = field(default_factory=dict)
    records: list[RoundRecord] = field(default_factory=list)

    def first_detection_round(self) -> dict[int, int]:
        """Earliest round each node id was flagged, for nodes ever flagged."""
        return dict(self.first_detected)

    def summary(self) -> dict:
        honest = [nd for nd in self.nodes if nd.role is Role.HONEST]
        malicious = [nd for nd in self.nodes if nd.role is Role.MALICIOUS]
        return {
            "seed": self.rng.seed,
            "rounds": self.t,
            "n_nodes": len(self.nodes),
            "n_honest": len(honest),
            "n_malicious": len(malicious),
            "honest_total_reward": math.fsum(nd.total_reward for nd in honest),
            "malicious_total_reward": math.fsum(nd.total_reward for nd in malicious),
            "honest_mean_reputation": mean([nd.reputation for nd in honest]),
            "malicious_mean_reputation": mean([nd.reputation for nd in malicious]),
            "cumulative_reward_gini": gini([nd.total_reward for nd in self.nodes]),
            "honest_reward_gini": gini([nd.total_reward for nd in honest]),
            "publisher_stake_income": self.ledger.stake_deductions,
            "publisher_contract_margin": self.ledger.contract_margin,
            "detected_per_round": list(self.detected_per_round),
            "first_detection_round": self.first_detection_round(),
        }


def new_world(cfg: SystemConfig, seed: int | None = None) -> WorldState:
    """Validate the config and build the initial world state. A given seed
    replaces the config's, so the state's `cfg.seed` is the run's seed."""
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    validate_config(cfg)
    rng = RngStream(cfg.seed)
    nodes = init_population(cfg, rng)
    return WorldState(cfg=cfg, nodes=nodes, schedule=attack_patterns(cfg), rng=rng)


def collect_contributions(state: WorldState) -> tuple[list[float], list[float], list[int]]:
    """Sample every node's contribution and completion time for the current
    round and append the contribution to the node's history, which keeps
    the last window+1 entries. The whole round draws from one
    ("contrib", t) stream, node i taking element i of each batch.

    Returns (contributions, completion_times, timeouts), the first two in
    node order. With a finite submission deadline, late submissions are
    recorded as zero contributions and reported as timeout violations.
    On-time positive contributions increment the participation counter.
    """
    cfg, t = state.cfg, state.t
    keep = cfg.window + 1
    malicious = np.array([nd.role is Role.MALICIOUS for nd in state.nodes], dtype=bool)
    c, tau = sample_contributions(state.schedule[t], malicious, cfg,
                                  state.rng.stream("contrib", t))
    timeouts: list[int] = []
    if cfg.t_max is not None:
        late = tau > cfg.t_max
        c[late] = 0.0
        timeouts = np.flatnonzero(late).tolist()
    contributions = c.tolist()
    for nd, c_i in zip(state.nodes, contributions):
        history = nd.contribution_history
        history.append(c_i)
        if len(history) > keep:
            del history[0]
        if c_i > 0.0:
            nd.participation += 1
    return contributions, tau.tolist(), timeouts


def _snapshot_nodes(nodes: list[Node]) -> list[tuple]:
    """The node fields a round mutates, one tuple per node."""
    return [(nd.stake, nd.reputation, nd.total_reward, nd.participation, nd.cooldown,
             list(nd.contribution_history)) for nd in nodes]


def _restore_nodes(nodes: list[Node], snapshot: list[tuple]) -> None:
    for nd, saved in zip(nodes, snapshot):
        (nd.stake, nd.reputation, nd.total_reward, nd.participation, nd.cooldown,
         nd.contribution_history) = saved


def run_round(state: WorldState) -> RoundRecord:
    """Execute one full round, update the state's tallies and return the
    round's record without keeping it. Atomic over the state."""
    cfg, t = state.cfg, state.t
    if t >= cfg.rounds:
        raise ValueError(f"round {t} out of range; run has {cfg.rounds} rounds")
    nodes_backup, ledger_backup = _snapshot_nodes(state.nodes), replace(state.ledger)
    try:
        record = _run_round_steps(state)
    except Exception:
        _restore_nodes(state.nodes, nodes_backup)
        state.ledger = ledger_backup
        raise
    state.detected_per_round.append(len(record.detected))
    for node_id in record.detected:
        state.first_detected.setdefault(node_id, t)
    state.t += 1
    return record


def iter_rounds(state: WorldState) -> Iterator[RoundRecord]:
    """Run the remaining rounds, yielding each record as its round finishes.
    Nothing keeps the records, so memory stays bounded by the population."""
    while state.t < state.cfg.rounds:
        yield run_round(state)


def _run_round_steps(state: WorldState) -> RoundRecord:
    cfg, t, nodes = state.cfg, state.t, state.nodes

    # (1) contributions
    contributions, completion_times, timeouts = collect_contributions(state)

    # (2) committee on pre-update reputations, then cooldown bookkeeping
    selection = committee_mod.select_committee(nodes, cfg, state.rng.stream("committee", t))
    committee_mod.update_cooldowns(nodes, selection.members, cfg)

    # (3) committee performs aggregation: logical no-op, contribution scalars
    # stand in for model updates

    # (4) detection over the read snapshot
    report = detection_mod.detect(nodes, cfg)

    # (5) penalties for detected nodes, reputation update for the rest
    state.ledger.stake_deductions += detection_mod.apply_penalties(nodes, report, cfg)
    detected_set = set(report.detected)
    qualities = [quality(c, cfg.c_min, cfg.c_max) for c in contributions]
    for nd, q in zip(nodes, qualities):
        if nd.id in detected_set:
            continue
        lam = stability(nd.contribution_history, cfg.window, cfg.default_stability)
        nd.reputation = update_reputation(nd, q, lam, cfg, t)

    # (6) rewards on post-update reputations
    rewards = reward_mod.allocate_rewards(nodes, selection.members, cfg)
    if cfg.contract_accounting:
        for c_now, tau_now, r in zip(contributions, completion_times, rewards):
            v = contribution_value(c_now, tau_now, cfg.contribution_bonus, cfg.c_min, cfg.c_max)
            state.ledger.contract_margin += v - r

    # (7) fairness metrics over this round's rewards
    jain = jain_index(rewards, cfg.epsilon)
    g = gini(rewards)

    # (8) audit record
    return RoundRecord(
        round=t,
        committee=sorted(selection.members),
        undersized_committee=selection.undersized,
        contributions=contributions,
        completion_times=completion_times,
        qualities=qualities,
        reputation_after=[nd.reputation for nd in nodes],
        penalties=[report.penalties.get(i, 0.0) for i in range(len(nodes))],
        rewards=rewards,
        detected=sorted(report.detected),
        timeouts=timeouts,
        jain_fairness=jain,
        gini=g,
        total_paid=math.fsum(rewards),
    )


def run_simulation(cfg: SystemConfig, seed: int | None = None) -> WorldState:
    """Run the configured number of rounds and return the final world
    state, with every round's record in `records`."""
    state = new_world(cfg, seed)
    state.records = list(iter_rounds(state))
    return state
