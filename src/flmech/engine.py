"""Round loop orchestration.

Each round: collect contributions, select the committee, (logically)
aggregate, detect and penalize malicious behaviour or apply the reputation
update, allocate rewards, compute fairness metrics, and emit an audit
record. Node state is held as columns (`core.Population`); each step reads
columns and returns new arrays, and a round swaps in its new population and
ledger only once every step has succeeded, so a failure inside any step
leaves the pre-round state in place.
"""

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, replace

import numpy as np

from . import committee as committee_mod
from . import detection as detection_mod
from . import reward as reward_mod
# `sample_contribution`, `stability` and `update_reputation` are not called
# here; they stay names of this module because bench/spans.py wraps them by
# these names.
from .behavior import sample_contribution, sample_contributions  # noqa: F401
from .core import (
    PatternKind, Population, RngStream, RoundRecord, SystemConfig, attack_patterns,
    init_population, validate_config,
)
from .metrics import gini, jain_index, mean, sequential_sum
from .reputation import qualities, stability, update_reputation, update_reputations  # noqa: F401


@dataclass
class PublisherLedger:
    """Running account of what the mechanism earns for the task publisher."""
    stake_deductions: float = 0.0
    contract_margin: float = 0.0   # accumulated (V - R) terms, when enabled


@dataclass
class WorldState:
    """The whole simulation: config, population (`core.Population` columns,
    node i at index i), attack schedule (round t's malicious pattern at index
    t), RNG, round counter, publisher ledger, and the two tallies `summary()`
    reads: the detected count of each finished round and each flagged node's
    first detection round. `records` holds the per-round records only after
    `run_simulation`; `run_round` and `iter_rounds` keep none."""
    cfg: SystemConfig
    nodes: Population
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
        pop = self.nodes
        malicious, honest = pop.malicious, ~pop.malicious
        return {
            "seed": self.rng.seed,
            "rounds": self.t,
            "n_nodes": len(pop),
            "n_honest": int(honest.sum()),
            "n_malicious": int(malicious.sum()),
            "honest_total_reward": math.fsum(pop.total_reward[honest].tolist()),
            "malicious_total_reward": math.fsum(pop.total_reward[malicious].tolist()),
            "honest_mean_reputation": mean(pop.reputation[honest].tolist()),
            "malicious_mean_reputation": mean(pop.reputation[malicious].tolist()),
            "cumulative_reward_gini": gini(pop.total_reward),
            "honest_reward_gini": gini(pop.total_reward[honest]),
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


def collect_contributions(state: WorldState) -> tuple[Population, np.ndarray, np.ndarray, list[int]]:
    """Sample every node's contribution and completion time for the current
    round. The whole round draws from one ("contrib", t) stream, node i
    taking element i of each batch.

    Returns (population, contributions, completion_times, timeouts): the
    population with the round's contributions appended to the history (which
    keeps the last window+1 rows) and with on-time positive contributions
    counted in `participation`, then two arrays in node order. With a finite
    submission deadline, late submissions are recorded as zero contributions
    and reported as timeout violations.
    """
    cfg, t, pop = state.cfg, state.t, state.nodes
    c, tau = sample_contributions(state.schedule[t], pop.malicious, cfg,
                                  state.rng.stream("contrib", t))
    timeouts: list[int] = []
    if cfg.t_max is not None:
        late = tau > cfg.t_max
        c[late] = 0.0
        timeouts = np.flatnonzero(late).tolist()
    pop = replace(pop, history=np.vstack((pop.history[-cfg.window:], c)),
                  participation=pop.participation + (c > 0.0))
    return pop, c, tau, timeouts


def run_round(state: WorldState) -> RoundRecord:
    """Execute one full round, update the state's tallies and return the
    round's record without keeping it. Atomic over the state: the round
    computes a new population and ledger and swaps them in only when every
    step has succeeded."""
    cfg, t = state.cfg, state.t
    if t >= cfg.rounds:
        raise ValueError(f"round {t} out of range; run has {cfg.rounds} rounds")
    state.nodes, state.ledger, record = _run_round_steps(state)
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


def _as_list(values: np.ndarray, common: float) -> list[float]:
    """`values.tolist()`, except that every entry equal to `common` is one
    shared float object: a record's zero rewards and penalties and its capped
    reputations then cost a pointer each, not a float object each."""
    out = np.full(len(values), common, dtype=object)
    other = values != common
    out[other] = values[other]
    return out.tolist()


def _run_round_steps(state: WorldState) -> tuple[Population, PublisherLedger, RoundRecord]:
    cfg, t, ledger = state.cfg, state.t, state.ledger

    # (1) contributions
    pop, contributions, completion_times, timeouts = collect_contributions(state)

    # (2) committee on pre-update reputations, then cooldown bookkeeping
    selection = committee_mod.select_committee(pop, cfg, state.rng.stream("committee", t))
    pop = replace(pop, cooldown=committee_mod.update_cooldowns(pop, selection.members, cfg))

    # (3) committee performs aggregation: logical no-op, contribution scalars
    # stand in for model updates

    # (4) detection over the contribution histories
    report = detection_mod.detect(pop, cfg)

    # (5) penalties for detected nodes, reputation update for the rest
    penalized = detection_mod.apply_penalties(pop, report, cfg)
    q = qualities(contributions, cfg.c_min, cfg.c_max)
    updated = update_reputations(pop, q, cfg, t)
    pop = replace(pop, reputation=np.where(report.flagged, penalized.reputation, updated),
                  stake=penalized.stake)
    ledger = replace(ledger, stake_deductions=ledger.stake_deductions + penalized.stake_deducted)

    # (6) rewards on post-update reputations
    rewards = reward_mod.allocate_rewards(pop, selection.members, cfg)
    pop = replace(pop, total_reward=pop.total_reward + rewards)
    if cfg.contract_accounting:
        # contract.contribution_value of every node, added to the margin in node order
        value = (cfg.contribution_bonus / completion_times) * q
        ledger = replace(ledger, contract_margin=sequential_sum(value - rewards,
                                                                ledger.contract_margin))

    # (7) fairness metrics over this round's rewards
    reward_list = _as_list(rewards, 0.0)
    jain = jain_index(reward_list, cfg.epsilon)
    g = gini(reward_list)

    # (8) audit record
    return pop, ledger, RoundRecord(
        round=t,
        committee=sorted(selection.members),
        undersized_committee=selection.undersized,
        contributions=contributions.tolist(),
        completion_times=completion_times.tolist(),
        qualities=q.tolist(),
        reputation_after=_as_list(pop.reputation, cfg.r_max(t)),
        penalties=_as_list(penalized.amounts, 0.0),
        rewards=reward_list,
        detected=report.detected,
        timeouts=timeouts,
        jain_fairness=jain,
        gini=g,
        total_paid=math.fsum(reward_list),
    )


def run_simulation(cfg: SystemConfig, seed: int | None = None) -> WorldState:
    """Run the configured number of rounds and return the final world
    state, with every round's record in `records`."""
    state = new_world(cfg, seed)
    state.records = list(iter_rounds(state))
    return state
