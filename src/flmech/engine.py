"""Round loop orchestration.

Each round: collect contributions, select the committee, (logically)
aggregate, detect and penalize malicious behaviour or apply the reputation
update, allocate rewards, compute fairness metrics, and emit an audit
record. Node state is kept as columns (`core.Population`); each step reads
columns and returns new arrays. `WorldState.tally_round` commits a round: it
swaps in the new population and tallies the stake income once every step has
succeeded, so a failure inside any step leaves the pre-round state in place.
`flmech verify` commits the rounds it replays through the same call.
"""

from bisect import bisect_right
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
from .metrics import exact_sum, gini, jain_index, mean
from .reputation import qualities, stability, update_reputation, update_reputations  # noqa: F401


@dataclass
class WorldState:
    """The whole simulation: config, population (`core.Population` columns,
    node i at index i), attack phase table (`core.attack_patterns`), RNG,
    round counter, and the tallies `summary()` reads: the publisher's stake
    income, the detected count of each finished round and each flagged node's
    first detection round. `records` holds the per-round records only after
    `run_simulation`; `run_round` and `iter_rounds` keep none."""
    cfg: SystemConfig
    nodes: Population
    schedule: list[tuple[int, int, PatternKind]]
    rng: RngStream
    t: int = 0
    stake_income: float = 0.0
    detected_per_round: list[int] = field(default_factory=list)
    first_detected: dict[int, int] = field(default_factory=dict)
    records: list[RoundRecord] = field(default_factory=list)

    def tally_round(self, nodes: Population, detected: list[int], stake_deducted: float) -> None:
        """Commit finished round `t`: swap in its population `nodes`, tally the
        node ids `detected` it flagged and the `stake_deducted` from their
        stakes, and advance `t`."""
        self.nodes = nodes
        self.stake_income += stake_deducted
        self.detected_per_round.append(len(detected))
        for node_id in detected:
            self.first_detected.setdefault(node_id, self.t)
        self.t += 1

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
            "honest_total_reward": exact_sum(pop.total_reward[honest]),
            "malicious_total_reward": exact_sum(pop.total_reward[malicious]),
            "honest_mean_reputation": mean(pop.reputation[honest]),
            "malicious_mean_reputation": mean(pop.reputation[malicious]),
            "cumulative_reward_gini": gini(pop.total_reward),
            "honest_reward_gini": gini(pop.total_reward[honest]),
            "publisher_stake_income": self.stake_income,
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
    _, _, attack = state.schedule[bisect_right(state.schedule, t, key=lambda phase: phase[1])]
    c, tau = sample_contributions(attack, pop.malicious, cfg,
                                  state.rng.stream("contrib", t))
    timeouts: list[int] = []
    if cfg.t_max is not None:
        late = tau > cfg.t_max
        c[late] = 0.0
        timeouts = np.flatnonzero(late).tolist()
    pop = pop.with_columns(history=np.vstack((pop.history[-cfg.window:], c)),
                           participation=pop.participation + (c > 0.0))
    return pop, c, tau, timeouts


def run_round(state: WorldState) -> RoundRecord:
    """Execute one full round, update the state's tallies and return the
    round's record without keeping it. Atomic over the state: the round
    computes a new population and swaps it in, and tallies the round, only
    when every step has succeeded."""
    if state.t >= state.cfg.rounds:
        raise ValueError(f"round {state.t} out of range; run has {state.cfg.rounds} rounds")
    nodes, stake_deducted, record = _run_round_steps(state)
    state.tally_round(nodes, record.detected, stake_deducted)
    return record


def iter_rounds(state: WorldState) -> Iterator[RoundRecord]:
    """Run the remaining rounds, yielding each record as its round finishes.
    Nothing keeps the records, so memory stays bounded by the population."""
    while state.t < state.cfg.rounds:
        yield run_round(state)


def _run_round_steps(state: WorldState) -> tuple[Population, float, RoundRecord]:
    cfg, t = state.cfg, state.t

    # (1) contributions
    pop, contributions, completion_times, timeouts = collect_contributions(state)

    # (2) committee on pre-update reputations, then cooldown bookkeeping
    selection = committee_mod.select_committee(pop, cfg, state.rng.stream("committee", t))
    cooldown = committee_mod.update_cooldowns(pop, selection.members, cfg)

    # (3) committee performs aggregation: logical no-op, contribution scalars
    # stand in for model updates

    # (4) detection over the contribution histories
    report = detection_mod.detect(pop, cfg)

    # (5) penalties for detected nodes, reputation update for the rest
    penalized = detection_mod.apply_penalties(pop, report, cfg)
    q = qualities(contributions, cfg.c_min, cfg.c_max)
    updated = update_reputations(pop, q, cfg, t)
    pop = pop.with_columns(reputation=np.where(report.flagged, penalized.reputation, updated),
                           stake=penalized.stake)

    # (6) rewards on post-update reputations (no step reads the new cooldowns)
    rewards = reward_mod.allocate_rewards(pop, selection.members, cfg)
    pop = pop.with_columns(cooldown=cooldown, total_reward=pop.total_reward + rewards)

    # (7) fairness metrics over this round's rewards
    jain = jain_index(rewards, cfg.epsilon)
    g = gini(rewards)

    # (8) audit record
    return pop, penalized.stake_deducted, RoundRecord(
        round=t,
        committee=sorted(selection.members),
        undersized_committee=selection.undersized,
        contributions=contributions,
        completion_times=completion_times,
        qualities=q,
        reputation_after=pop.reputation,
        penalties=penalized.amounts,
        rewards=rewards,
        detected=report.detected,
        timeouts=timeouts,
        jain_fairness=jain,
        gini=g,
        total_paid=exact_sum(rewards),
    )


def run_simulation(cfg: SystemConfig, seed: int | None = None) -> WorldState:
    """Run the configured number of rounds and return the final world
    state, with every round's record in `records`."""
    state = new_world(cfg, seed)
    state.records = list(iter_rounds(state))
    return state
