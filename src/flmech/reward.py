"""Per-round reward allocation from the shared pool.

Each node's share mixes a stake component and a decayed historical
contribution component, weighted by a reputation-driven alpha. The whole
base share is scaled by a fairness index over current reputations, and
committee members collect an extra bonus. Nodes that contributed nothing
this round earn nothing, bonus included.
"""

import math

from .core import DomainError, Node, SystemConfig, sigmoid
from .metrics import jain_index, jain_ratio, mean


def effective_stake(stake: float, mean_stake: float) -> float:
    """Stake counted toward reward shares, capped at three times the mean."""
    return min(stake, 3.0 * mean_stake)


def historical_contribution(history: list[float], zeta: float, tau: int) -> float:
    """Exponentially decayed sum of the last tau+1 contributions, newest first.

    `history` is ordered oldest to newest; entry weights are zeta^age with
    age 0 for the most recent entry. Missing entries contribute nothing.
    """
    total = 0.0
    for age, c in enumerate(reversed(history[-(tau + 1):])):
        total += c * zeta ** age
    return total


def alpha_weight(mean_reputation: float, initial_reputation: float,
                 f_scale: float, stake_weight: float) -> float:
    """Stake weight alpha in (0, stake_weight), growing with the gap between
    the population's mean reputation and the node's starting reputation."""
    if f_scale <= 0:
        raise DomainError("f_scale must be positive")
    return sigmoid((mean_reputation - initial_reputation) / f_scale) * stake_weight


def committee_bonus(member_reputations: list[float], base_bonus: float, eps: float) -> float:
    """Bonus paid to each committee member: the base bonus scaled by a
    fairness index over the committee's reputations. Zero for an empty
    committee."""
    if not member_reputations:
        return 0.0
    return base_bonus * jain_ratio(member_reputations, eps) \
        * sigmoid(mean(member_reputations) / 10.0)


def allocate_rewards(nodes: list[Node], committee: list[int], cfg: SystemConfig) -> list[float]:
    """Compute every node's reward for the current round, add it to the
    node's total and return the rewards in the order of `nodes`.

    Shares are normalized by the raw stake total and by the population's
    decayed contribution total; the zero-contribution override is applied
    last, after the committee bonus.
    """
    reputations = [nd.reputation for nd in nodes]
    fairness = jain_index(reputations, cfg.epsilon)
    # every node starts from cfg.initial_reputation, so alpha is uniform
    alpha = alpha_weight(mean(reputations), cfg.initial_reputation, cfg.f_scale,
                         cfg.stake_weight)
    beta = 1.0 - alpha

    total_stake = math.fsum(nd.stake for nd in nodes)
    mean_stake = total_stake / len(nodes)

    hist_values = [historical_contribution(nd.contribution_history, cfg.history_decay, cfg.window)
                   for nd in nodes]
    c_total = math.fsum(hist_values)

    members = set(committee)
    member_reps = [nd.reputation for nd in nodes if nd.id in members]
    bonus = committee_bonus(member_reps, cfg.committee_bonus, cfg.epsilon)

    out = []
    for nd, hist in zip(nodes, hist_values):
        s_eff = effective_stake(nd.stake, mean_stake)
        stake_share = s_eff / total_stake if total_stake > 0 else 0.0
        contrib_share = hist / c_total if c_total > 0 else 0.0
        stake_term = alpha * cfg.reward_pool * stake_share
        contrib_term = beta * cfg.reward_pool * contrib_share
        r_cmm = bonus if nd.id in members else 0.0
        total = (stake_term + contrib_term) * fairness + r_cmm

        if not nd.contribution_history or nd.contribution_history[-1] == 0.0:
            total = 0.0

        nd.total_reward += total
        out.append(total)
    return out
