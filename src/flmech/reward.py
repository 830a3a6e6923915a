"""Per-round reward allocation from the shared pool.

Each node's share mixes a stake component and a decayed historical
contribution component, weighted by a reputation-driven alpha. The whole
base share is scaled by a fairness index over current reputations, and
committee members collect an extra bonus. Nodes that contributed nothing
this round earn nothing, bonus included.
"""

import numpy as np

from .core import DomainError, Population, SystemConfig, sigmoid
from .metrics import exact_sum, jain_factors, jain_index, mean


def effective_stake(stake, mean_stake: float):
    """Stake counted toward reward shares, capped at three times the mean.
    Takes one stake or an array of them."""
    return np.minimum(stake, 3.0 * mean_stake)


def decayed_contributions(history: np.ndarray, zeta: float, tau: int) -> np.ndarray:
    """Every node's exponentially decayed sum of its last tau+1
    contributions, from the (k, n) history, oldest row first: the row of
    age a (0 for the newest) weighs zeta^a, and missing rows count nothing.
    One vector add per round, newest first."""
    total = np.zeros(history.shape[1])
    for age, row in enumerate(history[::-1][:tau + 1]):
        total += row * zeta ** age
    return total


def alpha_weight(mean_reputation: float, initial_reputation: float,
                 f_scale: float, stake_weight: float) -> float:
    """Stake weight alpha in (0, stake_weight), growing with the gap between
    the population's mean reputation and the node's starting reputation."""
    if f_scale <= 0:
        raise DomainError("f_scale must be positive")
    return sigmoid((mean_reputation - initial_reputation) / f_scale) * stake_weight


def committee_bonus(member_reputations, base_bonus: float, eps: float) -> float:
    """Bonus paid to each committee member: the base bonus scaled by the
    fairness index over the committee's reputations (a list or an array).
    Zero for an empty committee, whose ratio is 0."""
    ratio, weight = jain_factors(member_reputations, eps)
    return base_bonus * ratio * weight


def allocate_rewards(pop: Population, committee: list[int], cfg: SystemConfig) -> np.ndarray:
    """Every node's reward for the current round, in node order. The nodes'
    totals are left to the caller.

    Shares are normalized by the raw stake total and by the population's
    decayed contribution total; the zero-contribution override is applied
    last, after the committee bonus.
    """
    n = len(pop)
    fairness = jain_index(pop.reputation, cfg.epsilon)
    # every node starts from cfg.initial_reputation, so alpha is uniform
    alpha = alpha_weight(mean(pop.reputation), cfg.initial_reputation, cfg.f_scale,
                         cfg.stake_weight)
    beta = 1.0 - alpha

    total_stake = exact_sum(pop.stake)
    mean_stake = total_stake / n

    hist_values = decayed_contributions(pop.history, cfg.history_decay, cfg.window)
    c_total = exact_sum(hist_values)

    members = np.zeros(n, dtype=bool)
    members[committee] = True
    bonus = committee_bonus(pop.reputation[members], cfg.committee_bonus, cfg.epsilon)

    stake_share = effective_stake(pop.stake, mean_stake) / total_stake if total_stake > 0 \
        else np.zeros(n)
    contrib_share = hist_values / c_total if c_total > 0 else np.zeros(n)
    stake_term = alpha * cfg.reward_pool * stake_share
    contrib_term = beta * cfg.reward_pool * contrib_share
    total = (stake_term + contrib_term) * fairness + np.where(members, bonus, 0.0)
    contributed = pop.history[-1] != 0.0 if len(pop.history) else np.zeros(n, dtype=bool)
    return np.where(contributed, total, 0.0)
