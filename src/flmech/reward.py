"""Per-round reward allocation from the shared pool.

Each node's share mixes a stake component and a decayed historical
contribution component, weighted by a reputation-driven alpha. The whole
base share is scaled by a fairness index over current reputations, and
committee members collect an extra bonus. Nodes that contributed nothing
this round earn nothing, bonus included.
"""

import math

import numpy as np

from .core import DomainError, Population, SystemConfig, sigmoid
from .metrics import jain_index, jain_ratio, mean


def effective_stake(stake, mean_stake: float):
    """Stake counted toward reward shares, capped at three times the mean.
    Takes one stake or an array of them."""
    return np.minimum(stake, 3.0 * mean_stake)


def historical_contribution(history: list[float], zeta: float, tau: int) -> float:
    """Exponentially decayed sum of the last tau+1 contributions, newest first.

    `history` is ordered oldest to newest; entry weights are zeta^age with
    age 0 for the most recent entry. Missing entries contribute nothing.
    """
    total = 0.0
    for age, c in enumerate(reversed(history[-(tau + 1):])):
        total += c * zeta ** age
    return total


def historical_contributions(history: np.ndarray, zeta: float, tau: int) -> np.ndarray:
    """`historical_contribution` of every node from the (k, n) history: one
    vector add per round, newest first, so each sum is added in the same
    order as the scalar form's."""
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


def committee_bonus(member_reputations: list[float], base_bonus: float, eps: float) -> float:
    """Bonus paid to each committee member: the base bonus scaled by a
    fairness index over the committee's reputations. Zero for an empty
    committee."""
    if not member_reputations:
        return 0.0
    return base_bonus * jain_ratio(member_reputations, eps) \
        * sigmoid(mean(member_reputations) / 10.0)


def allocate_rewards(pop: Population, committee: list[int], cfg: SystemConfig) -> np.ndarray:
    """Every node's reward for the current round, in node order. The nodes'
    totals are left to the caller.

    Shares are normalized by the raw stake total and by the population's
    decayed contribution total; the zero-contribution override is applied
    last, after the committee bonus.
    """
    n = len(pop)
    reputations = pop.reputation.tolist()
    fairness = jain_index(reputations, cfg.epsilon)
    # every node starts from cfg.initial_reputation, so alpha is uniform
    alpha = alpha_weight(mean(reputations), cfg.initial_reputation, cfg.f_scale,
                         cfg.stake_weight)
    beta = 1.0 - alpha

    total_stake = math.fsum(pop.stake.tolist())
    mean_stake = total_stake / n

    hist_values = historical_contributions(pop.history, cfg.history_decay, cfg.window)
    c_total = math.fsum(hist_values.tolist())

    members = np.zeros(n, dtype=bool)
    members[committee] = True
    bonus = committee_bonus(pop.reputation[members].tolist(), cfg.committee_bonus, cfg.epsilon)

    stake_share = effective_stake(pop.stake, mean_stake) / total_stake if total_stake > 0 \
        else np.zeros(n)
    contrib_share = hist_values / c_total if c_total > 0 else np.zeros(n)
    stake_term = alpha * cfg.reward_pool * stake_share
    contrib_term = beta * cfg.reward_pool * contrib_share
    total = (stake_term + contrib_term) * fairness + np.where(members, bonus, 0.0)
    contributed = pop.history[-1] != 0.0 if len(pop.history) else np.zeros(n, dtype=bool)
    return np.where(contributed, total, 0.0)
