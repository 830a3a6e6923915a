"""Malicious-node detection and penalties.

A node is flagged when (condition 1 AND condition 2) OR condition 3 holds:

  1. persistent low contributions: its recent mean falls well below the
     population's recent median;
  2. abnormal fluctuation: this round's contribution is an outlier against
     the population's contributions this round;
  3. sudden behavioural change: this round's contribution jumps far from the
     node's own recent mean, measured in units of its own recent spread.

Detection reads contribution histories only; it never sees the ground-truth
role tag. Nodes with fewer than two recorded rounds are never flagged.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import Population, SystemConfig
from .metrics import mean, pstd, sequential_sum


@dataclass
class DetectionReport:
    """One round's three conditions, one bool per node in node order; all
    False while the histories hold fewer than two rounds."""
    cond1: np.ndarray
    cond2: np.ndarray
    cond3: np.ndarray

    @cached_property
    def flagged(self) -> np.ndarray:
        """(cond1 AND cond2) OR cond3, per node."""
        return (self.cond1 & self.cond2) | self.cond3

    @cached_property
    def detected(self) -> list[int]:
        """Ids of the flagged nodes, ascending."""
        return np.flatnonzero(self.flagged).tolist()


def _median(values: np.ndarray) -> float:
    """The middle value, or the mean of the two middle values, by partition
    (`np.median` would import `numpy.ma`, about 1 MB, on its first call)."""
    mid = len(values) // 2
    if len(values) % 2:
        return float(np.partition(values, mid)[mid])
    low, high = np.partition(values, (mid - 1, mid))[mid - 1:mid + 1].tolist()
    return 0.5 * (low + high)


def detect(pop: Population, cfg: SystemConfig) -> DetectionReport:
    """Evaluate the condition set for the current round (contributions
    already collected, so the last history row is this round's).

    The population median is over every node's last tau contributions, and
    this round's mean and std are `metrics.mean` and `metrics.pstd`. A
    node's own mean and std are numpy reductions over the round axis.
    """
    tau = cfg.window
    history = pop.history
    if len(history) < 2:
        none = np.zeros(len(pop), dtype=bool)
        return DetectionReport(none, none, none)

    c_now, window = history[-1], history[-tau:]
    pop_median = _median(window.ravel())
    round_mean, round_std = mean(c_now.tolist()), pstd(c_now)

    cond1 = window.mean(axis=0) < cfg.theta_low * pop_median
    cond2 = np.abs(c_now - round_mean) > cfg.theta_fluct * round_std
    prev = history[-(tau + 1):-1]  # the tau rounds before t
    jump_scale = np.maximum(np.std(prev, axis=0), cfg.eps_std)
    cond3 = np.abs(c_now - prev.mean(axis=0)) > cfg.theta_jump * jump_scale
    return DetectionReport(cond1, cond2, cond3)


def penalty(reputation: float, stake: float, lambda_r: float, lambda_s: float) -> float:
    """Penalty amount, capped at half the reputation to avoid over-punishment."""
    return min(lambda_r * reputation + lambda_s * stake, reputation / 2.0)


class Penalties(NamedTuple):
    """Every node's state after the round's penalties, in node order."""
    reputation: np.ndarray
    stake: np.ndarray
    amounts: np.ndarray      # reputation deducted; 0 for nodes not flagged
    stake_deducted: float    # total stake deducted, for the publisher ledger


def apply_penalties(pop: Population, report: DetectionReport, cfg: SystemConfig) -> Penalties:
    """Deduct reputation (`penalty`) and a stake_penalty_factor share of the
    stake from every flagged node; the other nodes keep theirs. Neither
    falls below zero. The stake total is added in node order."""
    flagged = report.flagged
    lambda_s = cfg.stake_penalty_factor
    amounts = np.where(flagged, np.minimum(cfg.reputation_penalty_factor * pop.reputation
                                           + lambda_s * pop.stake, pop.reputation / 2.0), 0.0)
    deductions = lambda_s * pop.stake[flagged]
    stake = pop.stake.copy()
    stake[flagged] = np.maximum(0.0, stake[flagged] - deductions)
    return Penalties(reputation=np.where(flagged, np.maximum(0.0, pop.reputation - amounts),
                                         pop.reputation),
                     stake=stake, amounts=amounts, stake_deducted=sequential_sum(deductions))
