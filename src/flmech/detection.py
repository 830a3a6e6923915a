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

from dataclasses import dataclass, field

from .core import Node, SystemConfig
from .metrics import mean, pstd


@dataclass
class DetectionReport:
    cond1: dict[int, bool] = field(default_factory=dict)
    cond2: dict[int, bool] = field(default_factory=dict)
    cond3: dict[int, bool] = field(default_factory=dict)
    detected: list[int] = field(default_factory=list)
    penalties: dict[int, float] = field(default_factory=dict)


def _median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def detect(nodes: list[Node], cfg: SystemConfig) -> DetectionReport:
    """Evaluate the condition set for the current round (contributions
    already collected)."""
    tau = cfg.window
    report = DetectionReport()

    windows = [nd.contribution_history[-tau:] for nd in nodes]
    pooled = [c for w in windows for c in w]
    pop_median = _median(pooled) if pooled else 0.0
    this_round = [w[-1] for w in windows if w]
    round_mean = mean(this_round)
    round_std = pstd(this_round)

    for nd, own in zip(nodes, windows):
        if len(nd.contribution_history) < 2:
            continue
        c_now = own[-1]

        cond1 = mean(own) < cfg.theta_low * pop_median
        cond2 = abs(c_now - round_mean) > cfg.theta_fluct * round_std
        prev = nd.contribution_history[-(tau + 1):-1]  # the tau rounds before t
        jump_scale = max(pstd(prev), cfg.eps_std)
        cond3 = abs(c_now - mean(prev)) > cfg.theta_jump * jump_scale

        report.cond1[nd.id] = cond1
        report.cond2[nd.id] = cond2
        report.cond3[nd.id] = cond3
        if (cond1 and cond2) or cond3:
            report.detected.append(nd.id)
    return report


def penalty(reputation: float, stake: float, lambda_r: float, lambda_s: float) -> float:
    """Penalty amount, capped at half the reputation to avoid over-punishment."""
    return min(lambda_r * reputation + lambda_s * stake, reputation / 2.0)


def apply_penalties(nodes: list[Node], report: DetectionReport, cfg: SystemConfig) -> float:
    """Deduct reputation and stake from every detected node.

    Fills the report's penalty map and returns the total stake deducted
    (credited to the publisher-profit ledger by the engine).
    """
    total_deducted = 0.0
    for node_id in report.detected:
        nd = nodes[node_id]
        amount = penalty(nd.reputation, nd.stake,
                         cfg.reputation_penalty_factor, cfg.stake_penalty_factor)
        deduction = cfg.stake_penalty_factor * nd.stake
        nd.reputation = max(0.0, nd.reputation - amount)
        nd.stake = max(0.0, nd.stake - deduction)
        report.penalties[node_id] = amount
        total_deducted += deduction
    return total_deducted
