"""Quality scoring, participation-compensated decay, stability bonus, and
the capped reputation update."""

from .core import DomainError, Node, SystemConfig, sigmoid
from .metrics import pstd


def quality(contribution: float, c_min: float, c_max: float) -> float:
    """Quality score in (0,1): sigmoid of the normalized contribution."""
    if c_max <= c_min:
        raise DomainError("c_max must exceed c_min")
    return sigmoid((contribution - c_min) / (c_max - c_min))


def decay_factor(base_decay: float, compensation: float, participation: int) -> float:
    """Effective decay: the base plus a compensation term that grows with
    historical participation and saturates at base_decay + compensation."""
    return base_decay + compensation * (1.0 - 1.0 / (1.0 + participation / 100.0))


def stability(window: list[float], tau: int, default_stability: float) -> float:
    """Stability bonus factor in [0,1] from the last tau contributions.

    Nodes with fewer than tau recorded rounds get the configured default.
    The raw value 1 - std/tau can go negative for very volatile histories
    and is clamped at zero; volatility is punished by detection, not here.
    """
    if len(window) < tau:
        return default_stability
    raw = 1.0 - pstd(window[-tau:]) / tau
    return min(1.0, max(0.0, raw))


def update_reputation(node: Node, q: float, lambda_stab: float,
                      cfg: SystemConfig, t: int) -> float:
    """New reputation: decayed previous value plus quality and stability
    bonuses, clamped to [0, r_max(t)]. Does not mutate the node."""
    delta = decay_factor(cfg.base_decay, cfg.decay_compensation, node.participation)
    raw = delta * node.reputation + q * cfg.contribution_bonus + lambda_stab * cfg.stability_bonus
    return min(cfg.r_max(t), max(0.0, raw))
