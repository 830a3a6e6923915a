"""Quality scoring, participation-compensated decay, stability bonus, and
the capped reputation update.

The scalar functions define each quantity for one node; the column forms
compute it for the whole population at once, element for element the same
arithmetic, and the tests hold each to its scalar form.
"""

import math

import numpy as np

from .core import DomainError, Node, Population, SystemConfig, sigmoid
from .metrics import pstd, window_std


def quality(contribution: float, c_min: float, c_max: float) -> float:
    """Quality score in (0,1): sigmoid of the normalized contribution."""
    if c_max <= c_min:
        raise DomainError("c_max must exceed c_min")
    return sigmoid((contribution - c_min) / (c_max - c_min))


def qualities(contributions: np.ndarray, c_min: float, c_max: float) -> np.ndarray:
    """`quality` of every contribution, in order: the same arithmetic as
    `core.sigmoid`, with the exponentials taken by `math.exp` (numpy's `exp`
    rounds differently on some inputs), so each value equals what `quality`
    returns for it, bit for bit."""
    if c_max <= c_min:
        raise DomainError("c_max must exceed c_min")
    x = (contributions - c_min) / (c_max - c_min)
    z = np.fromiter(map(math.exp, (-np.abs(x)).tolist()), float, len(x))  # exp(-|x|)
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


def decay_factor(base_decay: float, compensation: float, participation):
    """Effective decay: the base plus a compensation term that grows with
    historical participation and saturates at base_decay + compensation.
    Takes one participation count or an array of them."""
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


def stabilities(history: np.ndarray, tau: int, default_stability: float) -> np.ndarray:
    """`stability` of every node from the (k, n) history, with the window's
    population std taken by numpy over the round axis (`metrics.window_std`)."""
    if len(history) < tau:
        return np.full(history.shape[1], float(default_stability))
    window = history[-tau:]
    raw = 1.0 - window_std(window, window.mean(axis=0)) / tau
    return np.minimum(1.0, np.maximum(0.0, raw))


def update_reputation(node: Node, q: float, lambda_stab: float,
                      cfg: SystemConfig, t: int) -> float:
    """New reputation: decayed previous value plus quality and stability
    bonuses, clamped to [0, r_max(t)]. Does not mutate the node."""
    delta = decay_factor(cfg.base_decay, cfg.decay_compensation, node.participation)
    raw = delta * node.reputation + q * cfg.contribution_bonus + lambda_stab * cfg.stability_bonus
    return min(cfg.r_max(t), max(0.0, raw))


def update_reputations(pop: Population, q: np.ndarray, cfg: SystemConfig, t: int) -> np.ndarray:
    """`update_reputation` of every node, given the quality of each node's
    contribution and taking each node's stability from its history."""
    lam = stabilities(pop.history, cfg.window, cfg.default_stability)
    delta = decay_factor(cfg.base_decay, cfg.decay_compensation, pop.participation)
    raw = delta * pop.reputation + q * cfg.contribution_bonus + lam * cfg.stability_bonus
    return np.minimum(cfg.r_max(t), np.maximum(0.0, raw))
