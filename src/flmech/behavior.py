"""Per-round contribution generation for honest and adversarial nodes.

Honest nodes always draw from the normal pattern. Malicious nodes follow the
attack schedule (`core.attack_patterns`), which switches pattern as the run
progresses: a false-high phase (masquerade as a high-value node),
zero-contribution phases, and a mixed phase that randomly alternates between
the two.

A round's draws come from one stream in batches of n values per variable,
and node i takes element i of each batch. Every variable is drawn for every
node before any pattern is looked at, so a node's draws do not depend on its
own pattern or on any other node's.
"""

import numpy as np

from .core import PatternKind, SystemConfig

# the row of each pattern's values in the (pattern, node) table of a batch
_ROWS = (PatternKind.NORMAL, PatternKind.FALSE_HIGH, PatternKind.ZERO, PatternKind.RANDOM_MIX)
_ROW = {kind: i for i, kind in enumerate(_ROWS)}


def sample_contributions(kinds, cfg: SystemConfig,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (contributions, completion_times) for a sequence of patterns,
    two float arrays in the order of `kinds`.

    Five length-n arrays are drawn, always in this order: the honest value
    normal(normal_mu, normal_sigma), its fluctuation uniform(fluct_low,
    fluct_high), the false-high value normal(false_high_mean,
    false_high_std), the mixed attack's coin, and the completion time
    uniform(tau_low, tau_high). Each node's value is then selected by its
    pattern: normal takes max(0, value * fluctuation), false-high its draw,
    zero 0, and the mixed attack the false-high draw when its coin falls
    below random_mix_p_high and 0 otherwise. Contributions are clamped to
    [c_min, c_max].
    """
    rows = np.fromiter((_ROW[k] for k in kinds), dtype=np.intp)
    n = len(rows)
    honest = rng.normal(cfg.normal_mu, cfg.normal_sigma, n)
    fluct = rng.uniform(cfg.fluct_low, cfg.fluct_high, n)
    high = rng.normal(cfg.false_high_mean, cfg.false_high_std, n)
    coin = rng.random(n)
    tau = rng.uniform(cfg.tau_low, cfg.tau_high, n)
    values = np.stack([np.maximum(0.0, honest * fluct), high, np.zeros(n),
                       np.where(coin < cfg.random_mix_p_high, high, 0.0)])
    c = values[rows, np.arange(n)]
    return np.clip(c, cfg.c_min, cfg.c_max), tau


def sample_contribution(kind: PatternKind, cfg: SystemConfig,
                        rng: np.random.Generator) -> tuple[float, float]:
    """Draw one (contribution, completion_time) pair: `sample_contributions`
    for a single node, so it takes one value of each of the five variables
    from `rng` whatever the pattern."""
    c, tau = sample_contributions((kind,), cfg, rng)
    return float(c[0]), float(tau[0])
