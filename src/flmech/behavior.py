"""Per-round contribution generation for honest and adversarial nodes.

Honest nodes always draw from the normal pattern. Malicious nodes follow the
attack schedule, a table of phases (`core.attack_patterns`) that switches
pattern as the run progresses: a false-high phase (masquerade as a
high-value node), zero-contribution phases, and a mixed phase that randomly
alternates between the two. The round engine looks up round t's phase and
passes its pattern to `sample_contributions`.

A round's draws come from one stream in batches of n values per variable,
and node i takes element i of each batch. Every variable is drawn for every
node before any pattern is looked at, so a node's draws do not depend on its
own pattern or on any other node's.
"""

import numpy as np

from .core import PatternKind, SystemConfig


def sample_contributions(attack: PatternKind, malicious: np.ndarray, cfg: SystemConfig,
                         rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw (contributions, completion_times) for one round, two float
    arrays in node order: the nodes flagged in the bool array `malicious`
    follow the `attack` pattern, everyone else the normal one.

    Five length-n arrays are drawn, always in this order: the honest value
    normal(normal_mu, normal_sigma), its fluctuation uniform(fluct_low,
    fluct_high), the false-high value normal(false_high_mean,
    false_high_std), the mixed attack's coin, and the completion time
    uniform(tau_low, tau_high). Normal nodes take max(0, value *
    fluctuation); malicious nodes take the attack's value: the normal one,
    the false-high draw, 0, or for the mixed attack the false-high draw when
    its coin falls below random_mix_p_high and 0 otherwise. Contributions
    are clamped to [c_min, c_max].
    """
    n = len(malicious)
    honest = rng.normal(cfg.normal_mu, cfg.normal_sigma, n)
    fluct = rng.uniform(cfg.fluct_low, cfg.fluct_high, n)
    high = rng.normal(cfg.false_high_mean, cfg.false_high_std, n)
    coin = rng.random(n)
    tau = rng.uniform(cfg.tau_low, cfg.tau_high, n)
    normal = np.maximum(0.0, honest * fluct)
    bad = (normal if attack is PatternKind.NORMAL
           else high if attack is PatternKind.FALSE_HIGH
           else np.where(coin < cfg.random_mix_p_high, high, 0.0) if attack is PatternKind.RANDOM_MIX
           else 0.0)
    return np.where(malicious, bad, normal).clip(cfg.c_min, cfg.c_max), tau


def sample_contribution(kind: PatternKind, cfg: SystemConfig,
                        rng: np.random.Generator) -> tuple[float, float]:
    """Draw one (contribution, completion_time) pair: `sample_contributions`
    for a single node following `kind`, so it takes one value of each of
    the five variables from `rng` whatever the pattern."""
    c, tau = sample_contributions(kind, np.ones(1, dtype=bool), cfg, rng)
    return float(c[0]), float(tau[0])
