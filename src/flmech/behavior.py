"""Per-round contribution generation for honest and adversarial nodes.

Honest nodes always draw from the normal pattern. Malicious nodes follow the
attack schedule (`core.attack_patterns`), which switches pattern as the run
progresses: a false-high phase (masquerade as a high-value node),
zero-contribution phases, and a mixed phase that randomly alternates between
the two.
"""

import numpy as np

from .core import PatternKind, SystemConfig


def sample_contribution(kind: PatternKind, cfg: SystemConfig,
                        rng: np.random.Generator) -> tuple[float, float]:
    """Draw one (contribution, completion_time) pair.

    Contributions are clamped to [c_min, c_max] after the pattern-specific
    draw; completion times are uniform on [tau_low, tau_high] regardless of
    pattern. The mixed attack draws false-high with probability
    random_mix_p_high and zero otherwise. Draw order within the stream is
    fixed (value, then fluctuation where applicable, then completion time)
    so results depend only on the stream label.
    """
    if kind is PatternKind.NORMAL:
        raw = rng.normal(cfg.normal_mu, cfg.normal_sigma)
        f = rng.uniform(cfg.fluct_low, cfg.fluct_high)
        c = max(0.0, raw * f)
    elif kind is PatternKind.FALSE_HIGH:
        c = rng.normal(cfg.false_high_mean, cfg.false_high_std)
    elif kind is PatternKind.ZERO:
        c = 0.0
    elif kind is PatternKind.RANDOM_MIX:
        if rng.random() < cfg.random_mix_p_high:
            c = rng.normal(cfg.false_high_mean, cfg.false_high_std)
        else:
            c = 0.0
    else:  # pragma: no cover - enum is exhaustive
        raise ValueError(f"unknown pattern {kind}")
    tau = rng.uniform(cfg.tau_low, cfg.tau_high)
    return min(cfg.c_max, max(cfg.c_min, c)), tau
