"""Per-round contribution generation for honest and adversarial nodes.

Honest nodes always draw from the normal pattern. Malicious nodes follow an
attack schedule that switches pattern as the run progresses: a false-high
phase (masquerade as a high-value node), zero-contribution phases, and a
mixed phase that randomly alternates between the two.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import ConfigError, SystemConfig


class ScheduleError(ConfigError):
    """The requested schedule cannot cover the configured round span."""


class PatternKind(Enum):
    NORMAL = "normal"
    FALSE_HIGH = "false_high"
    ZERO = "zero"
    RANDOM_MIX = "random_mix"


@dataclass(frozen=True)
class AttackSchedule:
    """Ordered phases (start inclusive, end exclusive, pattern) covering [0, rounds)."""
    phases: tuple[tuple[int, int, PatternKind], ...]

    def __post_init__(self):
        prev_end = 0
        for start, end, _ in self.phases:
            if start != prev_end or end <= start:
                raise ScheduleError(f"phases must partition the round span; bad phase [{start},{end})")
            prev_end = end

    @property
    def rounds(self) -> int:
        return self.phases[-1][1] if self.phases else 0

    def pattern_at(self, t: int) -> PatternKind:
        for start, end, pattern in self.phases:
            if start <= t < end:
                return pattern
        raise ScheduleError(f"round {t} outside schedule span [0,{self.rounds})")


def default_schedule(cfg: SystemConfig) -> AttackSchedule:
    """Canonical four-phase adversary: false-high, zero, mixed, zero.

    For a 90-round run the boundaries are {eta_switch, 30, 60, 90}; other
    spans keep the first boundary at eta_switch and scale the later two
    proportionally. Degenerate (empty) phases are dropped.
    """
    rounds, eta = cfg.rounds, cfg.eta_switch
    if rounds < eta:
        raise ScheduleError(f"rounds ({rounds}) must be >= eta_switch ({eta})")
    b2 = max(eta, round(rounds * 30 / 90))
    b3 = max(b2, round(rounds * 60 / 90))
    raw = [
        (0, eta, PatternKind.FALSE_HIGH),
        (eta, b2, PatternKind.ZERO),
        (b2, b3, PatternKind.RANDOM_MIX),
        (b3, rounds, PatternKind.ZERO),
    ]
    phases = tuple((s, e, p) for s, e, p in raw if e > s)
    return AttackSchedule(phases)


def schedule_from_config(cfg: SystemConfig) -> AttackSchedule:
    """Schedule from the explicit config phase table, or the default one.

    A zero-round run never consults the schedule and gets an empty one.
    """
    if cfg.rounds == 0:
        return AttackSchedule(())
    if cfg.attack_schedule is None:
        return default_schedule(cfg)
    kinds = {kind.value: kind for kind in PatternKind}
    for _, _, name in cfg.attack_schedule:
        if name not in kinds:
            raise ScheduleError(f"attack_schedule: unknown pattern '{name}'"
                                f" (expected one of {', '.join(kinds)})")
    sched = AttackSchedule(tuple((start, end, kinds[name]) for start, end, name in cfg.attack_schedule))
    if sched.rounds != cfg.rounds:
        raise ScheduleError(f"schedule covers [0,{sched.rounds}) but config has {cfg.rounds} rounds")
    return sched


def _clamp(x: float, lo: float, hi: float) -> float:
    return min(hi, max(lo, x))


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
    return _clamp(c, cfg.c_min, cfg.c_max), tau
