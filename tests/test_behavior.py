"""Contribution sampling and the attack-phase schedule.

Monte-Carlo expectations are checked against closed-form oracles: the
normal-pattern mean against the gaussian mean (the c_max clamp removes less
than 4e-4 of it at the defaults), and the mixed-attack zero fraction against
its Bernoulli parameter.
"""

import dataclasses

import numpy as np
import pytest

from flmech.behavior import (
    AttackSchedule, PatternKind, ScheduleError,
    default_schedule, sample_contribution, schedule_from_config,
)
from flmech.core import SystemConfig

CFG = SystemConfig()


def test_default_schedule_boundaries():
    sched = default_schedule(CFG)
    assert list(sched.phases) == [
        (0, 5, PatternKind.FALSE_HIGH),
        (5, 30, PatternKind.ZERO),
        (30, 60, PatternKind.RANDOM_MIX),
        (60, 90, PatternKind.ZERO),
    ]
    assert sched.pattern_at(0) is PatternKind.FALSE_HIGH
    assert sched.pattern_at(29) is PatternKind.ZERO
    assert sched.pattern_at(89) is PatternKind.ZERO


def test_default_schedule_degenerate_single_phase():
    cfg = dataclasses.replace(CFG, rounds=5, eta_switch=5)
    sched = default_schedule(cfg)
    assert list(sched.phases) == [(0, 5, PatternKind.FALSE_HIGH)]


def test_default_schedule_too_few_rounds():
    with pytest.raises(ScheduleError):
        default_schedule(dataclasses.replace(CFG, rounds=4, eta_switch=5))


def test_schedule_partition_enforced():
    p = PatternKind.ZERO
    with pytest.raises(ScheduleError):
        AttackSchedule(((0, 5, p), (6, 10, p)))  # gap
    with pytest.raises(ScheduleError):
        AttackSchedule(((0, 5, p), (4, 10, p)))  # overlap


def test_schedule_from_config_override():
    cfg = dataclasses.replace(CFG, rounds=10,
                              attack_schedule=[(0, 4, "zero"), (4, 10, "random_mix")])
    sched = schedule_from_config(cfg)
    assert sched.pattern_at(3) is PatternKind.ZERO
    assert sched.pattern_at(4) is PatternKind.RANDOM_MIX


def test_zero_pattern_always_zero():
    rng = np.random.default_rng(0)
    for _ in range(100):
        c, tau = sample_contribution(PatternKind.ZERO, CFG, rng)
        assert c == 0.0
        assert CFG.tau_low <= tau <= CFG.tau_high


def test_normal_pattern_mean_against_gaussian_oracle():
    # With the fluctuation pinned at 1 the sample mean must sit within
    # 7 +/- 0.05 of the gaussian mean over 1e5 draws (CLT sigma ~ 0.003).
    cfg = dataclasses.replace(CFG, fluct_low=1.0, fluct_high=1.0)
    rng = np.random.default_rng(1234)
    draws = [sample_contribution(PatternKind.NORMAL, cfg, rng)[0] for _ in range(100_000)]
    assert abs(np.mean(draws) - cfg.normal_mu) < 0.05


def test_random_mix_zero_fraction():
    # the zero fraction is 1 - random_mix_p_high: 0.40 at the default 0.6,
    # and exactly 0 or 1 at the extremes
    rng = np.random.default_rng(99)
    for p_high, draws_n in ((CFG.random_mix_p_high, 100_000), (0.0, 2_000), (1.0, 2_000)):
        cfg = dataclasses.replace(CFG, random_mix_p_high=p_high)
        draws = [sample_contribution(PatternKind.RANDOM_MIX, cfg, rng)[0] for _ in range(draws_n)]
        zero_fraction = np.mean(np.asarray(draws) == 0.0)
        assert abs(zero_fraction - (1.0 - p_high)) < 0.01


def test_all_patterns_clamped_to_contribution_range():
    # 1e6 draws split across patterns; every one must land in [c_min, c_max].
    rng = np.random.default_rng(7)
    for pattern in PatternKind:
        draws = np.asarray([sample_contribution(pattern, CFG, rng)[0]
                            for _ in range(250_000)])
        assert draws.min() >= CFG.c_min
        assert draws.max() <= CFG.c_max


def test_false_high_concentrates_near_saturation():
    rng = np.random.default_rng(5)
    draws = [sample_contribution(PatternKind.FALSE_HIGH, CFG, rng)[0] for _ in range(10_000)]
    assert abs(np.mean(draws) - CFG.false_high_mean) < 0.05
