"""Contribution sampling and the attack-phase schedule.

Monte-Carlo expectations are checked against closed-form oracles: the
normal-pattern mean against the gaussian mean (the c_max clamp removes less
than 4e-4 of it at the defaults), and the mixed-attack zero fraction against
its Bernoulli parameter.
"""

import dataclasses

import numpy as np
import pytest

from flmech.behavior import sample_contribution, sample_contributions
from flmech.core import (
    ConfigError, PatternKind, ScheduleError, SystemConfig, attack_patterns, validate_config,
)

CFG = SystemConfig()
FALSE_HIGH, ZERO, RANDOM_MIX = PatternKind.FALSE_HIGH, PatternKind.ZERO, PatternKind.RANDOM_MIX


def test_default_schedule_boundaries():
    assert attack_patterns(CFG) == [FALSE_HIGH] * 5 + [ZERO] * 25 + [RANDOM_MIX] * 30 + [ZERO] * 30


def test_default_schedule_degenerate_single_phase():
    cfg = dataclasses.replace(CFG, rounds=5, eta_switch=5)
    assert attack_patterns(cfg) == [FALSE_HIGH] * 5


def test_default_schedule_too_few_rounds():
    cfg = dataclasses.replace(CFG, rounds=4, eta_switch=5)
    with pytest.raises(ScheduleError):
        attack_patterns(cfg)
    with pytest.raises(ConfigError, match="eta_switch"):
        validate_config(cfg)


def test_schedule_partition_enforced():
    for phases in ([(0, 5, "zero"), (6, 10, "zero")],                   # gap
                   [(0, 5, "zero"), (4, 10, "zero")],                   # overlap
                   [(0, 5, "zero"), (5, 5, "zero"), (5, 10, "zero")],   # empty phase
                   [(0, 5, "zero")],                                    # stops short of the run
                   [(0, 5, "zero"), (5, 11, "zero")]):                  # runs past it
        cfg = dataclasses.replace(CFG, rounds=10, attack_schedule=phases)
        with pytest.raises(ScheduleError):
            attack_patterns(cfg)
        with pytest.raises(ConfigError, match="attack_schedule"):
            validate_config(cfg)


def test_schedule_from_config_override():
    cfg = dataclasses.replace(CFG, rounds=10,
                              attack_schedule=[(0, 4, "zero"), (4, 10, "random_mix")])
    assert attack_patterns(cfg) == [ZERO] * 4 + [RANDOM_MIX] * 6


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
        draws, _ = sample_contributions([PatternKind.RANDOM_MIX] * draws_n, cfg, rng)
        zero_fraction = np.mean(draws == 0.0)
        assert abs(zero_fraction - (1.0 - p_high)) < 0.01


def test_all_patterns_clamped_to_contribution_range():
    # 1e6 draws split across patterns; every one must land in [c_min, c_max].
    rng = np.random.default_rng(7)
    for pattern in PatternKind:
        draws, _ = sample_contributions([pattern] * 250_000, CFG, rng)
        assert draws.min() >= CFG.c_min
        assert draws.max() <= CFG.c_max


def test_false_high_concentrates_near_saturation():
    rng = np.random.default_rng(5)
    draws = [sample_contribution(PatternKind.FALSE_HIGH, CFG, rng)[0] for _ in range(10_000)]
    assert abs(np.mean(draws) - CFG.false_high_mean) < 0.05


def test_draws_do_not_depend_on_pattern():
    # every variable is drawn for every node before patterns are applied, so
    # node i's draws are the same whatever pattern any node follows
    n = 200
    kinds = [PatternKind.NORMAL if i % 3 else RANDOM_MIX for i in range(n)]
    normal = [i for i, k in enumerate(kinds) if k is PatternKind.NORMAL]
    honest_c, honest_tau = sample_contributions([PatternKind.NORMAL] * n, CFG,
                                                np.random.default_rng(3))
    c, tau = sample_contributions(kinds, CFG, np.random.default_rng(3))
    assert np.array_equal(c[normal], honest_c[normal])
    assert np.array_equal(tau, honest_tau)
    _, zero_tau = sample_contributions([ZERO] * n, CFG, np.random.default_rng(3))
    assert np.array_equal(zero_tau, honest_tau)


def test_scalar_sampler_is_the_batch_of_one():
    for pattern in PatternKind:
        c, tau = sample_contributions([pattern], CFG, np.random.default_rng(11))
        assert sample_contribution(pattern, CFG, np.random.default_rng(11)) == (c[0], tau[0])
