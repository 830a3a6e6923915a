"""Config validation, population init, and the labeled-RNG contract."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import flmech
from flmech.core import (
    ConfigError, RngStream, Role, SystemConfig, config_from_dict, config_to_dict,
    init_population, load_config, sigmoid, validate_config,
)


def test_default_config_is_valid():
    cfg = validate_config(SystemConfig())
    assert cfg.reward_pool == 1200.0
    assert cfg.committee_size == 5
    assert cfg.r_max(5) == 300.0
    assert cfg.r_max(6) == 500.0


def test_committee_larger_than_population_rejected():
    cfg = dataclasses.replace(SystemConfig(), committee_size=5, n_nodes=3)
    with pytest.raises(ConfigError, match="committee size exceeds population"):
        validate_config(cfg)


def test_gamma_boundary_excluded():
    with pytest.raises(ConfigError, match=r"gamma: must lie in \(0,1\]"):
        validate_config(dataclasses.replace(SystemConfig(), gamma=0.0))
    validate_config(dataclasses.replace(SystemConfig(), gamma=1.0))


def test_stake_weight_bounds_included():
    # above 1, beta = 1 - alpha goes negative and rewards can be negative
    for weight in (0.0, 1.0):
        validate_config(dataclasses.replace(SystemConfig(), stake_weight=weight))
    with pytest.raises(ConfigError, match=r"stake_weight: must lie in \[0,1\]"):
        validate_config(dataclasses.replace(SystemConfig(), stake_weight=1.5))


def test_int_and_stake_penalty_bounds_included():
    # every int but the seed is exact as a double; a flagged node loses at most its stake
    validate_config(dataclasses.replace(SystemConfig(), cooldown_period=2**53,
                                        stake_penalty_factor=1.0))
    with pytest.raises(ConfigError, match=r"cooldown_period: must lie in \[-2\*\*53, 2\*\*53\]"):
        validate_config(dataclasses.replace(SystemConfig(), cooldown_period=2**53 + 1))
    with pytest.raises(ConfigError, match=r"stake_penalty_factor: must lie in \[0,1\]"):
        validate_config(dataclasses.replace(SystemConfig(), stake_penalty_factor=1.5))


def test_all_violations_reported_together():
    cfg = dataclasses.replace(SystemConfig(), gamma=0.0, history_decay=1.5,
                              malicious_percent=2.0)
    with pytest.raises(ConfigError) as exc:
        validate_config(cfg)
    msg = str(exc.value)
    assert "gamma" in msg and "history_decay" in msg and "malicious_percent" in msg


def test_init_population_default_split():
    cfg = validate_config(SystemConfig())
    nodes = init_population(cfg, RngStream(123))
    assert len(nodes) == 100
    assert sum(nd.role is Role.MALICIOUS for nd in nodes) == 15
    assert sum(nd.role is Role.HONEST for nd in nodes) == 85
    for nd in nodes:
        assert nd.stake == 100.0 and nd.reputation == 100.0
        assert nd.cooldown == 0 and not nd.contribution_history


def test_init_population_no_malicious():
    cfg = validate_config(dataclasses.replace(SystemConfig(), malicious_percent=0.0))
    nodes = init_population(cfg, RngStream(1))
    assert all(nd.role is Role.HONEST for nd in nodes)


def test_init_population_rounds_half_up():
    # 10 * 0.15 = 1.5 rounds up to 2
    cfg = validate_config(dataclasses.replace(SystemConfig(), n_nodes=10,
                                              malicious_percent=0.15, committee_size=5))
    nodes = init_population(cfg, RngStream(1))
    assert sum(nd.role is Role.MALICIOUS for nd in nodes) == 2


def test_with_columns_swaps_in_read_only_columns_and_shares_the_rest():
    pop = init_population(validate_config(dataclasses.replace(SystemConfig(), n_nodes=6)),
                          RngStream(2))
    stake, cooldown = np.arange(6.0), np.full(6, 3)
    swapped = pop.with_columns(stake=stake, cooldown=cooldown)
    assert swapped.stake is stake and swapped.cooldown is cooldown
    assert not stake.flags.writeable and not cooldown.flags.writeable
    for name in ("reputation", "total_reward", "participation", "history", "malicious"):
        assert getattr(swapped, name) is getattr(pop, name)
    assert pop.stake.tolist() == [100.0] * 6 and pop.cooldown.tolist() == [0] * 6
    assert len(swapped) == 6 and swapped[5].stake == 5.0 and swapped[5].cooldown == 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        swapped.stake = np.zeros(6)


def test_with_columns_rejects_an_unknown_column_as_replace_does():
    pop = init_population(validate_config(dataclasses.replace(SystemConfig(), n_nodes=6)),
                          RngStream(2))
    with pytest.raises(TypeError):
        dataclasses.replace(pop, stakes=np.zeros(6))
    with pytest.raises(TypeError, match="stakes"):
        pop.with_columns(stakes=np.zeros(6))
    with pytest.raises(TypeError, match="stakes"):
        pop.with_columns(stake=np.zeros(6), stakes=np.zeros(6))


@settings(max_examples=120, deadline=None)
@given(m=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
       n=st.integers(min_value=1, max_value=10_000),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_role_count_matches_rounding_rule(m, n, seed):
    cfg = dataclasses.replace(SystemConfig(), n_nodes=n, malicious_percent=m,
                              committee_size=1)
    nodes = init_population(validate_config(cfg), RngStream(seed))
    assert sum(nd.role is Role.MALICIOUS for nd in nodes) == int(math.floor(m * n + 0.5))


def test_rng_streams_reproducible_and_label_dependent():
    a = RngStream(42).stream("contrib", 3, 7)
    b = RngStream(42).stream("contrib", 3, 7)
    assert a.random(8).tolist() == b.random(8).tolist()
    c = RngStream(42).stream("contrib", 3, 8)
    d = RngStream(42).stream("committee", 3, 7)
    e = RngStream(43).stream("contrib", 3, 7)
    first = a.random()
    assert first != c.random()
    assert first != d.random()
    assert first != e.random()


def test_sigmoid_reference_points():
    assert sigmoid(0.0) == 0.5
    assert abs(sigmoid(1.0) - 1.0 / (1.0 + math.exp(-1.0))) < 1e-15
    assert sigmoid(1000.0) == 1.0  # no overflow
    assert sigmoid(-1000.0) < 1e-300 or sigmoid(-1000.0) == 0.0


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment\n"
        "n_nodes = 20\n"
        "malicious_percent = 0.2\n"
        "rounds = 12\n"
        "t_max = none\n"
        "attack_schedule = 0:5:false_high, 5:12:zero\n")
    cfg = load_config(path)
    assert cfg.n_nodes == 20 and cfg.malicious_percent == 0.2 and cfg.rounds == 12
    assert cfg.t_max is None
    assert cfg.attack_schedule == [(0, 5, "false_high"), (5, 12, "zero")]


def test_config_from_dict_inverts_config_to_dict():
    cfg = dataclasses.replace(SystemConfig(), t_max=2.0, rounds=12,
                              attack_schedule=[(0, 5, "false_high"), (5, 12, "zero")])
    for data in (config_to_dict(cfg), json.loads(json.dumps(config_to_dict(cfg)))):
        assert config_from_dict(data) == cfg
    with pytest.raises(ConfigError, match="reward_pool: must be finite"):
        config_from_dict({**config_to_dict(cfg), "reward_pool": math.nan})
    with pytest.raises(ConfigError, match="n_nodes: expected int, got '30.0'"):
        config_from_dict({**config_to_dict(cfg), "n_nodes": 30.0})


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_field = 3\n")
    with pytest.raises(ConfigError, match="unknown config key 'not_a_field'"):
        load_config(path)


def test_every_config_field_is_read_in_src():
    # a config key that no code reads as an attribute is a knob that does nothing
    src = "\n".join(p.read_text() for p in Path(flmech.__file__).parent.glob("*.py"))
    unread = [f.name for f in dataclasses.fields(SystemConfig)
              if not re.search(rf"\.{f.name}\b", src)]
    assert unread == []
