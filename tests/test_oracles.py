"""The engine's wiring against the scalar reference, round by round.

`test_kernels.py` holds each column kernel to its scalar form; this holds
the order in which the engine wires them, which state each step reads. Whole
runs of random valid configs go through `engine.run_round`, and before each
round the state is handed to `oracles.reference_round` too. Every
`RoundRecord` field, the population the round leaves and the tallies (the
stake income among them) must agree: exactly, except for the reputations and
what reads them (rewards, reward totals, fairness), which sit downstream of a
window std that the engine takes with numpy and the reference with
`math.fsum`, and so agree to `BAND` relative.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from flmech.core import PatternKind, Population, SystemConfig
from flmech.engine import new_world, run_round
from oracles import BAND, reference_round

PATTERNS = [kind.value for kind in PatternKind]
DEFAULT = SystemConfig()
# record fields and population columns downstream of a window std
APPROX_RECORD = {"reputation_after", "rewards", "jain_fairness", "gini", "total_paid"}
APPROX_COLUMNS = {"reputation", "total_reward"}


@st.composite
def attack_tables(draw, rounds):
    """An explicit phase table: consecutive phases that partition [0, rounds)."""
    if rounds == 0:
        return []
    cuts = draw(st.lists(st.integers(min_value=1, max_value=rounds - 1), unique=True,
                         max_size=3)) if rounds > 1 else []
    bounds = [0, *sorted(cuts), rounds]
    return [(start, end, draw(st.sampled_from(PATTERNS))) for start, end in zip(bounds, bounds[1:])]


def log_uniform(lo: float, hi: float):
    """Floats in [lo, hi] whose logarithm is uniform."""
    return st.floats(min_value=math.log10(lo), max_value=math.log10(hi)).map(
        lambda e: min(max(10.0 ** e, lo), hi))


@st.composite
def configs(draw):
    """A small valid config with random mechanism parameters, money and
    initial reputation, and either the default attack schedule or an
    explicit table."""
    n = draw(st.integers(min_value=1, max_value=12))
    rounds = draw(st.integers(min_value=0, max_value=15))
    r_max_early = draw(st.floats(min_value=100.0, max_value=300.0))
    unit = st.floats(min_value=0.0, max_value=1.0)
    # money over many magnitudes, within validate_config's finiteness limits
    # at this size, so pools from 1e-6 to 1e100 meet verify's pay bound too
    money = st.just(0.0) | log_uniform(1e-6, 1e100)
    explicit = draw(st.booleans())
    return SystemConfig(
        n_nodes=n, rounds=rounds, seed=draw(st.integers(min_value=0, max_value=2**32)),
        committee_size=draw(st.integers(min_value=1, max_value=n)),
        malicious_percent=draw(unit),
        window=draw(st.integers(min_value=1, max_value=6)),
        strata=draw(st.integers(min_value=1, max_value=4)),
        cooldown_period=draw(st.integers(min_value=0, max_value=3)),
        gamma=draw(st.sampled_from([0.3, 0.5, 1.0])),
        theta_low=draw(st.floats(min_value=0.0, max_value=1.0)),
        theta_fluct=draw(st.floats(min_value=0.0, max_value=4.0)),
        theta_jump=draw(st.floats(min_value=0.0, max_value=10.0)),
        eps_std=draw(st.floats(min_value=0.0, max_value=3.0)),
        reputation_penalty_factor=draw(unit), stake_penalty_factor=draw(unit),
        stake_weight=draw(unit),
        r_max_early=r_max_early,
        r_max_late=draw(st.floats(min_value=r_max_early, max_value=500.0)),
        r_max_switch_round=draw(st.integers(min_value=0, max_value=15)),
        t_max=draw(st.sampled_from([None, 0.8, 1.2])),
        reward_pool=draw(money), committee_bonus=draw(money), initial_stake=draw(money),
        initial_reputation=draw(log_uniform(1e-6, 300.0)),
        eta_switch=0 if explicit else draw(st.integers(min_value=0, max_value=rounds)),
        attack_schedule=draw(attack_tables(rounds)) if explicit else None,
    )


def assert_same_population(actual: Population, expected: Population):
    for f in dataclasses.fields(Population):
        got, want = getattr(actual, f.name), getattr(expected, f.name)
        assert got.shape == want.shape, f.name
        if f.name in APPROX_COLUMNS:
            assert got.tolist() == pytest.approx(want.tolist(), rel=BAND), f.name
        else:
            assert np.array_equal(got, want), f.name


def assert_same_record(actual, expected):
    for f in dataclasses.fields(actual):
        got, want = getattr(actual, f.name), getattr(expected, f.name)
        if isinstance(want, np.ndarray):
            got, want = got.tolist(), want.tolist()
        if f.name in APPROX_RECORD:
            # the Gini coefficient of nearly equal rewards is a difference of
            # nearly equal terms, so it agrees to BAND absolute
            assert got == pytest.approx(want, rel=BAND, abs=BAND if f.name == "gini" else 0), \
                f.name
        else:
            assert got == want, f.name


def run_in_lockstep(cfg: SystemConfig) -> None:
    state = new_world(cfg)
    while state.t < cfg.rounds:
        before = dataclasses.replace(state, detected_per_round=list(state.detected_per_round),
                                     first_detected=dict(state.first_detected))
        record = run_round(state)
        expected_state, expected = reference_round(before, record.detected)
        assert_same_record(record, expected)
        assert_same_population(state.nodes, expected_state.nodes)
        assert state.stake_income == expected_state.stake_income
        assert state.t == expected_state.t
        assert state.detected_per_round == expected_state.detected_per_round
        assert state.first_detected == expected_state.first_detected


@settings(max_examples=100, deadline=None)
@given(configs())
# the default config's mechanism and schedule, at the strategies' largest size
@example(dataclasses.replace(DEFAULT, n_nodes=12, rounds=15, committee_size=3, eta_switch=3,
                             malicious_percent=0.25))
# with a deadline, so late contributions are recorded as zero
@example(dataclasses.replace(DEFAULT, n_nodes=12, rounds=15, committee_size=3, eta_switch=3,
                             malicious_percent=0.25, t_max=0.8))
def test_engine_rounds_match_the_scalar_reference(cfg):
    run_in_lockstep(cfg)
