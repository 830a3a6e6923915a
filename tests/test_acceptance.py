"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion. The statistical criteria aggregate twenty seeded default runs
(seeds 0..19) plus a malicious-share sweep; both batches are session fixtures
so the whole suite costs one build of each.
"""

import dataclasses
import json
import time

import numpy as np
import pytest
from scipy import stats

from flmech.behavior import sample_contribution
from flmech.cli import main as cli_main
from flmech.committee import select_committee, stratum_quota
from flmech.contract import (
    default_contract_context, effort_cost, grid_oracle,
    optimal_contribution_closed_form, solve_constrained,
)
from flmech.core import Node, PatternKind, Role, SystemConfig, sigmoid
from flmech.engine import run_simulation
from flmech.metrics import gini, jain_index

SEEDS = list(range(20))
SWEEP_PERCENTS = [0.10, 0.15, 0.20, 0.25, 0.30]
SWEEP_SEEDS = [0, 1, 2]
FLOAT_DUST = 1e-9  # guards exact bounds against accumulated rounding only


def _announce(criterion: str):
    print(f"ACCEPTANCE {criterion}: PASS")


@pytest.fixture(scope="session")
def default_runs():
    cfg = SystemConfig()
    runs = []
    for seed in SEEDS:
        start = time.perf_counter()
        result = run_simulation(cfg, seed=seed)
        runs.append((result, time.perf_counter() - start))
    return runs


@pytest.fixture(scope="session")
def sweep_runs():
    runs = []
    for m in SWEEP_PERCENTS:
        cfg = dataclasses.replace(SystemConfig(), malicious_percent=m)
        for seed in SWEEP_SEEDS:
            runs.append((m, run_simulation(cfg, seed=seed)))
    return runs


def test_criterion_1_reward_ratio_and_runtime(default_runs):
    ratios = []
    for result, elapsed in default_runs:
        s = result.summary()
        assert elapsed < 10.0, f"run took {elapsed:.2f}s"
        assert s["malicious_total_reward"] > 0.0
        ratio = s["honest_total_reward"] / s["malicious_total_reward"]
        assert ratio >= 4.0, f"seed {s['seed']}: ratio {ratio:.2f} < 4"
        ratios.append(ratio)
    assert float(np.median(ratios)) >= 6.0
    _announce("1 honest/malicious reward ratio >=4 each seed, >=6 median, <10s/run")


def test_criterion_2_detection_dynamics(default_runs):
    cfg = SystemConfig()
    for result, _ in default_runs:
        early = [len(rec.detected) for rec in result.records[:cfg.eta_switch]]
        assert sum(early) == 0, f"seed {result.rng.seed}: detections before the switch"

        malicious = [nd.id for nd in result.nodes if nd.role is Role.MALICIOUS]
        first = result.first_detection_round()
        by_switch_plus_3 = sum(1 for m in malicious
                               if m in first and first[m] <= cfg.eta_switch + 3)
        assert by_switch_plus_3 >= 0.8 * len(malicious)
        assert all(m in first for m in malicious), "some malicious never detected"
    _announce("2 detection: none pre-switch, >=80% by switch+3, 100% by round 90")


def test_criterion_3_reputation_separation(default_runs):
    for result, _ in default_runs:
        s = result.summary()
        honest, malicious = s["honest_mean_reputation"], s["malicious_mean_reputation"]
        assert 420.0 <= honest <= 500.0, f"seed {s['seed']}: honest mean {honest:.1f}"
        assert malicious < 150.0, f"seed {s['seed']}: malicious mean {malicious:.1f}"
        assert honest - malicious > 200.0
    _announce("3 reputation: honest in [420,500], malicious <150, gap >200")


def test_criterion_4_fairness_bands(default_runs, sweep_runs):
    for m, result in sweep_runs:
        g = result.summary()["cumulative_reward_gini"]
        assert g < 0.35, f"m={m}: cumulative gini {g:.3f}"
    for result, _ in default_runs:
        s = result.summary()
        assert s["honest_reward_gini"] < 0.15
        jain_series = [rec.jain_fairness for rec in result.records]
        gini_series = [rec.gini for rec in result.records]
        rho = stats.spearmanr(jain_series, gini_series).statistic
        assert rho < 0.0, f"seed {s['seed']}: spearman {rho:.3f}"
    _announce("4 fairness: gini<0.35 (m<=0.30), honest gini<0.15, J/G anti-correlated")


def test_criterion_5_metric_identities():
    for n in (2, 4, 9):
        assert abs(gini([12.5] * n)) <= 1e-12
    assert abs(gini([0.0, 0.0, 0.0, 1.0]) - 0.75) <= 1e-12
    equal = [100.0] * 4
    ratio = jain_index(equal) / sigmoid(100.0 / 10.0)
    assert abs(ratio - 1.0) <= 1e-12
    ratio_tiny_eps = jain_index([7.0] * 10, eps=1e-300) / sigmoid(7.0 / 10.0)
    assert abs(ratio_tiny_eps - 1.0) <= 1e-12
    _announce("5 metric identities exact to 1e-12")


def test_criterion_6_conservation_and_caps(default_runs, sweep_runs):
    cfg = SystemConfig()
    bound = cfg.reward_pool + cfg.committee_size * cfg.committee_bonus
    assert bound == 1400.0
    every_run = [r for r, _ in default_runs] + [r for _, r in sweep_runs]
    for result in every_run:
        for rec in result.records:
            assert rec.total_paid <= bound + FLOAT_DUST
            assert sum(rec.rewards) <= bound + FLOAT_DUST
            cap = cfg.r_max(rec.round)
            for rep in rec.reputation_after:
                assert 0.0 <= rep <= cap
    _announce("6 conservation <= 1400 and reputation within caps, all rounds")


def test_criterion_7_committee_properties(default_runs):
    assert [stratum_quota(5, 3, k) for k in (1, 2, 3)] == [2, 2, 1]

    for result, _ in default_runs:
        members_prev: set = set()
        for rec in result.records:
            current = set(rec.committee)
            assert not (current & members_prev), "consecutive committee membership"
            members_prev = current

    # uniform reputations: selection frequency uniform within each stratum
    cfg = dataclasses.replace(SystemConfig(), n_nodes=30)
    nodes = [Node(id=i, stake=100.0, reputation=100.0) for i in range(30)]
    rng = np.random.default_rng(0)
    counts = np.zeros(30, dtype=int)
    rounds = 100_000
    for _ in range(rounds):
        for member in select_committee(nodes, cfg, rng).members:
            counts[member] += 1
    for k in range(3):
        stratum_counts = counts[10 * k:10 * (k + 1)]
        p = stats.chisquare(stratum_counts).pvalue
        assert p > 0.01, f"stratum {k + 1}: chi-squared p={p:.4f}"
    _announce("7 committee: quotas (2,2,1), no consecutive members, uniform strata")


def test_criterion_8_contract_optimality():
    cfg = SystemConfig()
    solution = solve_constrained(cfg)
    closed = optimal_contribution_closed_form(cfg)
    assert abs(closed.c_star - solution.c_star) <= 1e-2
    assert solution.c_star == pytest.approx(cfg.c_max, abs=1e-9)
    assert closed.c_star == cfg.c_max

    _, grid_r, grid_profit = grid_oracle(cfg, default_contract_context(cfg),
                                         (cfg.c_min, cfg.c_max),
                                         (0.0, 2.0 * effort_cost(cfg.c_max, cfg.gamma_c)))
    assert abs(solution.r_star - grid_r) <= 1e-6
    assert solution.r_star == pytest.approx(25.0, abs=1e-6)
    assert abs(solution.profit - grid_profit) <= 1e-3
    assert solution.ir_satisfaction_rate == 1.0
    assert solution.min_utility > 0.0
    _announce("8 contract: C*=10 closed==solver, R*=25 vs grid, IR 100%, gap<=1e-3")


def test_criterion_9_byte_identical_outputs(tmp_path):
    cfg_path = tmp_path / "acc.cfg"
    cfg_path.write_text("n_nodes = 40\nrounds = 20\nseed = 11\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli_main(["simulate", "--config", str(cfg_path), "--out", str(out2)]) == 0
    files1 = json.loads((out1 / "manifest.json").read_text())["files"]
    files2 = json.loads((out2 / "manifest.json").read_text())["files"]
    assert files1 == files2 and files1
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    _announce("9 determinism: same config+seed gives byte-identical files")


def test_criterion_10_behavior_sampling():
    cfg = dataclasses.replace(SystemConfig(), fluct_low=1.0, fluct_high=1.0)
    rng = np.random.default_rng(2024)
    draws = np.array([sample_contribution(PatternKind.NORMAL, cfg, rng)[0]
                      for _ in range(100_000)])
    assert abs(draws.mean() - 7.0) < 0.05

    mix_draws = np.array([sample_contribution(PatternKind.RANDOM_MIX, cfg, rng)[0]
                          for _ in range(100_000)])
    zero_fraction = float(np.mean(mix_draws == 0.0))
    assert abs(zero_fraction - 0.40) < 0.01
    _announce("10 sampling: normal mean 7 +/- 0.05, mixed zero fraction 0.40 +/- 0.01")
