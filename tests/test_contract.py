"""Contract economics: value and cost, closed form, solver.

The exact solver is never trusted alone: every solver assertion has the
dense-grid oracle next to it, and the closed-form route is cross-checked
against the solver's answer.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from flmech.contract import (
    ContractContext, DegenerateContract, contribution_value, default_contract_context,
    effort_cost, grid_oracle, optimal_contract_closed_form, optimal_contribution_closed_form,
    reward_slope, solve_constrained,
)
from flmech.core import DomainError, SystemConfig, sigmoid

CFG = SystemConfig()


# --- value and cost -------------------------------------------------------

def test_contribution_value_reference():
    assert contribution_value(10.0, 1.0, 50.0, 0.0, 10.0) == pytest.approx(
        50.0 * sigmoid(1.0), rel=1e-12)
    assert abs(contribution_value(10.0, 1.0, 50.0, 0.0, 10.0) - 36.553) < 1e-3
    assert contribution_value(0.0, 1.0, 50.0, 0.0, 10.0) == pytest.approx(25.0)


def test_contribution_value_halves_with_double_time():
    v1 = contribution_value(6.0, 1.0, 50.0, 0.0, 10.0)
    v2 = contribution_value(6.0, 2.0, 50.0, 0.0, 10.0)
    assert v2 == pytest.approx(v1 / 2.0, rel=1e-12)


def test_contribution_value_domain():
    with pytest.raises(DomainError):
        contribution_value(5.0, 0.0, 50.0, 0.0, 10.0)
    with pytest.raises(DomainError):
        contribution_value(5.0, -1.0, 50.0, 0.0, 10.0)


@settings(max_examples=100, deadline=None)
@given(c1=st.floats(min_value=0.0, max_value=10.0),
       c2=st.floats(min_value=0.0, max_value=10.0),
       tau=st.floats(min_value=0.1, max_value=5.0))
def test_value_monotone_in_contribution_and_time(c1, c2, tau):
    lo, hi = sorted((c1, c2))
    if hi - lo > 1e-6:  # gap visible to float
        assert contribution_value(hi, tau, 50.0, 0.0, 10.0) > \
            contribution_value(lo, tau, 50.0, 0.0, 10.0)
    assert contribution_value(lo, tau * 2, 50.0, 0.0, 10.0) < \
        contribution_value(lo, tau, 50.0, 0.0, 10.0)


def test_effort_cost_values():
    assert effort_cost(0.0, 0.5) == 0.0
    assert effort_cost(10.0, 0.5) == 25.0
    with pytest.raises(DomainError):
        effort_cost(1.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(min_value=0.0, max_value=10.0),
       b=st.floats(min_value=0.0, max_value=10.0))
def test_effort_cost_strictly_convex(a, b):
    if abs(a - b) > 1e-9:
        mid = 0.5 * (a + b)
        assert effort_cost(a, 0.5) + effort_cost(b, 0.5) > 2 * effort_cost(mid, 0.5)


# --- closed form ------------------------------------------------------------

def test_closed_form_default_reaches_ceiling():
    cf = optimal_contribution_closed_form(CFG)
    assert cf.interior_exists
    assert cf.c_star == CFG.c_max
    assert cf.unclamped > CFG.c_max


def test_closed_form_tuning_identity():
    # choose the contribution mass so the parameter ratio x equals 1+e;
    # then the unclamped optimum is exactly c_max (ln(e) = 1)
    zeta = CFG.history_decay
    zeta_mass = 1.0 - zeta ** (CFG.window + 1)
    k = 1.0 / CFG.c_max
    c_total = (1.0 + math.e) * 1.0 * (1.0 - CFG.stake_weight) * CFG.reward_pool \
        * 1.0 * zeta_mass / (CFG.contribution_bonus * k * (1.0 - zeta))
    ctx = ContractContext(fairness=1.0, c_total=c_total, c_hist=1.0, tau_time=1.0)
    cf = optimal_contribution_closed_form(CFG, ctx)
    assert cf.x == pytest.approx(1.0 + math.e, rel=1e-12)
    assert cf.unclamped == pytest.approx(CFG.c_max, rel=1e-12)


def test_closed_form_no_interior_solution():
    ctx = ContractContext(fairness=1.0, c_total=1.0, c_hist=1.0, tau_time=1.0)
    cf = optimal_contribution_closed_form(CFG, ctx)
    assert not cf.interior_exists
    assert cf.c_star == CFG.c_min
    assert cf.unclamped is None


def test_closed_form_contract_reward_and_stake():
    contract = optimal_contract_closed_form(CFG)
    assert contract.c_star == 10.0
    assert contract.r_star == pytest.approx(25.0, abs=1e-12)  # 0.5*0.5*100
    # pool term at the default context: 720 * c_hist/c_total = 720/100
    assert contract.s_star == pytest.approx(
        0.4 * 1200.0 / (100.0 * (25.0 - 7.2)), rel=1e-12)


def test_stake_equation_arithmetic():
    # contribution term 20 with C* at the ceiling: S* = 480 / (100*5) = 0.96
    ctx = ContractContext(fairness=1.0, c_total=3600.0, c_hist=100.0, tau_time=1.0)
    contract = optimal_contract_closed_form(CFG, ctx)
    assert contract.c_star == 10.0 and contract.r_star == pytest.approx(25.0)
    assert contract.s_star == pytest.approx(0.96, rel=1e-12)


def test_degenerate_contract_detected():
    # C* stays at the ceiling, so R* = 25 equals the pool term 720 * 100/2880
    ctx = ContractContext(fairness=1.0, c_total=2880.0, c_hist=100.0, tau_time=1.0)
    with pytest.raises(DegenerateContract, match="zero"):
        optimal_contract_closed_form(CFG, ctx)


# --- solver vs grid oracle ---------------------------------------------------

def test_solver_default_hits_corner():
    sol = solve_constrained(CFG)
    assert sol.c_star == pytest.approx(10.0, abs=1e-9)
    assert sol.r_star == pytest.approx(25.0, abs=1e-6)
    # value 50*sigmoid(1) minus pool payout 0.72*10 minus ~zero rent
    assert sol.profit == pytest.approx(50.0 * sigmoid(1.0) - 7.2, abs=1e-6)
    assert sol.diagnostics["grid_gap"] <= 1e-3
    assert sol.ir_satisfaction_rate == 1.0
    assert sol.min_utility > 0.0


def test_solver_tightened_bound():
    # C <= 5 caps R* at 6.25, below the default context's pool term 7.2, so
    # the stake equation has no positive solution there; a smaller
    # per-participant history c_hist lowers the pool term without moving the
    # payout slope, and with it the optimum
    with pytest.raises(DegenerateContract):
        solve_constrained(CFG, c_bounds=(0.0, 5.0))
    ctx = dataclasses.replace(default_contract_context(CFG), c_hist=10.0)
    sol = solve_constrained(CFG, ctx, c_bounds=(0.0, 5.0))
    assert sol.c_star == pytest.approx(5.0, abs=1e-9)
    assert sol.r_star == pytest.approx(6.25, abs=1e-6)
    assert sol.s_star > 0.0
    assert sol.ir_satisfaction_rate == 1.0
    assert sol.diagnostics["grid_gap"] <= 1e-3


def test_solver_interior_optimum():
    # at reward_pool = 1800 the payout slope 1.08 lies between the marginal
    # value V'(C) = 5 * sigmoid(u)(1 - sigmoid(u)), u = C / c_max, at c_max
    # (about 0.98) and at c_min (1.25), so the optimum is the root of
    # V'(C) = slope inside (c_min, c_max): sigmoid(u)(1 - sigmoid(u)) = 1/x
    cfg = dataclasses.replace(CFG, reward_pool=1800.0)
    x = cfg.contribution_bonus / cfg.c_max / reward_slope(cfg, default_contract_context(cfg))
    s = (1.0 + math.sqrt(1.0 - 4.0 / x)) / 2.0
    root = cfg.c_max * math.log(s / (1.0 - s))
    assert root == pytest.approx(7.7402, abs=1e-4)
    sol = solve_constrained(cfg)
    assert cfg.c_min < sol.c_star < cfg.c_max
    assert abs(sol.c_star - root) <= 1e-2
    assert sol.diagnostics["grid_gap"] <= 1e-3
    assert sol.ir_satisfaction_rate == 1.0 and sol.min_utility > 0.0
    # the closed form solves another balance and stays at the ceiling here
    assert optimal_contribution_closed_form(cfg).c_star == cfg.c_max


def test_grid_oracle_exact_corner():
    ctx = default_contract_context(CFG)
    c, r, profit = grid_oracle(CFG, ctx, (0.0, 10.0), (0.0, 50.0))
    assert c == 10.0 and r == 25.0
    # value + cost - slope*C - R with the binding reward R = cost
    assert profit == pytest.approx(50.0 * sigmoid(1.0) - 7.2, rel=1e-12)


def _grid_oracle_2d(cfg, ctx, c_bounds, r_bounds, points_per_axis=2001):
    """Reference for grid_oracle: the argmax over the full (C, R) profit
    surface with the infeasible points masked to -inf, the winning point
    priced again with `math.exp`."""
    cs = np.linspace(c_bounds[0], c_bounds[1], points_per_axis)
    rs = np.linspace(r_bounds[0], r_bounds[1], points_per_axis)
    scale, span = cfg.contribution_bonus / ctx.tau_time, cfg.c_max - cfg.c_min
    values = scale / (1.0 + np.exp(-(cs - cfg.c_min) / span))
    costs = 0.5 * cfg.gamma_c * cs ** 2
    slope = reward_slope(cfg, ctx)
    profit = (values - slope * cs + costs)[:, None] - rs[None, :]
    feasible = rs[None, :] >= costs[:, None]
    profit = np.where(feasible, profit, -np.inf)
    flat = int(np.argmax(profit))
    i, j = divmod(flat, points_per_axis)
    if not feasible[i, j]:
        return float(cs[i]), float(rs[j]), -math.inf
    c, r = float(cs[i]), float(rs[j])
    value = scale / (1.0 + math.exp(-(c - cfg.c_min) / span))
    return c, r, ((value - slope * c) + float(costs[i])) - r


@st.composite
def oracle_cases(draw):
    cfg = dataclasses.replace(
        CFG,
        reward_pool=draw(st.floats(50.0, 3000.0)),
        n_nodes=draw(st.integers(10, 1000)),
        history_decay=draw(st.floats(0.05, 0.95)),
        gamma_c=draw(st.floats(0.01, 5.0)),
        contribution_bonus=draw(st.floats(1.0, 200.0)),
    )
    c_lo = draw(st.floats(0.0, 10.0))
    c_bounds = (c_lo, c_lo + draw(st.floats(0.0, 10.0)))
    cost_hi = 0.5 * cfg.gamma_c * c_bounds[1] ** 2
    # r_hi from well below to well above the largest cost, so that some or
    # all rows have no feasible R; r_lo at or below r_hi
    r_hi = cost_hi * draw(st.sampled_from([0.0, 0.1, 0.5, 1.0, 1.5, 2.0])) \
        + draw(st.floats(0.0, 1.0))
    r_bounds = (r_hi - draw(st.floats(0.0, 1.0)) * (r_hi + 1.0), r_hi)
    points = draw(st.one_of(st.integers(2, 50), st.integers(51, 400)))
    return cfg, c_bounds, r_bounds, points


@settings(max_examples=300, deadline=None)
@given(case=oracle_cases())
def test_grid_oracle_matches_2d_reference(case):
    cfg, c_bounds, r_bounds, points = case
    ctx = default_contract_context(cfg)
    assert grid_oracle(cfg, ctx, c_bounds, r_bounds, points) == \
        _grid_oracle_2d(cfg, ctx, c_bounds, r_bounds, points)


def test_grid_oracle_all_rows_infeasible():
    # R capped below every cost of C in [1, 2]: no feasible grid point
    ctx = default_contract_context(CFG)
    result = grid_oracle(CFG, ctx, (1.0, 2.0), (0.0, 0.1), 11)
    assert result == (1.0, 0.0, -math.inf)
    assert result == _grid_oracle_2d(CFG, ctx, (1.0, 2.0), (0.0, 0.1), 11)


def test_closed_form_agrees_with_solver():
    sol = solve_constrained(CFG)
    cf = optimal_contribution_closed_form(CFG)
    assert abs(cf.c_star - sol.c_star) <= 1e-3 * CFG.c_max


def test_ir_binds_at_optimum():
    sol = solve_constrained(CFG)
    assert abs(sol.r_star - effort_cost(sol.c_star, CFG.gamma_c)) <= 1e-6


@st.composite
def solver_cases(draw):
    c_min = draw(st.floats(0.0, 10.0))
    cfg = dataclasses.replace(
        CFG,
        reward_pool=draw(st.floats(0.0, 3000.0)),
        n_nodes=draw(st.integers(10, 1000)),
        history_decay=draw(st.floats(0.05, 0.95)),
        gamma_c=draw(st.floats(0.01, 5.0)),
        contribution_bonus=draw(st.floats(0.0, 200.0)),
        c_min=c_min,
        c_max=c_min + draw(st.floats(0.1, 10.0)),
    )
    # bounds from below c_min up to c_max, some wider than [c_min, c_max]
    c_lo = draw(st.floats(0.0, cfg.c_max))
    return cfg, (c_lo, c_lo + draw(st.floats(0.0, 10.0)))


@settings(max_examples=300, deadline=None)
@given(case=solver_cases())
def test_solver_not_below_grid_optimum(case):
    # without an own history the stake equation's pool term vanishes, so the
    # stake exists at every optimum; the margin is the reward's _IR_MARGIN
    cfg, c_bounds = case
    ctx = dataclasses.replace(default_contract_context(cfg), c_hist=0.0)
    sol = solve_constrained(cfg, ctx, c_bounds)
    assert c_bounds[0] <= sol.c_star <= c_bounds[1]
    assert sol.profit >= sol.diagnostics["grid_profit"] - 2e-9


@pytest.mark.parametrize("changes, ctx_changes", [
    ({"reward_pool": 0.0}, {}),
    ({"contribution_bonus": 0.0}, {"c_hist": 1e-12}),
], ids=["reward_pool 0", "contribution_bonus 0"])
def test_solver_finite_without_pool_or_bonus(changes, ctx_changes):
    # a zero pool makes the payout slope 0 and a zero bonus makes V(C) = 0:
    # neither may divide by zero in the interior root
    cfg = dataclasses.replace(CFG, **changes)
    ctx = dataclasses.replace(default_contract_context(cfg), **ctx_changes)
    sol = solve_constrained(cfg, ctx)
    terms = (sol.c_star, sol.s_star, sol.r_star, sol.profit, sol.min_utility)
    assert all(math.isfinite(v) for v in terms)
    # no pool payout: value rises in C; no value: the payout falls in C
    assert sol.c_star == (cfg.c_max if cfg.reward_pool == 0.0 else cfg.c_min)
    assert sol.diagnostics["grid_gap"] <= 1e-3
