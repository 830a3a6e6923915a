"""Contract economics: contribution value, effort cost, the closed-form
optimal contract, and the exact optimum of the relaxed problem.

The relaxed single-participant problem treats the per-round pool payout as a
linear function of the contribution (slope = marginal decayed-history share
of the pool) and the contract reward R as the participant-facing floor that
must cover the effort cost. The publisher's objective is then

    profit(C, R) = V(C) - slope * C - (R - cost(C))

i.e. contribution value, minus the pool payout, minus the rent left to the
participant. Profit strictly decreases in R, so the rationality constraint
R >= cost(C) binds at any optimum, and what remains is the one-dimensional
maximum of V(C) - slope * C, whose first-order condition is V'(C) = slope.
solve_constrained finds that maximum in closed form and reports its
distance from the optimum over a dense 2001x2001 (C, R) grid as
diagnostics["grid_gap"]; the grid oracle bounds each grid C's profit by
its value at R = cost(C) and prices with a searchsorted only the rows whose
bound reaches the best row's price (1 of 2001 rows at the defaults, 431 at
reward_pool = 1800). The solver does not check the gap itself: callers
that need the solver's answer trusted (the acceptance suite, the tests and
the benchmark) require it to be at most 1e-3.

The closed form keeps the paper's formula, which solves a different balance,
X_c * k * (1 - sigmoid(k*C)) = tau * slope with k = 1/c_max, not V'(C) =
slope. At the defaults the two agree only while both optima sit at c_max,
for reward_pool / n_nodes up to about 16.4. Above that the solver's optimum
is interior (at reward_pool = 1800: 7.740 against the grid's 7.655) while
the closed form stays at c_max up to about 22.4.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import reputation
from .core import DomainError, SystemConfig


class DegenerateContract(ValueError):
    """The stake equation's denominator is non-positive."""


class SolverError(RuntimeError):
    """Kept for callers that import it: the exact solver never raises it."""


_IR_MARGIN = 1e-9           # reward above cost, so the participant's utility stays positive


def contribution_value(contribution: float, tau: float, x_c: float,
                       c_min: float, c_max: float) -> float:
    """Value of a contribution to the publisher: unit price x_c/tau times the
    sigmoid quality of the normalized contribution."""
    if tau <= 0:
        raise DomainError("completion time must be positive")
    return (x_c / tau) * reputation.quality(contribution, c_min, c_max)


def effort_cost(contribution: float, gamma_c: float) -> float:
    """Quadratic effort cost 0.5 * gamma_c * C^2."""
    if gamma_c <= 0:
        raise DomainError("gamma_c must be positive")
    return 0.5 * gamma_c * contribution ** 2


@dataclass(frozen=True)
class ContractContext:
    """Exogenous quantities the optimality formulas treat as constants."""
    fairness: float = 1.0           # J(r) at the operating point
    c_total: float = 0.0            # population decayed contribution mass
    c_hist: float = 0.0             # one participant's decayed contribution
    tau_time: float = 1.0           # completion time entering V(C)


def _zeta_mass(cfg: SystemConfig) -> float:
    """Decayed-history multiplier of one unit of sustained contribution:
    the geometric sum of zeta^age over the tau+1 weighted entries."""
    zeta = cfg.history_decay
    return (1.0 - zeta ** (cfg.window + 1)) / (1.0 - zeta)


def default_contract_context(cfg: SystemConfig) -> ContractContext:
    """Operating point implied by the config: every participant at the
    contribution ceiling with a full decayed history."""
    c_hist = cfg.c_max * _zeta_mass(cfg)
    return ContractContext(c_total=cfg.n_nodes * c_hist, c_hist=c_hist)


def reward_slope(cfg: SystemConfig, ctx: ContractContext) -> float:
    """Marginal pool payout per unit of sustained contribution: the
    contribution-weighted pool share divided by the total decayed mass, times
    the decayed-history multiplier of one unit of contribution."""
    return (1.0 - cfg.stake_weight) * cfg.reward_pool * ctx.fairness * _zeta_mass(cfg) / ctx.c_total


@dataclass
class ClosedFormContribution:
    c_star: float
    unclamped: Optional[float]
    interior_exists: bool
    x: float


def optimal_contribution_closed_form(cfg: SystemConfig,
                                     ctx: Optional[ContractContext] = None) -> ClosedFormContribution:
    """The paper's closed-form contribution level, clamped to [c_min, c_max].

    The interior condition is X_c * k * (1 - sigmoid(k*C)) = tau_time *
    reward_slope with k = 1/c_max. That is not the first-order condition
    V'(C) = reward_slope of relaxed_profit, which solve_constrained
    maximizes, so the two differ once the solver's optimum leaves c_max (at
    the defaults from reward_pool / n_nodes of about 16.4; at reward_pool =
    1800 this gives C* = 10, the solver 7.740). It reduces to
    C = c_max * ln(x - 1) for the ratio

        x = contribution_bonus * k / (tau_time * reward_slope)

    so x grows with the population's decayed contribution mass c_total. No
    interior solution exists for x <= 1 (the marginal payout dominates
    everywhere); the flag is cleared and c_min returned.
    """
    if ctx is None:
        ctx = default_contract_context(cfg)
    for name, val in [("c_max", cfg.c_max), ("contribution_bonus", cfg.contribution_bonus),
                      ("reward_pool", cfg.reward_pool), ("fairness", ctx.fairness),
                      ("c_total", ctx.c_total), ("tau_time", ctx.tau_time)]:
        if val <= 0:
            raise DomainError(f"{name} must be positive")
    if cfg.stake_weight >= 1.0:
        raise DomainError("stake_weight must be below 1")
    k = 1.0 / cfg.c_max
    x = cfg.contribution_bonus * k / (ctx.tau_time * reward_slope(cfg, ctx))
    if x <= 1.0:
        return ClosedFormContribution(cfg.c_min, None, False, x)
    unclamped = cfg.c_max * math.log(x - 1.0)
    clamped = min(cfg.c_max, max(cfg.c_min, unclamped))
    return ClosedFormContribution(clamped, unclamped, True, x)


def _stake(cfg: SystemConfig, ctx: ContractContext, r_star: float) -> float:
    """Uniform stake S* that balances the stake-weighted share of the pool
    against the reward R* net of the contribution term.

    Raises DegenerateContract when that net reward is not positive.
    """
    pool_term = (1.0 - cfg.stake_weight) * cfg.reward_pool * ctx.fairness * ctx.c_hist / ctx.c_total
    denom = r_star - pool_term
    if denom <= 0:
        raise DegenerateContract(
            f"stake equation denominator is {'zero' if denom == 0 else 'negative'} "
            f"({denom:.6g}); reward {r_star:.6g} does not exceed contribution "
            f"term {pool_term:.6g}")
    return cfg.stake_weight * cfg.reward_pool * ctx.fairness / (cfg.n_nodes * denom)


@dataclass
class ClosedFormContract:
    c_star: float
    s_star: float
    r_star: float
    interior_exists: bool


def optimal_contract_closed_form(cfg: SystemConfig,
                                 ctx: Optional[ContractContext] = None) -> ClosedFormContract:
    """Full closed-form contract: C* from the first-order condition, the
    IR-binding reward R* = cost(C*), and the uniform stake S* that balances
    the stake-weighted share of the pool against the reward net of the
    contribution term."""
    if ctx is None:
        ctx = default_contract_context(cfg)
    cf = optimal_contribution_closed_form(cfg, ctx)
    r_star = effort_cost(cf.c_star, cfg.gamma_c)
    return ClosedFormContract(cf.c_star, _stake(cfg, ctx, r_star), r_star, cf.interior_exists)


@dataclass
class OptimalSolution:
    c_star: float
    s_star: float
    r_star: float
    profit: float
    ir_satisfaction_rate: float
    min_utility: float
    diagnostics: dict = field(default_factory=dict)


def relaxed_profit(c: float, r: float, cfg: SystemConfig, ctx: ContractContext) -> float:
    """Publisher profit for one (contribution, reward) pair: contribution
    value minus the pool payout slope*C minus the participant rent R - cost(C)."""
    value = contribution_value(c, ctx.tau_time, cfg.contribution_bonus, cfg.c_min, cfg.c_max)
    return value - reward_slope(cfg, ctx) * c - (r - effort_cost(c, cfg.gamma_c))


def grid_oracle(cfg: SystemConfig, ctx: ContractContext,
                c_bounds: tuple[float, float], r_bounds: tuple[float, float],
                points_per_axis: int = 2001) -> tuple[float, float, float]:
    """Exact maximum of relaxed_profit with R >= cost(C) over a dense grid.

    The grid has points_per_axis >= 1 points on each axis, both endpoints
    included, and the bounds must be finite with r_bounds ascending; with
    2001 points the step is range/2000. Profit falls in R, so the best R for
    a grid C is the first grid R >= cost(C), which exists iff cost(C) <=
    R[-1]. With g = V - slope*C + cost, a row's profit g - R is at most its
    bound g - cost(C), rounding included; the row of the largest bound is
    priced by one searchsorted, and only the rows whose bound reaches that
    price, ties kept, are searched (1 of 2001 at the defaults, 431 at
    reward_pool = 1800). The answer equals the argmax over the full (C, R)
    grid, ties to the first point in row-major order: (C, R, profit) there,
    or (C[0], R[0], -inf) when no point is feasible.

    numpy's vector `exp` kernels differ in the last bit between CPUs, so
    `np.exp` only ranks the grid, and the winning point is priced again
    with `math.exp`, whose result is the same on every host.
    """
    if not (all(map(math.isfinite, (*c_bounds, *r_bounds))) and r_bounds[0] <= r_bounds[1]
            and points_per_axis >= 1):
        raise DomainError("grid bounds must be finite, r_bounds ascending, points_per_axis >= 1")
    cs = np.linspace(c_bounds[0], c_bounds[1], points_per_axis)
    rs = np.linspace(r_bounds[0], r_bounds[1], points_per_axis)
    scale, span = cfg.contribution_bonus / ctx.tau_time, cfg.c_max - cfg.c_min
    values = scale / (1.0 + np.exp(-(cs - cfg.c_min) / span))
    costs = 0.5 * cfg.gamma_c * cs ** 2
    slope = reward_slope(cfg, ctx)
    g = values - slope * cs + costs
    feasible = costs <= rs[-1]
    bound = np.where(feasible, g - costs, -np.inf)
    k = int(np.argmax(bound))
    if not feasible[k]:                         # no feasible row, or all at profit -inf
        return float(cs[0]), float(rs[0]), -math.inf
    best = g[k] - rs[np.searchsorted(rs, costs[k])]
    rows = np.flatnonzero(feasible & ~(bound < best))   # ties kept; every row if best is NaN
    j = np.searchsorted(rs, costs[rows])
    m = int(np.argmax(g[rows] - rs[j]))
    i, r = rows[m], float(rs[j[m]])
    c = float(cs[i])
    value = scale / (1.0 + math.exp(-(c - cfg.c_min) / span))
    return c, r, ((value - slope * c) + float(costs[i])) - r


def solve_constrained(cfg: SystemConfig, ctx: Optional[ContractContext] = None,
                      c_bounds: Optional[tuple[float, float]] = None) -> OptimalSolution:
    """Maximize publisher profit subject to participant rationality, exactly.

    Profit strictly decreases in R, so the rational-participation constraint
    binds and C* maximizes g(C) = V(C) - slope * C over c_bounds. With
    u = (C - c_min) / span, V'(C) = X_c / (tau * span) * sigmoid(u) * (1 -
    sigmoid(u)) falls where u >= 0 and rises below, so g is concave for
    u >= 0 and convex below: its maximum is at a bound or at the one root of
    V'(C) = slope with u >= 0. That root exists for 0 < y < 1/4, y =
    slope * tau * span / X_c, where sigmoid(u) = (1 + sqrt(1 - 4y)) / 2.

    The returned reward sits _IR_MARGIN above the cost so the participant's
    utility stays strictly positive. Rationality therefore holds by
    construction: every solve that returns has ir_satisfaction_rate 1.0 and
    min_utility equal to _IR_MARGIN up to the rounding of cost + _IR_MARGIN,
    so neither field can report a violation. The stake comes from the same equation
    as the closed form and raises DegenerateContract where that has no
    positive solution. diagnostics["grid_gap"] reports, without enforcing a
    limit, the distance from grid_oracle's optimum over the 2001-point grid
    on the same bounds, with R in [0, 2 * cost(max C)].
    """
    if ctx is None:
        ctx = default_contract_context(cfg)
    if c_bounds is None:
        c_bounds = (cfg.c_min, cfg.c_max)
    r_bounds = (0.0, 2.0 * effort_cost(c_bounds[1], cfg.gamma_c))
    span = cfg.c_max - cfg.c_min
    candidates = list(c_bounds)
    if cfg.contribution_bonus > 0:
        y = reward_slope(cfg, ctx) * ctx.tau_time * span / cfg.contribution_bonus
        if 0 < y < 0.25:
            # u = ln(s / (1 - s)) with s = (1 + d) / 2 and 1 - s = 2y / (1 + d),
            # written without the cancellation in 1 - s for small y
            d = math.sqrt(1.0 - 4.0 * y)
            root = cfg.c_min + span * (2.0 * math.log1p(d) - math.log(4.0 * y))
            if c_bounds[0] < root < c_bounds[1]:
                candidates.append(root)
    c_star = max(candidates, key=lambda c: relaxed_profit(c, effort_cost(c, cfg.gamma_c), cfg, ctx))
    r_star = effort_cost(c_star, cfg.gamma_c) + _IR_MARGIN
    s_star = _stake(cfg, ctx, r_star)
    profit = relaxed_profit(c_star, r_star, cfg, ctx)

    grid_c, grid_r, grid_profit = grid_oracle(cfg, ctx, c_bounds, r_bounds)
    gap = abs(profit - grid_profit)

    utility = r_star - effort_cost(c_star, cfg.gamma_c)     # the participant's IR utility

    return OptimalSolution(
        c_star=c_star, s_star=s_star, r_star=r_star, profit=profit,
        ir_satisfaction_rate=float(utility >= 0.0), min_utility=utility,
        diagnostics={
            "iterations": 0,    # no iterative search; the report keeps the key
            "grid_c": grid_c, "grid_r": grid_r, "grid_profit": grid_profit,
            "grid_gap": gap,
        },
    )
