"""The scalar reference of the mechanism, for the tests.

The library computes every round step as numpy columns over a
`Population`. Here the same quantities are defined one node at a time, in
plain floats: `test_kernels.py` holds each column kernel to its scalar form,
and `test_oracles.py` holds the engine's wiring to `reference_round`, which
runs a whole round from the scalar forms over a `list[Node]`. The contract
grid oracle's reference, `grid_oracle_every_row`, searches every grid row
where the library prunes them; `test_contract.py` holds the two equal.

What is compared exactly and what to a tolerance follows the README's
"Determinism" section: a node's window mean and std are numpy reductions in
the library and `math.fsum` here, so stability, the reputations and what
reads them (rewards, fairness) agree to `BAND` relative; the rest is the same
arithmetic, bit for bit.
"""

import math
from collections.abc import Collection, Sequence
from dataclasses import replace

import numpy as np

from flmech.behavior import sample_contributions
from flmech.committee import select_committee
from flmech.contract import reward_slope
from flmech.core import Node, Population, Role, RoundRecord
from flmech.engine import WorldState
from flmech.metrics import gini, jain_index, mean, pstd
from flmech.reputation import quality, stability, update_reputation
from flmech.reward import alpha_weight, committee_bonus, effective_stake

# relative width of the band around a detection threshold inside which the
# numpy and the `math.fsum` evaluations may round to opposite sides
BAND = 1e-12


def population_from_nodes(nodes: Sequence[Node]) -> Population:
    """The columns of `nodes`, given in id order. Every node must hold a
    history of the same length."""
    lengths = {len(nd.contribution_history) for nd in nodes}
    if len(lengths) > 1:
        raise ValueError(f"histories differ in length: {sorted(lengths)}")
    k = lengths.pop() if lengths else 0
    return Population(stake=np.array([nd.stake for nd in nodes], dtype=float),
                      reputation=np.array([nd.reputation for nd in nodes], dtype=float),
                      total_reward=np.array([nd.total_reward for nd in nodes], dtype=float),
                      participation=np.array([nd.participation for nd in nodes], dtype=np.int64),
                      cooldown=np.array([nd.cooldown for nd in nodes], dtype=np.int64),
                      history=np.array([nd.contribution_history for nd in nodes],
                                       dtype=float).reshape(len(nodes), k).T.copy(),
                      malicious=np.array([nd.role is Role.MALICIOUS for nd in nodes], dtype=bool))


def sorted_sample(candidates, weights, count: int, rng) -> list:
    """`committee.weighted_sample_without_replacement` by sorting every key:
    the same uniforms, weight scaling and Efraimidis-Spirakis keys, and the
    `count` first by descending key, then ascending u."""
    u = rng.random(len(candidates))
    w = np.asarray(weights, dtype=float)
    top = w.max(initial=0.0)
    if 0.0 < top < 0.5:
        w = np.ldexp(w, -math.frexp(top)[1])
    with np.errstate(over="ignore"):
        keys = np.divide(np.log1p(-u), w, out=np.full(len(u), -np.inf), where=w > 0.0)
    return [candidates[i] for i in np.lexsort((u, -keys))[:count]]


def jain_ratio(values, eps: float) -> float:
    """The Jain ratio (sum)^2 / (n * sum of squares + eps), both sums by
    math.fsum. A largest magnitude in [2**-1048, 1) is first brought into
    [0.5, 1) by math.ldexp of each value. The squares are numpy's, so one
    that overflows warns as the library's does."""
    vs = [float(v) for v in values]
    peak = max(map(abs, vs), default=0.0)
    if 2.0 ** -1048 <= peak < 1.0:
        e = math.frexp(peak)[1]
        vs = [math.ldexp(v, -e) for v in vs]
    total = math.fsum(vs)
    return total * total / (len(vs) * math.fsum(np.square(vs).tolist()) + eps)


def penalty(reputation: float, stake: float, lambda_r: float, lambda_s: float) -> float:
    """Penalty amount, capped at half the reputation to avoid over-punishment."""
    return min(lambda_r * reputation + lambda_s * stake, reputation / 2.0)


def historical_contribution(history: list[float], zeta: float, tau: int) -> float:
    """Exponentially decayed sum of the last tau+1 contributions, newest first.

    `history` is ordered oldest to newest; entry weights are zeta^age with
    age 0 for the most recent entry. Missing entries contribute nothing.
    """
    total = 0.0
    for age, c in enumerate(reversed(history[-(tau + 1):])):
        total += c * zeta ** age
    return total


def scalar_rewards(nodes: Sequence[Node], committee: Collection[int], cfg) -> list[float]:
    """Reward allocation node by node, from the scalar functions."""
    nodes = list(nodes)
    reputations = [nd.reputation for nd in nodes]
    fairness = jain_index(reputations, cfg.epsilon)
    alpha = alpha_weight(mean(reputations), cfg.initial_reputation, cfg.f_scale,
                         cfg.stake_weight)
    total_stake = math.fsum(nd.stake for nd in nodes)
    mean_stake = total_stake / len(nodes)
    hist = [historical_contribution(nd.contribution_history, cfg.history_decay, cfg.window)
            for nd in nodes]
    c_total = math.fsum(hist)
    bonus = committee_bonus([nd.reputation for nd in nodes if nd.id in committee],
                            cfg.committee_bonus, cfg.epsilon)
    out = []
    for nd, h in zip(nodes, hist):
        stake_share = effective_stake(nd.stake, mean_stake) / total_stake if total_stake > 0 else 0.0
        contrib_share = h / c_total if c_total > 0 else 0.0
        total = ((alpha * cfg.reward_pool * stake_share
                  + (1.0 - alpha) * cfg.reward_pool * contrib_share) * fairness
                 + (bonus if nd.id in committee else 0.0))
        if not nd.contribution_history or nd.contribution_history[-1] == 0.0:
            total = 0.0
        out.append(float(total))
    return out


def scalar_conditions(nodes: Sequence[Node], cfg) -> list[tuple]:
    """Per node, (lhs, threshold, holds) of each condition, as the scalar
    detector computes them with `metrics.mean` and `metrics.pstd`."""
    tau = cfg.window
    histories = [nd.contribution_history for nd in nodes]
    windows = [h[-tau:] for h in histories]
    pooled = sorted(c for w in windows for c in w)
    mid = len(pooled) // 2
    median = pooled[mid] if len(pooled) % 2 else 0.5 * (pooled[mid - 1] + pooled[mid])
    this_round = [w[-1] for w in windows]
    round_mean, round_std = mean(this_round), pstd(this_round)
    out = []
    for h, own in zip(histories, windows):
        c_now, prev = own[-1], h[-(tau + 1):-1]
        lhs1, thr1 = mean(own), cfg.theta_low * median
        lhs2, thr2 = abs(c_now - round_mean), cfg.theta_fluct * round_std
        lhs3, thr3 = abs(c_now - mean(prev)), cfg.theta_jump * max(pstd(prev), cfg.eps_std)
        out.append(((lhs1, thr1, lhs1 < thr1), (lhs2, thr2, lhs2 > thr2),
                    (lhs3, thr3, lhs3 > thr3)))
    return out


def in_band(lhs: float, threshold: float) -> bool:
    """Whether `lhs` lies too close to `threshold` for the two summation
    orders to agree on which side it falls."""
    return abs(lhs - threshold) <= BAND * abs(threshold)


def scalar_flag(conditions: tuple, engine_flag: bool) -> bool:
    """(cond1 AND cond2) OR cond3 from one node's `scalar_conditions`.

    Conditions 1 and 3 read the node's window mean and std, which the engine
    takes with numpy; one inside the band may hold either way. When the flag
    depends on which way, the node takes `engine_flag`. Condition 2 is the
    engine's own arithmetic, so it is taken as it is."""
    (lhs1, thr1, low), (_, _, fluct), (lhs3, thr3, jump) = conditions
    outcomes = {(low_ and fluct) or jump_
                for low_ in ((False, True) if in_band(lhs1, thr1) else (low,))
                for jump_ in ((False, True) if in_band(lhs3, thr3) else (jump,))}
    return outcomes.pop() if len(outcomes) == 1 else engine_flag


def reference_round(state: WorldState,
                    engine_detected: Collection[int] = ()) -> tuple[WorldState, RoundRecord]:
    """Round `state.t` of `state`, from the scalar forms, in the order the
    mechanism wires them. `state` is left unchanged; returns the state the
    round leaves and the round's record.

    The draws come from the engine's own samplers on the same streams:
    `sample_contributions` on ("contrib", t) and `select_committee` over the
    `list[Node]` on ("committee", t). Every other step is computed here:
    the committee reads the reputations and cooldowns the round starts with;
    detection reads the histories with this round's contributions; a flagged
    node is penalised and every other node takes the reputation update;
    rewards read the updated reputations and the penalised stakes; the
    committee's cooldowns are set last. A node whose flag turns on a
    detection condition within `BAND` of its threshold takes its flag from
    `engine_detected`, the ids the engine flagged this round (`scalar_flag`).
    """
    cfg, t = state.cfg, state.t
    nodes = list(state.nodes)
    n = len(nodes)

    # (1) contributions, late ones recorded as zero
    attack = next(kind for start, end, kind in state.schedule if start <= t < end)
    malicious = np.array([nd.role is Role.MALICIOUS for nd in nodes], dtype=bool)
    c, tau = sample_contributions(attack, malicious, cfg, state.rng.stream("contrib", t))
    contributions, completion_times = c.tolist(), tau.tolist()
    timeouts = [i for i in range(n) if cfg.t_max is not None and completion_times[i] > cfg.t_max]
    for i in timeouts:
        contributions[i] = 0.0
    for nd in nodes:
        nd.contribution_history = (nd.contribution_history
                                   + [contributions[nd.id]])[-(cfg.window + 1):]
        nd.participation += contributions[nd.id] > 0.0

    # (2) committee on the reputations and cooldowns the round starts with
    selection = select_committee(nodes, cfg, state.rng.stream("committee", t))
    members = set(selection.members)

    # (3) aggregation computes nothing, as in the engine
    # (4) detection
    flagged = [False] * n
    if len(nodes[0].contribution_history) >= 2:
        for nd, conditions in zip(nodes, scalar_conditions(nodes, cfg)):
            flagged[nd.id] = scalar_flag(conditions, nd.id in engine_detected)
    detected = [i for i in range(n) if flagged[i]]

    # (5) penalties for the flagged nodes, the reputation update for the rest
    q = [quality(x, cfg.c_min, cfg.c_max) for x in contributions]
    lambda_r, lambda_s = cfg.reputation_penalty_factor, cfg.stake_penalty_factor
    penalties = [0.0] * n
    deductions = []
    for nd in nodes:
        if flagged[nd.id]:
            penalties[nd.id] = penalty(nd.reputation, nd.stake, lambda_r, lambda_s)
            nd.reputation = max(0.0, nd.reputation - penalties[nd.id])
            deductions.append(lambda_s * nd.stake)
            nd.stake = max(0.0, nd.stake - lambda_s * nd.stake)
        else:
            lam = stability(nd.contribution_history, cfg.window, cfg.default_stability)
            nd.reputation = update_reputation(nd, q[nd.id], lam, cfg, t)

    # (6) rewards on the updated reputations, then the cooldowns
    rewards = scalar_rewards(nodes, members, cfg)
    for nd in nodes:
        nd.total_reward += rewards[nd.id]
        nd.cooldown = cfg.cooldown_period if nd.id in members else max(0, nd.cooldown - 1)

    after = replace(state, nodes=population_from_nodes(nodes), t=t + 1,
                    stake_income=state.stake_income + math.fsum(deductions),
                    detected_per_round=state.detected_per_round + [len(detected)],
                    first_detected={**{i: t for i in detected}, **state.first_detected})
    return after, RoundRecord(
        round=t, committee=sorted(members), undersized_committee=selection.undersized,
        contributions=np.array(contributions), completion_times=np.array(completion_times),
        qualities=np.array(q), reputation_after=after.nodes.reputation,
        penalties=np.array(penalties), rewards=np.array(rewards), detected=detected,
        timeouts=timeouts, jain_fairness=jain_index(rewards, cfg.epsilon), gini=gini(rewards),
        total_paid=math.fsum(rewards))


def grid_oracle_every_row(cfg, ctx, c_bounds, r_bounds, points_per_axis=2001):
    """`contract.grid_oracle` without its prune: every grid C is priced at the
    first grid R >= cost(C) by one searchsorted over all the rows, and the
    first maximum in row order wins. Same returns, same rounding."""
    cs = np.linspace(c_bounds[0], c_bounds[1], points_per_axis)
    rs = np.linspace(r_bounds[0], r_bounds[1], points_per_axis)
    scale, span = cfg.contribution_bonus / ctx.tau_time, cfg.c_max - cfg.c_min
    values = scale / (1.0 + np.exp(-(cs - cfg.c_min) / span))
    costs = 0.5 * cfg.gamma_c * cs ** 2
    slope = reward_slope(cfg, ctx)
    j = np.searchsorted(rs, costs)
    feasible = j < points_per_axis
    j = np.where(feasible, j, 0)        # an infeasible row reports R[0] with profit -inf
    i = int(np.argmax(np.where(feasible, (values - slope * cs + costs) - rs[j], -np.inf)))
    c, r = float(cs[i]), float(rs[j[i]])
    value = scale / (1.0 + math.exp(-(c - cfg.c_min) / span))
    return c, r, ((value - slope * c) + float(costs[i])) - r if feasible[i] else -math.inf
