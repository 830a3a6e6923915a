"""Reputation-stratified committee selection with cooldowns.

Nodes are sorted by reputation, split into contiguous strata, and sampled
within each stratum with probability proportional to reputation^gamma,
without replacement. Unfilled quota spills into a global pool of the
remaining eligible nodes. Selected members enter a cooldown that keeps them
out of the next few committees.

A sample keys each candidate by u^(1/w) for one uniform u, as log1p(-u)/w,
and takes the largest keys (Efraimidis & Spirakis, "Weighted random sampling
with a reservoir", IPL 2006): the distribution of sequential weighted draws.
"""

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import Node, Population, SystemConfig


class SampleError(ValueError):
    """Asked for more samples than there are candidates."""


@dataclass
class CommitteeSelection:
    """Node ids picked for one round.

    `members` lists the stratum picks in stratum order (highest-reputation
    stratum first), then the picks from the remainder pool.
    """
    members: list[int]
    undersized: bool


def stratum_quota(committee_size: int, strata: int, k: int) -> int:
    """Initial quota for stratum k (1-indexed): floor division plus one unit
    of the remainder for the first (committee_size mod strata) strata."""
    base = committee_size // strata
    return base + (1 if k <= committee_size % strata else 0)


def weighted_sample_without_replacement(candidates, weights, count: int,
                                        rng: np.random.Generator) -> list:
    """Weighted sampling without replacement by Efraimidis-Spirakis keys: one
    uniform u_i per candidate, keyed by log1p(-u_i) / w_i, and the `count`
    largest keys first. This is the distribution of sequential draws that
    each pick candidate i with probability w_i over the remaining weight. A
    zero weight keys to -inf, after every positive one; ties break by
    ascending u, so zero-weight candidates come in uniform order.
    """
    if count > len(candidates):
        raise SampleError(f"cannot sample {count} from {len(candidates)} candidates")
    u = rng.random(len(candidates))
    w = np.asarray(weights, dtype=float)
    keys = np.divide(np.log1p(-u), w, out=np.full(len(u), -np.inf), where=w > 0.0)
    return [candidates[i] for i in np.lexsort((u, -keys))[:count]]


def select_committee(nodes: Population | Sequence[Node], cfg: SystemConfig,
                     rng: np.random.Generator) -> CommitteeSelection:
    """Pick up to committee_size members from the nodes' current state: a
    population's columns, or a list of nodes in id order.

    Never fails: if too few nodes are eligible the committee comes back
    smaller with undersized=True. Ties in the reputation sort break by
    ascending node id so stratification is deterministic.
    """
    if isinstance(nodes, Population):
        reputation, cooldown = nodes.reputation, nodes.cooldown
    else:
        reputation = np.array([nd.reputation for nd in nodes], dtype=float)
        cooldown = np.array([nd.cooldown for nd in nodes])
    n, L, K = len(reputation), cfg.strata, cfg.committee_size
    weight = reputation ** cfg.gamma
    ranked = np.lexsort((np.arange(n), -reputation))
    eligible_by_rank = cooldown[ranked] == 0

    picked: list[int] = []
    for k in range(L):
        lo, hi = (k * n) // L, ((k + 1) * n) // L
        elig = ranked[lo:hi][eligible_by_rank[lo:hi]]
        if elig.size and len(picked) < K:
            m_k = min(max(1, min(stratum_quota(K, L, k + 1), elig.size)), K - len(picked))
            picked.extend(weighted_sample_without_replacement(elig, weight[elig], m_k, rng))

    if len(picked) < K:
        pool_mask = cooldown == 0
        pool_mask[picked] = False
        pool = np.flatnonzero(pool_mask)
        take = min(K - len(picked), pool.size)
        if take > 0:
            picked.extend(weighted_sample_without_replacement(pool, weight[pool], take, rng))
    return CommitteeSelection(members=[int(i) for i in picked], undersized=len(picked) < K)


def update_cooldowns(pop: Population, members: list[int], cfg: SystemConfig) -> np.ndarray:
    """Every node's cooldown after the round: selected nodes start a full
    cooldown; everyone else ticks down by one, to no less than zero."""
    cooldown = np.maximum(0, pop.cooldown - 1)
    cooldown[members] = cfg.cooldown_period
    return cooldown
