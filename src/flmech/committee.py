"""Reputation-stratified committee selection with cooldowns.

Nodes are sorted by reputation, split into contiguous strata, and sampled
within each stratum with probability proportional to reputation^gamma,
without replacement. Unfilled quota spills into a global pool of the
remaining eligible nodes. Selected members enter a cooldown that keeps them
out of the next few committees.
"""

from dataclasses import dataclass

import numpy as np

from .core import Node, SystemConfig


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


def weighted_sample_without_replacement(candidates: list[int], weights: list[float],
                                        count: int, rng: np.random.Generator) -> list[int]:
    """Sequential weighted sampling without replacement.

    At each draw, candidate i is picked with probability w_i over the sum of
    the remaining weights. If every remaining weight is zero the draw is
    uniform, so zero-weight candidates can only be picked once all
    positive-weight ones are exhausted.
    """
    if count > len(candidates):
        raise SampleError(f"cannot sample {count} from {len(candidates)} candidates")
    ids = list(candidates)
    wts = [float(w) for w in weights]
    picks = []
    for _ in range(count):
        total = sum(wts)
        if total > 0.0:
            r = rng.random() * total
            acc = 0.0
            idx = len(wts) - 1
            for j, w in enumerate(wts):
                acc += w
                if r < acc:
                    idx = j
                    break
        else:
            idx = int(rng.integers(len(ids)))
        picks.append(ids.pop(idx))
        wts.pop(idx)
    return picks


def select_committee(nodes: list[Node], cfg: SystemConfig,
                     rng: np.random.Generator) -> CommitteeSelection:
    """Pick up to committee_size members from the nodes' current state.

    Never fails: if too few nodes are eligible the committee comes back
    smaller with undersized=True. Ties in the reputation sort break by
    ascending node id so stratification is deterministic.
    """
    n = len(nodes)
    L = cfg.strata
    K = cfg.committee_size
    order = sorted(nodes, key=lambda nd: (-nd.reputation, nd.id))
    bounds = [(k * n) // L for k in range(L + 1)]
    quotas = [stratum_quota(K, L, k) for k in range(1, L + 1)]

    picked: list[int] = []
    eligible_all: list[Node] = []
    remaining = K
    for k in range(L):
        stratum = order[bounds[k]:bounds[k + 1]]
        elig = [nd for nd in stratum if nd.cooldown == 0]
        eligible_all.extend(elig)
        if not elig or remaining <= 0:
            continue
        m_k = min(max(1, min(quotas[k], len(elig))), remaining)
        weights = [nd.reputation ** cfg.gamma for nd in elig]
        picked.extend(weighted_sample_without_replacement(
            [nd.id for nd in elig], weights, m_k, rng))
        remaining -= m_k

    if remaining > 0:
        chosen = set(picked)
        pool = [nd for nd in eligible_all if nd.id not in chosen]
        take = min(remaining, len(pool))
        if take > 0:
            weights = [nd.reputation ** cfg.gamma for nd in pool]
            picked.extend(weighted_sample_without_replacement(
                [nd.id for nd in pool], weights, take, rng))

    return CommitteeSelection(members=picked, undersized=len(picked) < K)


def update_cooldowns(nodes: list[Node], members: list[int], cfg: SystemConfig) -> None:
    """Selected nodes start a full cooldown; everyone else ticks down by one."""
    selected = set(members)
    for nd in nodes:
        if nd.id in selected:
            nd.cooldown = cfg.cooldown_period
        else:
            nd.cooldown = max(0, nd.cooldown - 1)
