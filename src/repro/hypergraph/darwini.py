"""Darwini-like social graph generator (FB-10M ... FB-10B stand-ins).

The paper's largest inputs are synthetic Facebook-friendship-like graphs
produced by Darwini [16] (Edunov et al., arXiv:1610.00664).  Darwini targets
a joint degree / clustering-coefficient distribution by (1) grouping
vertices with similar target degree and clustering, (2) creating small dense
"cliques" inside groups to realize triangles, and (3) completing residual
degrees with global Chung-Lu-style edges.

This module implements that three-phase recipe at laptop scale.  The
resulting friendship graph is converted to the storage-sharding bipartite
workload exactly as in the paper's introduction: one query per user spanning
the user's friends (profile-page multi-get).
"""

from __future__ import annotations

import numpy as np

from .bipartite import BipartiteGraph, sorted_unique
from .generators import power_law_degrees

__all__ = ["darwini_friendship_edges", "darwini_bipartite"]


def darwini_friendship_edges(
    num_users: int,
    avg_degree: float = 12.0,
    exponent: float = 2.4,
    clustering: float = 0.35,
    clique_size: int = 8,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Generate undirected friendship edges (u, v arrays, u < v).

    ``clustering`` is the fraction of each user's target degree realized
    inside a local dense group (phase 2); the rest is realized with global
    degree-proportional wiring (phase 3).
    """
    rng = np.random.default_rng(seed)
    degrees = power_law_degrees(num_users, avg_degree, exponent, min_degree=1, rng=rng)

    # Phase 1: bucket users by target degree so that groups are degree-homogeneous,
    # as Darwini buckets by (degree, clustering) targets.
    order = np.argsort(degrees, kind="stable")

    # Phase 2: within consecutive degree-sorted runs, form groups of
    # ``clique_size`` users and wire dense Erdős–Rényi pockets inside each.
    num_groups = max(1, num_users // clique_size)
    group_of = np.empty(num_users, dtype=np.int64)
    group_of[order] = np.minimum(
        np.arange(num_users, dtype=np.int64) // clique_size, num_groups - 1
    )
    local_budget = np.maximum(0, (degrees * clustering)).astype(np.int64)
    src_local = np.repeat(np.arange(num_users, dtype=np.int64), local_budget)
    # Pick partners uniformly within the same group: map a random group-member
    # slot back to a user id via a per-group index.
    group_sort = np.argsort(group_of, kind="stable")
    group_counts = np.bincount(group_of, minlength=num_groups)
    group_starts = np.zeros(num_groups, dtype=np.int64)
    np.cumsum(group_counts[:-1], out=group_starts[1:])
    g = group_of[src_local]
    slot = rng.integers(0, np.maximum(1, group_counts[g]), dtype=np.int64)
    dst_local = group_sort[group_starts[g] + slot]

    # Phase 3: residual degree realized with distance-biased wiring.  Real
    # social graphs mix degree-proportional attachment with strong locality
    # (friends-of-friends live "nearby" in the latent space); pure global
    # Chung-Lu wiring would erase the community structure that makes these
    # graphs partitionable at all.  Sources are drawn from the residual
    # pool (degree-proportional); partners sit at heavy-tailed ring offsets.
    residual = degrees - local_budget
    total_global = int(residual.sum()) // 2
    pool = np.repeat(np.arange(num_users, dtype=np.int64), np.maximum(0, residual))
    if pool.size >= 2 and total_global > 0:
        src_global = pool[rng.integers(0, pool.size, size=total_global)]
        offset = np.ceil(rng.pareto(1.2, size=total_global) + 1.0).astype(np.int64)
        sign = rng.choice(np.array([-1, 1], dtype=np.int64), size=total_global)
        dst_global = (src_global + sign * offset) % num_users
    else:  # degenerate tiny graphs
        src_global = np.empty(0, dtype=np.int64)
        dst_global = np.empty(0, dtype=np.int64)

    src = np.concatenate([src_local, src_global])
    dst = np.concatenate([dst_local, dst_global])
    keep = src != dst
    src, dst = src[keep], dst[keep]
    lo = np.minimum(src, dst)
    hi = np.maximum(src, dst)
    key = sorted_unique(lo * num_users + hi)
    return key // num_users, key % num_users


def darwini_bipartite(
    num_users: int,
    avg_degree: float = 12.0,
    exponent: float = 2.4,
    clustering: float = 0.35,
    seed: int = 0,
    name: str = "darwini",
) -> BipartiteGraph:
    """Darwini-like friendship graph as a profile-page multi-get workload.

    Every user is both a query (their profile page render) and a data vertex
    (their record), matching the paper: "every user of a social network
    serves both as query and as data in a bipartite graph".
    """
    u, v = darwini_friendship_edges(
        num_users, avg_degree=avg_degree, exponent=exponent, clustering=clustering, seed=seed
    )
    # Query q spans friends(q): friendship (u, v) contributes pin v to query u
    # and pin u to query v.
    q = np.concatenate([u, v])
    d = np.concatenate([v, u])
    graph = BipartiteGraph.from_edges(
        q, d, num_queries=num_users, num_data=num_users, name=name, dedupe=False
    )
    return graph.remove_small_queries()
