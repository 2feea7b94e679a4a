"""Synthetic hypergraph generators.

The paper evaluates on SNAP graphs and Darwini-generated Facebook-like
graphs, none of which can be downloaded in this offline environment.  These
generators produce *stand-ins*: seeded synthetic bipartite graphs matched to
the published sizes and to the structural features that drive partitioner
behaviour — degree skew, community structure (how partitionable the graph
is), and query/data overlap.  See DESIGN.md Section 5 for the substitution
rationale.

All generators are deterministic given ``seed`` and return
:class:`~repro.hypergraph.bipartite.BipartiteGraph`.
"""

from __future__ import annotations

import numpy as np

from .bipartite import BipartiteGraph

__all__ = [
    "power_law_degrees",
    "community_bipartite",
    "ring_social_bipartite",
    "web_host_bipartite",
    "planted_partition_bipartite",
    "random_bipartite",
    "figure2_graph",
    "figure2_reference_partition",
]


def power_law_degrees(
    count: int,
    mean_degree: float,
    exponent: float = 2.3,
    min_degree: int = 2,
    max_degree: int | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw a discrete power-law-ish degree sequence with a target mean.

    Degrees are sampled as ``floor(min_degree * u^(-1/(exponent-1)))`` (a
    discrete Pareto), truncated at ``max_degree``, then multiplicatively
    rescaled so that the empirical mean approaches ``mean_degree``.  The
    rescaling keeps the heavy tail while hitting published |E| targets.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    if max_degree is None:
        max_degree = max(min_degree + 1, int(mean_degree * 50))
    u = rng.random(count)
    raw = np.floor(min_degree * u ** (-1.0 / (exponent - 1.0)))
    raw = np.clip(raw, min_degree, max_degree)
    current_mean = raw.mean()
    if current_mean > 0:
        scaled = raw * (mean_degree / current_mean)
        raw = np.clip(np.round(scaled), min_degree, max_degree)
    return raw.astype(np.int64)


def _assign_community_blocks(
    num_items: int, num_communities: int, size_skew: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Split ``num_items`` into communities with power-law-ish sizes.

    Returns ``(block_starts, block_sizes)`` over a contiguous id space;
    callers permute ids afterwards so locality never leaks through ids.
    """
    if num_communities > num_items:
        # Every community holds at least one item: the drift loop below
        # could never give the surplus back.
        raise ValueError(
            f"cannot split {num_items} items into {num_communities} non-empty "
            "communities: num_communities must not exceed the item count"
        )
    raw = rng.pareto(size_skew, size=num_communities) + 1.0
    sizes = np.maximum(1, np.round(raw / raw.sum() * num_items)).astype(np.int64)
    # Fix rounding drift so sizes sum exactly to num_items.
    drift = num_items - int(sizes.sum())
    order = np.argsort(-sizes)
    i = 0
    while drift != 0:
        j = order[i % num_communities]
        if drift > 0:
            sizes[j] += 1
            drift -= 1
        elif sizes[j] > 1:
            sizes[j] -= 1
            drift += 1
        i += 1
    starts = np.zeros(num_communities, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    return starts, sizes


def community_bipartite(
    num_queries: int,
    num_data: int,
    num_edges: int,
    num_communities: int = 64,
    mixing: float = 0.2,
    query_exponent: float = 2.2,
    size_skew: float = 1.5,
    seed: int = 0,
    name: str = "",
) -> BipartiteGraph:
    """Bipartite graph with planted community structure and skewed degrees.

    Data vertices belong to communities; each query has a home community and
    draws each pin from home with probability ``1 - mixing`` and uniformly at
    random otherwise.  ``mixing`` controls how partitionable the graph is:
    web-graph stand-ins use small values (strong locality, fanout stays near
    1 even for large k, as in Table 2), social-graph stand-ins use larger
    values.
    """
    rng = np.random.default_rng(seed)
    starts, sizes = _assign_community_blocks(num_data, num_communities, size_skew, rng)
    mean_degree = max(2.0, num_edges / max(1, num_queries))
    degrees = power_law_degrees(num_queries, mean_degree, query_exponent, rng=rng)
    homes = rng.choice(num_communities, size=num_queries, p=sizes / sizes.sum())
    total_pins = int(degrees.sum())
    pin_home = np.repeat(homes, degrees)
    pin_global = rng.random(total_pins) < mixing
    local_offsets = rng.integers(0, sizes[pin_home], dtype=np.int64)
    pins = starts[pin_home] + local_offsets
    pins[pin_global] = rng.integers(0, num_data, size=int(pin_global.sum()), dtype=np.int64)
    # Permute data ids so contiguous blocks carry no information.
    perm = rng.permutation(num_data)
    pins = perm[pins]
    q_of_pin = np.repeat(np.arange(num_queries, dtype=np.int64), degrees)
    return BipartiteGraph.from_edges(
        q_of_pin, pins, num_queries=num_queries, num_data=num_data, name=name
    ).remove_small_queries()


def ring_social_bipartite(
    num_users: int,
    avg_friends: float = 20.0,
    exponent: float = 2.5,
    locality_scale: float = 1.3,
    seed: int = 0,
    name: str = "",
) -> BipartiteGraph:
    """Social-network stand-in: egonet queries over a latent-space graph.

    Users sit on a ring; friendships connect users at heavy-tailed ring
    distances (locality → community structure) with power-law degrees.  The
    storage-sharding workload from the paper's introduction is modeled by one
    query per user that fetches all of the user's friends (rendering a
    profile page fetches friend records).
    """
    rng = np.random.default_rng(seed)
    degrees = power_law_degrees(num_users, avg_friends / 2.0, exponent, min_degree=1, rng=rng)
    total = int(degrees.sum())
    src = np.repeat(np.arange(num_users, dtype=np.int64), degrees)
    # Signed Pareto ring offsets: heavy-tailed hop distances.
    magnitude = np.ceil(rng.pareto(locality_scale, size=total) + 1.0).astype(np.int64)
    sign = rng.choice(np.array([-1, 1], dtype=np.int64), size=total)
    dst = (src + sign * magnitude) % num_users
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # Symmetrize friendships, then emit egonet queries: query u spans friends(u).
    all_src = np.concatenate([src, dst])
    all_dst = np.concatenate([dst, src])
    graph = BipartiteGraph.from_edges(
        all_src, all_dst, num_queries=num_users, num_data=num_users, name=name
    )
    return graph.remove_small_queries()


def web_host_bipartite(
    num_pages: int,
    num_hosts: int,
    avg_links: float = 9.0,
    intra_host_fraction: float = 0.95,
    exponent: float = 2.1,
    seed: int = 0,
    name: str = "",
) -> BipartiteGraph:
    """Web-graph stand-in: pages grouped into hosts with strong link locality.

    Real web graphs (web-Stanford, web-BerkStan) partition extremely well —
    Table 2 shows fanout below 2 even at k = 512 — because links are mostly
    intra-host.  One query per page spans the page and its out-links.
    """
    rng = np.random.default_rng(seed)
    starts, sizes = _assign_community_blocks(num_pages, num_hosts, 1.2, rng)
    host_of = np.repeat(np.arange(num_hosts, dtype=np.int64), sizes)
    degrees = power_law_degrees(num_pages, avg_links, exponent, min_degree=1, rng=rng)
    total = int(degrees.sum())
    src = np.repeat(np.arange(num_pages, dtype=np.int64), degrees)
    local = rng.random(total) < intra_host_fraction
    src_host = host_of[src]
    dst = np.empty(total, dtype=np.int64)
    local_idx = np.where(local)[0]
    dst[local_idx] = starts[src_host[local_idx]] + rng.integers(
        0, sizes[src_host[local_idx]], dtype=np.int64
    )
    global_idx = np.where(~local)[0]
    # Global links are preferential: target popular pages (low raw ids after
    # a Zipf draw mapped through a permutation).
    zipf_target = np.minimum(
        num_pages - 1, np.floor(num_pages * rng.random(global_idx.size) ** 2.5).astype(np.int64)
    )
    dst[global_idx] = zipf_target
    perm = rng.permutation(num_pages)
    dst_p = perm[dst]
    self_pin = perm[np.arange(num_pages, dtype=np.int64)]
    q = np.concatenate([src, np.arange(num_pages, dtype=np.int64)])
    d = np.concatenate([dst_p, self_pin])
    # Query ids follow the *unpermuted* page index; pins are permuted ids.
    return BipartiteGraph.from_edges(
        q, d, num_queries=num_pages, num_data=num_pages, name=name
    ).remove_small_queries()


def planted_partition_bipartite(
    num_data: int,
    num_parts: int,
    queries_per_part: int,
    query_degree: int = 6,
    noise: float = 0.05,
    seed: int = 0,
    name: str = "planted",
) -> BipartiteGraph:
    """Graph with a planted optimal partition, for recovery tests.

    Every query draws its pins from a single part, except that each pin
    escapes to a uniform random data vertex with probability ``noise``.
    With ``noise = 0`` the planted partition has average fanout exactly 1.
    """
    rng = np.random.default_rng(seed)
    part_size = num_data // num_parts
    if part_size < query_degree:
        raise ValueError("parts too small for the requested query degree")
    num_queries = queries_per_part * num_parts
    homes = np.repeat(np.arange(num_parts, dtype=np.int64), queries_per_part)
    pins = homes[:, None] * part_size + rng.integers(
        0, part_size, size=(num_queries, query_degree), dtype=np.int64
    )
    escape = rng.random(pins.shape) < noise
    pins[escape] = rng.integers(0, part_size * num_parts, size=int(escape.sum()), dtype=np.int64)
    q = np.repeat(np.arange(num_queries, dtype=np.int64), query_degree)
    graph = BipartiteGraph.from_edges(
        q, pins.ravel(), num_queries=num_queries, num_data=num_data, name=name
    )
    return graph.remove_small_queries()


def random_bipartite(
    num_queries: int,
    num_data: int,
    num_edges: int,
    seed: int = 0,
    name: str = "random",
) -> BipartiteGraph:
    """Erdős–Rényi-style bipartite graph (no structure; worst case for SHP)."""
    rng = np.random.default_rng(seed)
    q = rng.integers(0, num_queries, size=num_edges, dtype=np.int64)
    d = rng.integers(0, num_data, size=num_edges, dtype=np.int64)
    return BipartiteGraph.from_edges(
        q, d, num_queries=num_queries, num_data=num_data, name=name
    ).remove_small_queries()


def figure2_graph() -> BipartiteGraph:
    """The Figure 2 instance: plain fanout is stuck, p-fanout is not.

    Eight data vertices (0..7) and three queries:
    ``q1 = {0, 1, 4, 5}``, ``q2 = {2, 3, 4, 5}``, ``q3 = {2, 3, 6, 7}``.
    Under the partition ``V1 = {0, 1, 2, 3}``, ``V2 = {4, 5, 6, 7}`` every
    query has fanout 2 and no single vertex move reduces plain fanout, yet
    swapping {2, 3} with {4, 5} drops q1 and q3 to fanout 1 (the optimum is
    total fanout 4, reachable only through moves that plain fanout scores as
    zero-gain).  Probabilistic fanout assigns these moves positive gain.
    """
    hyperedges = [[0, 1, 4, 5], [2, 3, 4, 5], [2, 3, 6, 7]]
    return BipartiteGraph.from_hyperedges(hyperedges, num_data=8, name="figure2")


def figure2_reference_partition() -> np.ndarray:
    """The stuck partition from Figure 2 (vertices 0-3 left, 4-7 right)."""
    return np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int32)
