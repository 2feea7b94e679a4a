"""Per-query traffic replay (``replay_traffic(method="loop")`` until PR 14).

One multi-get at a time, with the scalar planner and latency draw the
batched engine (:func:`repro.sharding.replay_traffic`) replaced.  The
batched path must produce bitwise-identical fanout / request / record
counters; only the latency *draws* differ (same distribution, different
RNG consumption order).
"""

from __future__ import annotations

import numpy as np

from repro.sharding import LatencyModel, ReplayResult, ShardedKVStore

__all__ = ["plan_multiget", "multiget_latency", "replay_traffic_loop"]


def plan_multiget(store: ShardedKVStore, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group one multi-get: returns (servers_hit, records_per_server).

    Also advances the per-server load counters (one request per server
    hit, plus the record counts), modeling the storage tier's work.
    """
    servers = store.server_of(keys)
    hit, counts = np.unique(servers, return_counts=True)
    store.requests_per_server[hit] += 1
    store.records_per_server[hit] += counts
    return hit, counts


def multiget_latency(
    model: LatencyModel, rng: np.random.Generator, records_per_server: np.ndarray
) -> float:
    """Latency of one multi-get: the slowest of its parallel requests."""
    if records_per_server.size == 0:
        return 0.0
    return float(model.draw(rng, records_per_server).max())


def replay_traffic_loop(
    graph, assignment, num_servers, query_ids, latency_model=None, seed=0
) -> ReplayResult:
    """``replay_traffic`` one query at a time: same signature, same result type."""
    model = latency_model or LatencyModel()
    rng = np.random.default_rng(seed)
    store = ShardedKVStore(num_servers=num_servers, assignment=assignment)
    fanouts: list[int] = []
    latencies: list[float] = []
    records: list[int] = []
    for q in np.asarray(query_ids, dtype=np.int64).tolist():
        keys = graph.query_neighbors(q)
        if keys.size == 0:
            continue
        _, counts = plan_multiget(store, keys)
        fanouts.append(int(counts.size))
        latencies.append(multiget_latency(model, rng, counts))
        records.append(int(keys.size))
    return ReplayResult(
        fanouts=np.array(fanouts, dtype=np.int64),
        latencies=np.array(latencies, dtype=np.float64),
        records=np.array(records, dtype=np.int64),
        requests_total=int(store.requests_per_server.sum()),
        records_total=int(store.records_per_server.sum()),
    )
