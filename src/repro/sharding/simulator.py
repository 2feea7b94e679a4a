"""Traffic replay over a sharded store: fanout and latency per query.

Reproduces the paper's realistic experiment (Fig. 4b): shard a friendship
graph's records over servers with some partitioner, replay a sampled
traffic pattern of multi-get queries, and record each query's fanout and
latency.  Aggregations by fanout produce the percentile-vs-fanout curves;
summary statistics give the random-vs-SHP sharding comparison ("2x lower
average latency", §4.2.1).

The replay is one vectorized pass over the whole trace: gather every
sampled query's neighbor list into one flat (query, server) array, group it
with a single sort + segmented reduction
(:meth:`ShardedKVStore.plan_multiget_batch`), and draw all per-request
latencies in one lognormal pass (:meth:`LatencyModel.multiget_batch`).
``tests/test_serving.py`` pins its fanout / request / record counters
bitwise to a per-query oracle (``tests/oracles/replay_loop.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..hypergraph.bipartite import BipartiteGraph
from .latency import LatencyModel
from .store import ShardedKVStore

__all__ = ["ReplayResult", "replay_traffic", "latency_by_fanout"]


class ReplayResult:
    """All samples from one traffic replay plus store-side load counters.

    Struct-of-arrays: ``fanouts`` / ``latencies`` / ``records`` are parallel
    arrays with one entry per replayed (non-empty) query, in trace order.
    """

    def __init__(
        self,
        fanouts: np.ndarray | Sequence[int] = (),
        latencies: np.ndarray | Sequence[float] = (),
        records: np.ndarray | Sequence[int] = (),
        requests_total: int = 0,
        records_total: int = 0,
    ):
        self.fanouts = np.asarray(fanouts, dtype=np.int64)
        self.latencies = np.asarray(latencies, dtype=np.float64)
        self.records = np.asarray(records, dtype=np.int64)
        self.requests_total = requests_total
        self.records_total = records_total

    @property
    def num_samples(self) -> int:
        return int(self.fanouts.size)

    def mean_fanout(self) -> float:
        return float(self.fanouts.mean()) if self.fanouts.size else 0.0

    def mean_latency(self) -> float:
        return float(self.latencies.mean()) if self.latencies.size else 0.0

    def latency_percentile(self, p: float) -> float:
        return float(np.percentile(self.latencies, p)) if self.latencies.size else 0.0

    def cpu_proxy(self, ms_per_request: float = 0.05, ms_per_record: float = 0.002) -> float:
        """Storage-tier CPU model: fixed cost per request + per record.

        Lower fanout means fewer requests for the same records, which is
        the mechanism behind the paper's observed CPU reduction.
        """
        return ms_per_request * self.requests_total + ms_per_record * self.records_total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ReplayResult(n={self.num_samples}, requests={self.requests_total}, "
            f"records={self.records_total})"
        )


def replay_traffic(
    graph: BipartiteGraph,
    assignment: np.ndarray,
    num_servers: int,
    query_ids: np.ndarray,
    latency_model: LatencyModel | None = None,
    seed: int = 0,
) -> ReplayResult:
    """Replay ``query_ids`` as multi-gets against the sharded store.

    Raises ``ValueError`` naming the offending value when a query id is
    outside ``[0, num_queries)`` (a negative id would otherwise wrap around
    and replay a different query) or ``assignment`` does not have one entry
    per data record.
    """
    queries = np.asarray(query_ids, dtype=np.int64)
    if len(assignment) != graph.num_data:
        raise ValueError(
            f"assignment has {len(assignment)} entries, expected "
            f"num_data = {graph.num_data}"
        )
    bad = queries[(queries < 0) | (queries >= graph.num_queries)]
    if bad.size:
        raise ValueError(
            f"query id {int(bad[0])} is outside [0, {graph.num_queries})"
        )
    model = latency_model or LatencyModel()
    rng = np.random.default_rng(seed)
    store = ShardedKVStore(num_servers=num_servers, assignment=assignment)
    # One flat gather + one sort + one lognormal pass for the whole trace.
    degrees = graph.q_indptr[queries + 1] - graph.q_indptr[queries]
    keep = degrees > 0  # empty queries produce no requests
    queries = queries[keep]
    degrees = degrees[keep].astype(np.int64)
    num_queries = int(queries.size)
    if num_queries == 0:
        return ReplayResult()
    # Flat gather: entry t of the batch is neighbor (t - offsets[slot]) of
    # its query slot, located at q_indptr[query] + that local index.
    offsets = np.concatenate(([0], np.cumsum(degrees)))
    flat = (
        np.arange(offsets[-1], dtype=np.int64)
        - np.repeat(offsets[:-1], degrees)
        + np.repeat(graph.q_indptr[queries], degrees)
    )
    keys = graph.q_indices[flat]
    slot_of_key = np.repeat(np.arange(num_queries, dtype=np.int64), degrees)
    req_query, _, req_records = store.plan_multiget_batch(keys, slot_of_key)
    # Requests arrive grouped by slot; segment boundaries give per-query fanout.
    first = np.ones(req_query.size, dtype=bool)
    first[1:] = req_query[1:] != req_query[:-1]
    request_starts = np.flatnonzero(first)
    fanouts = np.diff(np.concatenate((request_starts, [req_query.size])))
    latencies = model.multiget_batch(rng, req_records, request_starts)
    return ReplayResult(
        fanouts=fanouts,
        latencies=latencies,
        records=degrees,
        requests_total=int(store.requests_per_server.sum()),
        records_total=int(store.records_per_server.sum()),
    )


def latency_by_fanout(
    result: ReplayResult,
    percentiles: tuple[float, ...] = (50.0, 90.0, 95.0, 99.0),
    max_fanout: int | None = None,
    min_samples: int = 20,
) -> dict[int, dict[float, float]]:
    """Percentile latency per observed fanout value (the Fig. 4b curves).

    Fanouts with fewer than ``min_samples`` observations are dropped, as
    the paper drops fanout > 35 ("there are very few such queries").
    """
    fanouts = result.fanouts
    latencies = result.latencies
    out: dict[int, dict[float, float]] = {}
    for fanout in np.unique(fanouts).tolist():
        if max_fanout is not None and fanout > max_fanout:
            continue
        mask = fanouts == fanout
        if int(mask.sum()) < min_samples:
            continue
        out[int(fanout)] = {
            p: float(np.percentile(latencies[mask], p)) for p in percentiles
        }
    return out
