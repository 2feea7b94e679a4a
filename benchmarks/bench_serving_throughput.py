"""Serving-layer throughput: batched traffic replay.

The serving simulator's affordability rests on the batched replay planner:
one flat gather + one sort + one vectorized lognormal pass for the whole
trace.  This bench replays a Zipf trace (100k queries at full scale) on a
Darwini-like friendship workload and reports replayed queries/sec,
asserting only that a repeated replay is bitwise-reproducible: its
counters are pinned to a per-query oracle by ``tests/test_serving.py``, and
with no slower path left there is no speedup floor.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import smoke_mode

from repro import shp_2
from repro.bench import format_table
from repro.hypergraph import darwini_bipartite
from repro.sharding import LatencyModel, replay_traffic
from repro.workloads import sample_queries

NUM_SERVERS = 40


def _throughput():
    num_users = 2000 if smoke_mode() else 8000
    num_queries = 5_000 if smoke_mode() else 100_000
    graph = darwini_bipartite(num_users, avg_degree=30, clustering=0.4, seed=31)
    trace = sample_queries(graph, num_queries, skew=0.8, seed=32)
    assignment = shp_2(graph, NUM_SERVERS, seed=33).assignment
    model = LatencyModel(base_ms=1.0, sigma=1.0, size_ms_per_record=0.02)

    start = time.perf_counter()
    first = replay_traffic(graph, assignment, NUM_SERVERS, trace, model, seed=34)
    elapsed = time.perf_counter() - start
    again = replay_traffic(graph, assignment, NUM_SERVERS, trace, model, seed=34)
    row = {
        "queries": num_queries,
        "sec": round(elapsed, 3),
        "queries/sec": int(num_queries / elapsed),
        "mean fanout": round(first.mean_fanout(), 3),
    }
    return row, first, again


def test_serving_throughput(benchmark):
    row, first, again = benchmark.pedantic(_throughput, rounds=1, iterations=1)
    text = format_table([row], title="traffic replay throughput (batched planner)")
    print(f"\n{text}")

    assert first.requests_total == again.requests_total
    assert np.array_equal(first.fanouts, again.fanouts)
    assert np.array_equal(first.latencies, again.latencies)
