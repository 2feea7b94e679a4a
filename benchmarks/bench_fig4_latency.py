"""Figure 4: multi-get latency as a function of fanout.

* **4a (synthetic)** — percentile latency of issuing ``fanout`` parallel
  trivial requests, in units of the mean single-request latency ``t``:
  the max of heavy-tailed draws grows with fanout, and reducing fanout
  40 → 10 roughly halves the average latency.
* **4b (realistic)** — a Darwini-like friendship graph sharded over 40
  servers with SHP; a Zipf traffic sample is replayed against the KV store
  with the request-size latency term enabled.  Reported: latency-vs-fanout
  percentile curves (as in the figure) plus the random-vs-SHP comparison
  behind the paper's "2x lower average latency" and CPU observations.
"""

from __future__ import annotations

import numpy as np

from repro import shp_2
from repro.bench import format_series, format_table
from repro.baselines import random_partitioner
from repro.hypergraph import darwini_bipartite
from repro.sharding import LatencyModel, latency_by_fanout, percentile_curve, replay_traffic
from repro.workloads import sample_queries

FANOUTS = np.array([1, 5, 10, 15, 20, 25, 30, 35, 40])
NUM_SERVERS = 40


def _fig4a():
    model = LatencyModel(base_ms=1.0, sigma=1.0)
    curve = percentile_curve(model, FANOUTS, trials=6000, seed=21)
    return {
        f"p{int(p)}": [round(v, 2) for v in values] for p, values in curve.items()
    }


def _fig4b():
    graph = darwini_bipartite(6000, avg_degree=40, clustering=0.4, seed=13)
    trace = sample_queries(graph, 4000, skew=0.8, seed=14)
    model = LatencyModel(base_ms=1.0, sigma=1.0, size_ms_per_record=0.02)

    shp = shp_2(graph, NUM_SERVERS, seed=15)
    rnd = random_partitioner(graph, NUM_SERVERS, seed=15)
    replay_shp = replay_traffic(graph, shp.assignment, NUM_SERVERS, trace, model, seed=16)
    replay_rnd = replay_traffic(graph, rnd.assignment, NUM_SERVERS, trace, model, seed=16)

    comparison = []
    for label, replay in (("random", replay_rnd), ("SHP", replay_shp)):
        comparison.append(
            {
                "sharding": label,
                "mean fanout": round(replay.mean_fanout(), 1),
                "mean latency (t)": round(replay.mean_latency(), 2),
                "p99 latency (t)": round(replay.latency_percentile(99), 2),
                "CPU proxy": round(replay.cpu_proxy(), 0),
            }
        )
    curves = latency_by_fanout(replay_shp, max_fanout=35, min_samples=15)
    curve_rows = [
        {"fanout": fanout, **{f"p{int(p)}": round(v, 2) for p, v in percentiles.items()}}
        for fanout, percentiles in sorted(curves.items())
    ]
    return comparison, curve_rows, replay_rnd, replay_shp


def test_fig4_latency(benchmark):
    comparison, curve_rows, replay_rnd, replay_shp = benchmark.pedantic(
        _fig4b, rounds=1, iterations=1
    )
    synthetic = _fig4a()
    text = format_series(
        "fanout",
        FANOUTS.tolist(),
        synthetic,
        title="Figure 4a — synthetic multi-get latency percentiles (units of t)",
    )
    text += "\n" + format_table(
        curve_rows, title="Figure 4b — replayed traffic: latency by fanout (SHP sharding)"
    )
    text += "\n" + format_table(
        comparison, title="Random vs SHP sharding on 40 servers (paper: ~2x latency, CPU drop)"
    )
    print(f"\n{text}")

    # Shape assertions.
    p99 = synthetic["p99"]
    p50 = synthetic["p50"]
    assert p99[-1] > p99[0]  # tail grows with fanout
    assert all(a <= b for a, b in zip(p50, p99))
    # Latency at fanout 40 is roughly double fanout 10 (paper's "almost half").
    idx10, idx40 = list(FANOUTS).index(10), list(FANOUTS).index(40)
    assert 1.3 < p50[idx40] / p50[idx10] < 3.0
    # SHP sharding cuts fanout, latency and CPU vs random.
    rnd_row, shp_row = comparison
    assert shp_row["mean fanout"] < 0.5 * rnd_row["mean fanout"]
    assert shp_row["mean latency (t)"] < rnd_row["mean latency (t)"]
    assert shp_row["CPU proxy"] < rnd_row["CPU proxy"]
