"""Extension E3: traffic-weighted fanout optimization.

Production traffic is popularity-skewed, so average *per-request* fanout —
not per-query fanout — determines fleet latency.  Weighting queries by
sampled traffic frequency during optimization serves the hot queries
better at a tiny cost on the cold tail.
"""

from __future__ import annotations

import numpy as np

from repro import shp_2
from repro.bench import format_table
from repro.hypergraph import BipartiteGraph, community_bipartite
from repro.objectives import bucket_counts
from repro.workloads import zipf_weights

K = 16


def _run():
    base = community_bipartite(4000, 6000, 40000, num_communities=48, mixing=0.25, seed=43)
    traffic = zipf_weights(base.num_queries, exponent=1.4, seed=44) * base.num_queries
    weighted = BipartiteGraph(
        num_queries=base.num_queries,
        num_data=base.num_data,
        q_indptr=base.q_indptr,
        q_indices=base.q_indices,
        d_indptr=base.d_indptr,
        d_indices=base.d_indices,
        query_weights=traffic,
        name="weighted",
    )

    res_plain = shp_2(base, K, seed=5)
    res_weighted = shp_2(weighted, K, seed=5)

    def report(label, assignment):
        counts = bucket_counts(base, assignment, K)
        fanouts = (counts > 0).sum(axis=1).astype(np.float64)
        per_query = float(fanouts.mean())
        per_request = float((fanouts * traffic).sum() / traffic.sum())
        hot = np.argsort(-traffic)[: base.num_queries // 50]
        return {
            "optimization": label,
            "per-query fanout": round(per_query, 3),
            "per-request fanout": round(per_request, 3),
            "hot-2% fanout": round(float(fanouts[hot].mean()), 3),
        }

    return [
        report("unweighted", res_plain.assignment),
        report("traffic-weighted", res_weighted.assignment),
    ]


def test_ext_weighted_queries(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(
        rows, title=f"Extension E3 — traffic-weighted optimization (k={K}, Zipf traffic)"
    )
    print(f"\n{text}")

    plain, weighted = rows
    # Weighted optimization improves what production cares about: the fanout
    # of the traffic that actually arrives, especially its hot head...
    assert weighted["hot-2% fanout"] < plain["hot-2% fanout"]
    assert weighted["per-request fanout"] <= 1.02 * plain["per-request fanout"]
    # ...while the per-query average stays in the same ballpark.
    assert weighted["per-query fanout"] <= 1.3 * plain["per-query fanout"]
