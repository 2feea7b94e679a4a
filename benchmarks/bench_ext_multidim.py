"""Extension E2: multi-dimensional balance (Section 5, requirement (ii)).

The paper's heuristic: partition into c·k buckets balancing one dimension,
then merge into k groups balancing all dimensions.  Sweeping c shows the
trade: larger c gives the merge more freedom (better multi-dim balance)
at slightly higher fanout (finer buckets constrain locality less well).
"""

from __future__ import annotations

import numpy as np

from repro import SHPConfig, partition_multidim, shp_2
from repro.bench import format_table
from repro.hypergraph import community_bipartite
from repro.objectives import average_fanout

K = 8
C_VALUES = [1, 2, 4, 8]


def _run():
    graph = community_bipartite(2500, 4000, 25000, num_communities=32, mixing=0.2, seed=37)
    rng = np.random.default_rng(41)
    weights = np.stack(
        [
            np.ones(graph.num_data),  # primary: record count
            rng.exponential(1.0, graph.num_data),  # CPU cost
            rng.lognormal(0.0, 0.7, graph.num_data),  # storage bytes
        ],
        axis=1,
    )

    # Reference: plain SHP-2 ignores the secondary dimensions entirely.
    plain = shp_2(graph, K, seed=3)
    loads = np.stack(
        [np.bincount(plain.assignment, weights=weights[:, d], minlength=K) for d in range(3)]
    )
    plain_imb = (loads.max(axis=1) / loads.mean(axis=1) - 1.0).max()
    rows = [
        {
            "c": "(plain SHP-2)",
            "fanout": round(average_fanout(graph, plain.assignment, K), 3),
            "worst dim imbalance": round(float(plain_imb), 3),
        }
    ]

    for c in C_VALUES:
        outcome = partition_multidim(
            graph, weights, k=K, c=c,
            config=SHPConfig(k=max(2, c * K), seed=3, iterations_per_bisection=10),
        )
        rows.append(
            {
                "c": c,
                "fanout": round(average_fanout(graph, outcome.result.assignment, K), 3),
                "worst dim imbalance": round(float(outcome.dimension_imbalance.max()), 3),
            }
        )
    return rows


def test_ext_multidim(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(
        rows, title=f"Extension E2 — multi-dimensional balance via c·k merge (k={K})"
    )
    print(f"\n{text}")

    plain = rows[0]
    merged = {row["c"]: row for row in rows[1:]}
    # c >= 4 merges balance every dimension far better than plain SHP-2.
    assert merged[4]["worst dim imbalance"] < 0.6 * plain["worst dim imbalance"]
    # The fanout cost of the merge stays moderate.
    assert merged[4]["fanout"] < 1.6 * plain["fanout"]
    # More freedom (larger c) does not hurt balance.
    assert merged[8]["worst dim imbalance"] <= merged[1]["worst dim imbalance"] + 1e-9
