"""Extension E1: incremental repartitioning (Section 5, requirement (i)).

After the graph evolves, re-optimizing from scratch moves most records;
warm-starting from the previous partition with a move penalty trades a
little fanout for dramatically lower migration churn.
"""

from __future__ import annotations

import numpy as np

from repro import SHPConfig, incremental_update, shp_2
from repro.bench import format_table
from repro.hypergraph import BipartiteGraph, community_bipartite
from repro.objectives import average_fanout

PENALTIES = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5]
K = 16


def _evolved_pair():
    base = community_bipartite(3000, 4500, 30000, num_communities=48, mixing=0.2, seed=31)
    overlay = community_bipartite(300, 4500, 3000, mixing=0.5, seed=77)
    q = np.concatenate([base.q_of_edge, overlay.q_of_edge + base.num_queries])
    d = np.concatenate([base.q_indices, overlay.q_indices])
    evolved = BipartiteGraph.from_edges(
        q, d, num_queries=base.num_queries + overlay.num_queries,
        num_data=4500, dedupe=False, name="evolved",
    )
    return base, evolved


def _run():
    base, evolved = _evolved_pair()
    previous = shp_2(base, K, seed=1).assignment
    stale_fanout = average_fanout(evolved, previous, K)

    rows = [
        {
            "move_penalty": "(keep stale)",
            "churn %": 0.0,
            "fanout": round(stale_fanout, 3),
        }
    ]
    for penalty in PENALTIES:
        outcome = incremental_update(
            evolved, previous,
            SHPConfig(k=K, seed=2, max_iterations=20, move_penalty=penalty),
        )
        rows.append(
            {
                "move_penalty": penalty,
                "churn %": round(100 * outcome.churn, 1),
                "fanout": round(average_fanout(evolved, outcome.result.assignment, K), 3),
            }
        )
    return rows, stale_fanout


def test_ext_incremental(benchmark):
    rows, stale_fanout = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(
        rows, title=f"Extension E1 — incremental update, churn vs fanout (k={K})"
    )
    print(f"\n{text}")

    penalized = [r for r in rows if isinstance(r["move_penalty"], float)]
    churn = [r["churn %"] for r in penalized]
    fanouts = [r["fanout"] for r in penalized]
    # Churn decreases monotonically (within noise) as the penalty grows.
    assert churn[-1] < churn[0]
    # Every incremental run improves on the stale partition.
    assert all(f <= stale_fanout + 1e-9 for f in fanouts)
    # Moderate penalties keep most of the quality at a fraction of the churn.
    free = penalized[0]
    moderate = next(r for r in penalized if r["move_penalty"] == 0.1)
    assert moderate["churn %"] < 0.8 * free["churn %"]
