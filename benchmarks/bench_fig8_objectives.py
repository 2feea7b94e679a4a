"""Figure 8: objective comparison — p = 0.5 vs direct fanout vs clique-net.

SHP-2 for k ∈ {2, 8, 32} on six hypergraphs:

* **8a** — % fanout increase when optimizing plain fanout (p = 1) instead
  of p-fanout(0.5): the paper reports ~45 % average degradation.
* **8b** — % fanout increase when optimizing the clique-net objective
  (the p → 0 limit) instead: "often worse, but typically similar".
"""

from __future__ import annotations

import numpy as np
from conftest import bench_dataset, smoke_mode

from repro import shp_2
from repro.bench import format_table
from repro.objectives import average_fanout

DATASETS = [
    "email-Enron", "soc-Epinions", "web-Stanford", "web-BerkStan",
    "soc-Pokec", "soc-LJ",
]
K_VALUES = [2, 8, 32]


def _grid():
    rows = []
    for name in DATASETS:
        graph = bench_dataset(name)
        for k in K_VALUES:
            base = average_fanout(graph, shp_2(graph, k, seed=19, p=0.5).assignment, k)
            direct = average_fanout(
                graph, shp_2(graph, k, seed=19, objective="fanout").assignment, k
            )
            cliquenet = average_fanout(
                graph, shp_2(graph, k, seed=19, objective="cliquenet").assignment, k
            )
            rows.append(
                {
                    "hypergraph": name,
                    "k": k,
                    "fanout @p=0.5": round(base, 3),
                    "fanout @p=1": round(direct, 3),
                    "fanout @cliquenet": round(cliquenet, 3),
                    "8a: p=1 +%": round(100 * (direct / base - 1), 1),
                    "8b: cliquenet +%": round(100 * (cliquenet / base - 1), 1),
                }
            )
    return rows


def test_fig8_objectives(benchmark):
    rows = benchmark.pedantic(_grid, rounds=1, iterations=1)
    text = format_table(
        rows,
        title="Figure 8 — objective ablation with SHP-2 (paper: p=1 ≈ +45% avg, clique-net smaller)",
    )
    print(f"\n{text}")

    direct_penalty = np.array([row["8a: p=1 +%"] for row in rows])
    clique_penalty = np.array([row["8b: cliquenet +%"] for row in rows])
    if smoke_mode():
        return  # penalty magnitudes below need bench-scale graphs
    # 8a: direct fanout optimization is worse on average, often much worse.
    assert direct_penalty.mean() > 5.0
    assert direct_penalty.max() > 20.0
    # 8b: "clique-net optimization is often worse, but typically similar,
    # depending on the graph" — worse on average, never catastrophic, and
    # better than p=0.5 on some graphs (which is why the paper suggests
    # trying both surrogates).
    assert clique_penalty.mean() > 0.0
    assert clique_penalty.max() < 60.0
    assert clique_penalty.min() < 0.0
