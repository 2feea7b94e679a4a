"""Ablation A2: the recursive-bisection refinements of Section 3.4.

Toggles the ε schedule and the final-p-fanout approximation on SHP-2, and
reports the SHP-2 vs SHP-k quality/time trade the paper quantifies as
"typically, but not always, 5-10 % larger fanout" for SHP-2.
"""

from __future__ import annotations

import time

from conftest import bench_dataset

from repro import SHPConfig, SHP2Partitioner, SHPKPartitioner
from repro.bench import format_table
from repro.objectives import average_fanout, imbalance

K = 32


def _run():
    graph = bench_dataset("soc-Epinions")
    rows = []

    variants = [
        ("SHP-2 full (default)", {"epsilon_schedule": True, "use_final_pfanout": True}),
        ("SHP-2 no ε schedule", {"epsilon_schedule": False, "use_final_pfanout": True}),
        ("SHP-2 no final-p-fanout", {"epsilon_schedule": True, "use_final_pfanout": False}),
        ("SHP-2 neither", {"epsilon_schedule": False, "use_final_pfanout": False}),
    ]
    for label, overrides in variants:
        config = SHPConfig(k=K, seed=29, **overrides)
        start = time.perf_counter()
        result = SHP2Partitioner(config).partition(graph)
        rows.append(
            {
                "variant": label,
                "fanout": round(average_fanout(graph, result.assignment, K), 3),
                "imbalance": round(imbalance(result.assignment, K), 4),
                "sec": round(time.perf_counter() - start, 2),
            }
        )

    start = time.perf_counter()
    shp_k_result = SHPKPartitioner(SHPConfig(k=K, seed=29)).partition(graph)
    rows.append(
        {
            "variant": "SHP-k (reference)",
            "fanout": round(average_fanout(graph, shp_k_result.assignment, K), 3),
            "imbalance": round(imbalance(shp_k_result.assignment, K), 4),
            "sec": round(time.perf_counter() - start, 2),
        }
    )
    return rows


def test_ablation_recursion(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(rows, title=f"Ablation A2 — SHP-2 refinements (k={K})")
    print(f"\n{text}")

    by_label = {row["variant"]: row for row in rows}
    # The ε schedule keeps the final imbalance within ε.
    assert by_label["SHP-2 full (default)"]["imbalance"] <= 0.05 + 1e-9
    # SHP-2 quality within the paper's band of SHP-k (allowing bench noise).
    ratio = by_label["SHP-2 full (default)"]["fanout"] / by_label["SHP-k (reference)"]["fanout"]
    assert ratio < 1.30
