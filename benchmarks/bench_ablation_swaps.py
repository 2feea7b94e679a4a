"""Ablation A1: swap-matching design choices (Section 3.4).

Compares the Algorithm-1 uniform matcher against the advanced histogram
matcher, with and without negative-gain bin pairing, and strict vs
bernoulli execution.  The histogram matcher's claimed advantages: it moves
the most important gains first and frees additional movement by pairing
positive with negative bins.
"""

from __future__ import annotations

import time

from conftest import bench_dataset

from repro import SHPConfig, SHPKPartitioner
from repro.bench import format_table
from repro.objectives import average_fanout, imbalance

VARIANTS = [
    ("histogram + negatives (default)", {"matcher": "histogram", "allow_negative_gains": True}),
    ("histogram, no negatives", {"matcher": "histogram", "allow_negative_gains": False}),
    ("uniform (Algorithm 1)", {"matcher": "uniform"}),
    ("histogram, bernoulli", {"matcher": "histogram", "swap_mode": "bernoulli"}),
]


def _run():
    graph = bench_dataset("email-Enron")
    rows = []
    for label, overrides in VARIANTS:
        config = SHPConfig(k=32, seed=23, **overrides)
        start = time.perf_counter()
        result = SHPKPartitioner(config).partition(graph)
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "variant": label,
                "fanout": round(average_fanout(graph, result.assignment, 32), 3),
                "imbalance": round(imbalance(result.assignment, 32), 4),
                "iterations": result.num_iterations,
                "sec": round(elapsed, 2),
            }
        )
    return rows


def test_ablation_swap_matching(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(rows, title="Ablation A1 — swap matcher variants (SHP-k, k=32)")
    print(f"\n{text}")

    by_label = {row["variant"]: row for row in rows}
    default = by_label["histogram + negatives (default)"]
    uniform = by_label["uniform (Algorithm 1)"]
    # The advanced matcher is at least as good as plain Algorithm 1.
    assert default["fanout"] <= uniform["fanout"] * 1.05
    # Strict variants respect ε exactly.
    for label in ("histogram + negatives (default)", "histogram, no negatives",
                  "uniform (Algorithm 1)"):
        assert by_label[label]["imbalance"] <= 0.05 + 1e-9
