"""Figure 6: fanout reduction as a function of the fanout probability p.

SHP-2 on the soc-Pokec stand-in across p ∈ (0, 1] and several bucket
counts, reporting the percentage fanout reduction relative to a random
partition.  The paper's finding: values 0.4 ≤ p ≤ 0.8 produce the lowest
fanout, p = 0.5 is a good default, and p = 1 (direct fanout optimization)
is clearly worse.
"""

from __future__ import annotations

from conftest import bench_dataset, smoke_mode

from repro import shp_2
from repro.bench import format_series
from repro.baselines import random_partitioner
from repro.objectives import average_fanout

P_VALUES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
K_VALUES = [2, 8, 32, 128]


def _sweep():
    graph = bench_dataset("soc-Pokec")
    reductions: dict[int, list[float]] = {}
    for k in K_VALUES:
        random_fanout = average_fanout(
            graph, random_partitioner(graph, k, seed=3).assignment, k
        )
        series = []
        for p in P_VALUES:
            if p >= 1.0:
                result = shp_2(graph, k, seed=3, objective="fanout")
            else:
                result = shp_2(graph, k, seed=3, p=p)
            fanout = average_fanout(graph, result.assignment, k)
            series.append(round(100.0 * (fanout / random_fanout - 1.0), 1))
        reductions[k] = series
    return reductions


def test_fig6_probability_sweep(benchmark):
    reductions = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    text = format_series(
        "p",
        P_VALUES,
        {f"k={k} (% vs random)": values for k, values in reductions.items()},
        title="Figure 6 — fanout reduction vs fanout probability p (soc-Pokec stand-in)",
    )
    print(f"\n{text}")

    for k, series in reductions.items():
        # All reductions negative (better than random) at any scale.
        assert all(v < 0 for v in series), (k, series)
    if smoke_mode():
        return  # shape claims below need bench-scale graphs
    for k, series in reductions.items():
        by_p = dict(zip(P_VALUES, series))
        # The mid-range (0.4-0.8) contains a value at least as good as p=1
        # (paper: direct fanout optimization is worse than p≈0.5).
        mid_best = min(by_p[p] for p in (0.4, 0.5, 0.6, 0.7, 0.8))
        assert mid_best <= by_p[1.0] + 1e-9, (k, series)
    # At k=8 the p=1 run is strictly worse than the best mid-range p.
    k8 = dict(zip(P_VALUES, reductions[8]))
    assert min(k8[p] for p in (0.4, 0.5, 0.6)) < k8[1.0]
