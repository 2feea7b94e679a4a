"""Table 2: fanout quality of SHP vs the multi-level partitioner family.

The paper compares SHP-2 and SHP-k against Mondriaan, Parkway, and Zoltan
for k ∈ {2, 8, 32, 128, 512} on eight hypergraphs and reports (left) the
percentage increase over the best fanout achieved by any tool and (right)
the raw fanout values.  We reproduce both grids with our implementations of
the same algorithm families (closed binaries are unavailable; DESIGN.md §5).

The shape to reproduce (paper Section 4.2.2):

* no partitioner wins everywhere;
* SHP is competitive on social/FB graphs, weaker (10-30 % over the best)
  on web graphs, where the multi-level tools' coarsening excels;
* SHP-2 is typically a few percent behind SHP-k (the scalability trade).
"""

from __future__ import annotations

import time

from conftest import bench_dataset

from repro.bench import format_table
from repro.baselines import get_partitioner
from repro.objectives import average_fanout

DATASETS = [
    "email-Enron",
    "soc-Epinions",
    "web-Stanford",
    "web-BerkStan",
    "soc-Pokec",
    "soc-LJ",
    "FB-10M",
    "FB-50M",
]
K_VALUES = [2, 8, 32, 128, 512]
#: the multi-level styles get the full grid up to k = 32; larger k keeps the
#: bench in the minutes range with SHP plus the strongest multilevel only.
ALGOS_SMALL_K = ["shp-k", "shp-2", "mondriaan-like", "zoltan-like", "parkway-like"]
ALGOS_LARGE_K = ["shp-k", "shp-2", "mondriaan-like"]

#: Table 2 (right), paper's raw fanout values, for side-by-side reporting.
PAPER_FANOUT = {
    ("email-Enron", 2): {"SHP-k": 1.15, "SHP-2": 1.13, "Mondriaan": 1.11, "Zoltan": 1.19},
    ("email-Enron", 8): {"SHP-k": 1.7, "SHP-2": 1.78, "Mondriaan": 1.62, "Zoltan": 1.7},
    ("email-Enron", 32): {"SHP-k": 2.32, "SHP-2": 2.54, "Mondriaan": 2.39, "Zoltan": 2.40},
    ("web-Stanford", 32): {"SHP-k": 1.30, "SHP-2": 1.40, "Mondriaan": 1.13, "Zoltan": 1.14},
    ("soc-Pokec", 32): {"SHP-k": 4.07, "SHP-2": 4.27, "Mondriaan": 4.08, "Zoltan": 4.06},
    ("FB-10M", 32): {"SHP-k": 21.81, "SHP-2": 21.62, "Mondriaan": 23.25, "Zoltan": 23.12},
}


def _run_grid():
    raw_rows = []
    for dataset_name in DATASETS:
        graph = bench_dataset(dataset_name)
        for k in K_VALUES:
            if k >= graph.num_data // 4:
                continue
            algos = ALGOS_SMALL_K if k <= 32 else ALGOS_LARGE_K
            fanouts: dict[str, float] = {}
            runtimes: dict[str, float] = {}
            for algo in algos:
                start = time.perf_counter()
                result = get_partitioner(algo)(graph, k=k, epsilon=0.05, seed=17)
                runtimes[algo] = time.perf_counter() - start
                fanouts[algo] = average_fanout(graph, result.assignment, k)
            best = min(fanouts.values())
            row = {"hypergraph": dataset_name, "k": k}
            for algo in algos:
                row[algo] = round(fanouts[algo], 3)
            for algo in algos:
                row[f"{algo} +%"] = round(100 * (fanouts[algo] / best - 1), 1)
            row["sec"] = round(sum(runtimes.values()), 1)
            raw_rows.append(row)
    return raw_rows


def test_table2_quality_grid(benchmark):
    rows = benchmark.pedantic(_run_grid, rounds=1, iterations=1)
    fanout_cols = ["hypergraph", "k"] + ALGOS_SMALL_K + ["sec"]
    rel_cols = ["hypergraph", "k"] + [f"{a} +%" for a in ALGOS_SMALL_K]
    text = format_table(rows, title="Table 2 (right) — raw fanout", columns=fanout_cols)
    text += "\n" + format_table(
        rows, title="Table 2 (left) — % increase over best", columns=rel_cols
    )
    paper_rows = [
        {"hypergraph": key[0], "k": key[1], **values}
        for key, values in PAPER_FANOUT.items()
    ]
    text += "\n" + format_table(
        paper_rows, title="Paper reference values (published scale)"
    )
    print(f"\n{text}")

    # Shape assertions from Section 4.2.2.
    shp2_gap = [row["shp-2 +%"] for row in rows]
    assert max(shp2_gap) < 60.0  # SHP-2 never catastrophically behind
    shp_better_cells = sum(
        1 for row in rows if min(row["shp-2 +%"], row["shp-k +%"]) <= 5.0
    )
    assert shp_better_cells >= len(rows) // 3  # competitive on a large share
