"""Figure 2: the local-minimum example motivating probabilistic fanout.

Regenerates the paper's narrative as a table: under plain fanout every
single-vertex move has non-positive gain (local search is stuck at total
fanout 6), while p-fanout assigns positive gains and SHP escapes to the
optimum (total fanout 4).
"""

from __future__ import annotations


from repro import SHPConfig, SHPKPartitioner
from repro.bench import format_table
from repro.core import move_gains_dense
from repro.hypergraph import figure2_graph, figure2_reference_partition
from repro.objectives import (
    FanoutObjective,
    PFanoutObjective,
    average_fanout,
    bucket_counts,
)


def _run():
    graph = figure2_graph()
    stuck = figure2_reference_partition()
    counts = bucket_counts(graph, stuck, 2)
    gain_rows = []
    fan_gains = move_gains_dense(graph, stuck, counts, FanoutObjective())
    for p in (0.25, 0.5, 0.75):
        pf_gains = move_gains_dense(graph, stuck, counts, PFanoutObjective(p))
        gain_rows.append(
            {
                "objective": f"p-fanout(p={p})",
                "max move gain": round(float(pf_gains.max()), 4),
                "improving moves": int((pf_gains > 1e-12).sum()),
            }
        )
    gain_rows.insert(
        0,
        {
            "objective": "fanout (p=1)",
            "max move gain": float(fan_gains.max()),
            "improving moves": int((fan_gains > 0).sum()),
        },
    )

    config = SHPConfig(
        k=2, p=0.5, seed=3, max_iterations=50, move_damping=0.5,
        convergence_fraction=0.0,
    )
    escaped = SHPKPartitioner(config).partition(graph, initial=stuck)
    summary = {
        "stuck total fanout": average_fanout(graph, stuck, 2) * graph.num_queries,
        "after SHP(p=0.5)": average_fanout(graph, escaped.assignment, 2)
        * graph.num_queries,
        "optimum": 4.0,
    }
    return gain_rows, summary


def test_fig2_local_minimum(benchmark):
    gain_rows, summary = benchmark.pedantic(_run, rounds=1, iterations=1)
    text = format_table(gain_rows, title="Figure 2 — move gains in the stuck state")
    text += "\n" + format_table([summary], title="Escape with SHP (p = 0.5)")
    print(f"\n{text}")
    assert gain_rows[0]["improving moves"] == 0
    assert all(row["improving moves"] > 0 for row in gain_rows[1:])
    assert summary["after SHP(p=0.5)"] == 4.0
