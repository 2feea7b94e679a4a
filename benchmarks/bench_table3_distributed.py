"""Table 3: run-time of distributed partitioners on 4 machines.

Two layers (DESIGN.md Section 5):

1. **Live layer** — the real 4-superstep protocol executes on the simulated
   4-worker Giraph cluster for the scaled stand-ins, producing measured
   message/byte/memory metrics; the cost model converts them to modeled
   minutes and is re-calibratable from these runs.
2. **Paper-scale layer** — the resource model evaluates every (tool, graph,
   k) cell of Table 3 at the *published* sizes, reproducing the failure
   pattern: Zoltan OOMs beyond soc-LJ, Parkway only runs FB-50M, SHP-k
   times out for large k on the billion-edge graphs, and SHP-2 is the only
   tool that completes everywhere.
"""

from __future__ import annotations

from conftest import bench_dataset, smoke_mode

from repro import SHPConfig
from repro.bench import format_table
from repro.baselines import (
    GraphShape,
    estimate_parkway_like,
    estimate_shp,
    estimate_zoltan_like,
)
from repro.distributed import ClusterSpec, CostModel
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import DATASETS
from repro.objectives import average_fanout

TABLE3_DATASETS = ["soc-Pokec", "soc-LJ", "FB-50M", "FB-2B", "FB-5B", "FB-10B"]
K_VALUES = [32, 512, 8192]

#: Paper's published Table 3 cells (minutes; None = failed / > 10 h).
PAPER_MINUTES = {
    ("soc-Pokec", "SHP-2"): {32: 1.8, 512: 2.3, 8192: 4.5},
    ("soc-Pokec", "SHP-k"): {32: 2.6, 512: 8.8, 8192: 34.6},
    ("soc-Pokec", "Zoltan"): {32: 42.7, 512: 43.4, 8192: 42.6},
    ("soc-LJ", "SHP-2"): {32: 2.4, 512: 3.7, 8192: 6.6},
    ("FB-50M", "Parkway"): {32: 11.2, 512: 9.21},
    ("FB-2B", "SHP-2"): {32: 17.0, 512: 39.8, 8192: 55.6},
    ("FB-2B", "SHP-k"): {32: 128.0, 512: 479.0},
    ("FB-10B", "SHP-2"): {32: 90.6, 512: 202.0, 8192: 283.0},
    ("FB-10B", "SHP-k"): {32: 256.0},
}


def _live_runs():
    """Execute the real protocol on scaled graphs; report metering.

    Each graph runs on both backends: the simulator supplies the modeled
    cluster minutes, the multiprocess backend supplies genuinely parallel
    elapsed wall-clock — same seed, bit-identical assignment, so the fanout
    column is shared.
    """
    cost = CostModel()
    rows = []
    datasets = ("soc-Pokec",) if smoke_mode() else ("soc-Pokec", "FB-50M")
    for name in datasets:
        graph = bench_dataset(name)
        # Bench-scale distributed execution: small iteration budget per level.
        config = SHPConfig(
            k=32, seed=11, iterations_per_bisection=4, swap_mode="bernoulli"
        )
        cluster = ClusterSpec(num_workers=4)
        run = DistributedSHP(config, cluster=cluster, mode="2", backend="sim").run(graph)
        mp_run = DistributedSHP(config, cluster=cluster, mode="2", backend="mp").run(
            graph
        )
        rows.append(
            {
                "hypergraph": name,
                "|E| (scaled)": graph.num_edges,
                "supersteps": run.supersteps,
                "messages": run.metrics.total_messages,
                "remote MB": round(run.metrics.total_remote_bytes / 1e6, 1),
                "peak worker MB": round(run.metrics.peak_worker_memory() / 1e6, 1),
                "modeled min": round(run.metrics.modeled_seconds(cost) / 60, 2),
                "sim wall sec": round(run.metrics.wall_seconds, 1),
                "mp wall sec": round(mp_run.metrics.wall_seconds, 1),
                "fanout": round(average_fanout(graph, run.assignment, 32), 2),
                "fanout agrees": average_fanout(graph, mp_run.assignment, 32)
                == average_fanout(graph, run.assignment, 32),
            }
        )
    return rows


def _paper_scale_grid():
    cluster = ClusterSpec(num_workers=4)
    rows = []
    for name in TABLE3_DATASETS:
        spec = DATASETS[name]
        shape = GraphShape(
            name=name,
            num_queries=spec.paper_q,
            num_data=spec.paper_d,
            num_edges=spec.paper_e,
            family=spec.family,
        )
        for k in K_VALUES:
            row = {"hypergraph": name, "k": k}
            row["SHP-2"] = estimate_shp(shape, k, cluster, mode="2").display
            row["SHP-k"] = estimate_shp(shape, k, cluster, mode="k").display
            row["Zoltan~"] = estimate_zoltan_like(shape, k, cluster).display
            row["Parkway~"] = estimate_parkway_like(shape, k, cluster).display
            for tool in ("SHP-2", "SHP-k", "Zoltan", "Parkway"):
                paper = PAPER_MINUTES.get((name, tool), {}).get(k)
                if paper is not None:
                    row[f"paper {tool}"] = paper
            rows.append(row)
    return rows


def test_table3_distributed_runtimes(benchmark):
    live = benchmark.pedantic(_live_runs, rounds=1, iterations=1)
    modeled = _paper_scale_grid()
    text = format_table(
        live, title="Table 3 (live layer) — metered 4-worker protocol runs"
    )
    text += "\n" + format_table(
        modeled,
        title="Table 3 (paper scale) — modeled minutes on 4×144GB, 10h budget",
    )
    print(f"\n{text}")

    # Backend parity on the live layer: the multiprocess run must land on
    # exactly the same partition as the simulator (same seed).
    assert all(row["fanout agrees"] for row in live)

    # Failure-pattern assertions (the paper's headline result).
    cells = {(r["hypergraph"], r["k"]): r for r in modeled}
    for name in TABLE3_DATASETS:
        for k in K_VALUES:
            assert cells[(name, k)]["SHP-2"] not in ("OOM", "TIMEOUT"), (name, k)
    assert cells[("FB-2B", 32)]["Zoltan~"] == "OOM"
    assert cells[("soc-LJ", 32)]["Parkway~"] == "OOM"
    assert cells[("FB-50M", 32)]["Parkway~"] not in ("OOM", "TIMEOUT")
    assert cells[("FB-10B", 8192)]["SHP-k"] == "TIMEOUT"
