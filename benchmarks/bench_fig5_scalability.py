"""Figure 5: SHP-2 scalability in the distributed setting.

* **5a** — total time (runtime × machines) as a function of |E| for
  k ∈ {2, 32, 512, 8192, 131072}: the paper's log-scale plot is straight
  lines, i.e. total time ∝ |E| · log k.  We verify both proportionalities
  on the modeled paper-scale numbers *and* measure the |E| scaling live by
  metering protocol messages on growing stand-ins.
* **5b** — run-time and total time on FB-10B with 4, 8, 16 machines:
  sublinear speedup (communication grows), increasing total time.
* **5c (real)** — actual elapsed wall-clock of the multiprocess backend on
  a Darwini-generated workload as worker processes are added, next to the
  metered message counts the simulation layer reports.  This is measured
  speedup, not a model; its shape depends on the CPU cores available.
"""

from __future__ import annotations

import numpy as np
from conftest import scale_factor, smoke_mode

from repro import SHPConfig
from repro.bench import format_series, format_table
from repro.baselines import GraphShape, estimate_shp
from repro.distributed import ClusterSpec
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import DATASETS, darwini_bipartite, load_dataset
from repro.objectives import average_fanout

FIG5A_DATASETS = ["FB-2B", "FB-5B", "FB-10B"]
FIG5A_K = [2, 32, 512, 8192, 131072]


def _fig5a_modeled():
    cluster = ClusterSpec(num_workers=4)
    rows = []
    for name in FIG5A_DATASETS:
        spec = DATASETS[name]
        shape = GraphShape(name, spec.paper_q, spec.paper_d, spec.paper_e, spec.family)
        row: dict[str, object] = {"hypergraph": name, "|E|": spec.paper_e}
        for k in FIG5A_K:
            est = estimate_shp(shape, k, cluster, mode="2")
            row[f"k={k}"] = round(est.minutes * 4, 1)  # total = runtime × machines
        rows.append(row)
    return rows


def _fig5a_live():
    """Measured message volume vs |E| on growing graphs (linearity check)."""
    rows = []
    for scale_name, factor in (("small", 0.5), ("medium", 1.0), ("large", 2.0)):
        graph = load_dataset("FB-2B", scale=0.0003 * factor * scale_factor(), seed=5)
        config = SHPConfig(k=8, seed=3, iterations_per_bisection=3, swap_mode="bernoulli")
        run = DistributedSHP(config, mode="2").run(graph)
        rows.append(
            {
                "run": scale_name,
                "|E|": graph.num_edges,
                "messages": run.metrics.total_messages,
                "msg per edge": round(run.metrics.total_messages / graph.num_edges, 2),
                "supersteps": run.supersteps,
            }
        )
    return rows


def _fig5c_real_speedup():
    """Measured wall-clock of the multiprocess backend vs worker count.

    One OS process per worker over a shared-memory graph; the `messages`
    column is the same metered protocol traffic the simulator reports (it
    is backend-invariant), so the table shows real elapsed speedup next to
    simulated message counts.
    """
    num_users = 1200 if smoke_mode() else 12000
    worker_counts = [1, 2] if smoke_mode() else [1, 2, 4]
    graph = darwini_bipartite(num_users, avg_degree=8.0, seed=9)
    config = SHPConfig(
        k=4, seed=3,
        iterations_per_bisection=2 if smoke_mode() else 3,
        swap_mode="bernoulli",
    )
    cluster = ClusterSpec()
    rows = []
    base = None
    for workers in worker_counts:
        run = DistributedSHP(
            config, cluster=cluster.with_workers(workers), mode="2", backend="mp"
        ).run(graph)
        elapsed = run.metrics.wall_seconds
        if base is None:
            base = elapsed
        rows.append(
            {
                "workers": workers,
                "wall sec": round(elapsed, 2),
                "speedup": round(base / elapsed, 2),
                "messages": run.metrics.total_messages,
                "remote MB": round(run.metrics.total_remote_bytes / 1e6, 1),
                "fanout": round(average_fanout(graph, run.assignment, 4), 3),
            }
        )
    return rows


def _fig5b():
    spec = DATASETS["FB-10B"]
    shape = GraphShape("FB-10B", spec.paper_q, spec.paper_d, spec.paper_e, spec.family)
    machines = [4, 8, 16]
    runtime = []
    total = []
    for m in machines:
        est = estimate_shp(shape, 8192, ClusterSpec(num_workers=m), mode="2")
        runtime.append(round(est.minutes, 1))
        total.append(round(est.minutes * m, 1))
    return machines, runtime, total


def test_fig5_scalability(benchmark):
    live = benchmark.pedantic(_fig5a_live, rounds=1, iterations=1)
    modeled = _fig5a_modeled()
    machines, runtime, total = _fig5b()
    real = _fig5c_real_speedup()

    text = format_table(
        modeled, title="Figure 5a — modeled total time (minutes) vs |E| (4 machines)"
    )
    text += "\n" + format_table(
        live, title="Figure 5a (live) — measured protocol messages vs |E|"
    )
    text += "\n" + format_series(
        "machines",
        machines,
        {"run-time (min)": runtime, "total time (min)": total},
        title="Figure 5b — FB-10B, k=8192 (paper: 4->16 machines gives <4x speedup)",
    )
    text += "\n" + format_table(
        real,
        title="Figure 5c (real) — multiprocess backend wall-clock vs workers "
        "(darwini workload; shape depends on available cores)",
    )
    print(f"\n{text}")

    # Real-backend sanity: every worker count completed the full protocol
    # and metered the same per-protocol traffic ballpark (counts are not
    # placement-invariant, but all runs must land within 2x of each other).
    real_msgs = [row["messages"] for row in real]
    assert min(real_msgs) > 0
    assert max(real_msgs) < 2.0 * min(real_msgs)
    assert all(row["wall sec"] > 0 for row in real)

    # Shape assertions.
    # (1) total time ∝ |E| at fixed k (modeled grid).
    es = np.array([row["|E|"] for row in modeled], dtype=float)
    t32 = np.array([row["k=32"] for row in modeled], dtype=float)
    ratio = (t32 / es) / (t32[0] / es[0])
    assert np.all((ratio > 0.5) & (ratio < 2.0))
    # (2) total time grows ~log k: doubling k multiplies time by a constant.
    row0 = modeled[0]
    increments = [
        row0[f"k={b}"] / row0[f"k={a}"]
        for a, b in zip(FIG5A_K[1:], FIG5A_K[2:])
    ]
    assert max(increments) < 3.0  # far below the ∝k growth of SHP-k
    # (3) live layer: messages scale linearly with |E| (within 2x).
    per_edge = [row["msg per edge"] for row in live]
    assert max(per_edge) < 2.0 * min(per_edge)
    # (4) Figure 5b: sublinear speedup, growing total time.
    assert runtime[0] > runtime[-1] > runtime[0] / 4
    assert total[-1] > total[0]
