"""Distributed SHP execution-layer throughput on the simulated backend.

The job runs each of the four protocol phases as vectorized kernels over
struct-of-arrays worker partitions, exchanging typed numpy message batches
(``SHPColumnarProgram`` — the only program the engine runs; its per-vertex
reference lives in ``tests/oracles/`` and ``tests/test_vertex_mode_parity.py``
pins the two bitwise).  The first table reports its wall-clock and pin
throughput at |D| = 10⁵ (full scale) for mode "2" (level-synchronous
bisection) and mode "k" (direct k-way), and asserts only that a repeated
run is bitwise-reproducible; there is no slower path left to be faster
than, so no speedup floor.

A second table measures the net-delta combiner on the rpc backend (real
sockets — the only backend where ``wire_bytes`` is physical): the same
job with ``combiner`` toggled must produce a bitwise-identical assignment
with combiner-on wire bytes *strictly below* combiner-off, and the
logical remote-byte meter dropping in step.  Checkpoint traffic is
identical between the two runs (same partitions every superstep), so the
wire delta is pure message savings.

Smoke mode shrinks the graphs ~20× and only checks parity / the byte
orderings end to end — timings there are fixed overhead, not meaningful.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import smoke_mode

from repro import SHPConfig
from repro.bench import format_table
from repro.distributed import ClusterSpec, RpcBackend
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import community_bipartite

WORKERS = 4


def _run_throughput():
    if smoke_mode():
        num_queries, num_data, num_edges = 3_000, 5_000, 25_000
    else:
        num_queries, num_data, num_edges = 60_000, 100_000, 500_000
    graph = community_bipartite(
        num_queries, num_data, num_edges, num_communities=64, mixing=0.2, seed=7
    )
    rows = []
    for mode, k in (("2", 2), ("k", 4)):
        config = SHPConfig(
            k=k, seed=3, iterations_per_bisection=2, max_iterations=2,
            swap_mode="bernoulli",
        )
        job = DistributedSHP(
            config, cluster=ClusterSpec(num_workers=WORKERS), mode=mode, backend="sim"
        )
        start = time.perf_counter()
        run = job.run(graph)
        elapsed = time.perf_counter() - start
        again = job.run(graph)
        rows.append(
            {
                "mode": mode,
                "k": k,
                "|D|": graph.num_data,
                "|E|": graph.num_edges,
                "supersteps": run.supersteps,
                "messages": run.metrics.total_messages,
                "sec": round(elapsed, 2),
                "pin-cycles/sec": round(graph.num_edges * run.cycles / elapsed),
                "reproducible": bool(np.array_equal(run.assignment, again.assignment)),
            }
        )
    return rows


def _run_combiner_wire():
    """Combiner on vs off on the rpc backend: same answer, fewer bytes."""
    if smoke_mode():
        num_queries, num_data, num_edges = 2_000, 3_000, 16_000
    else:
        num_queries, num_data, num_edges = 12_000, 20_000, 110_000
    graph = community_bipartite(
        num_queries, num_data, num_edges, num_communities=16, mixing=0.2, seed=7
    )
    config = SHPConfig(
        k=4, seed=3, iterations_per_bisection=2, max_iterations=2,
        swap_mode="bernoulli",
    )
    runs = {}
    rows = []
    for combiner in (False, True):
        backend = RpcBackend(step_timeout=120.0)
        start = time.perf_counter()
        runs[combiner] = DistributedSHP(
            config,
            cluster=ClusterSpec(num_workers=WORKERS),
            mode="2",
            backend=backend,
            combiner=combiner,
        ).run(graph)
        elapsed = time.perf_counter() - start
        metrics = runs[combiner].metrics
        rows.append(
            {
                "combiner": "on" if combiner else "off",
                "|D|": graph.num_data,
                "messages": metrics.total_messages,
                "bytes_remote": sum(s.bytes_remote for s in metrics.supersteps),
                "wire_bytes": metrics.total_wire_bytes,
                "round_trip_sec": round(metrics.total_round_trip_seconds, 2),
                "wall sec": round(elapsed, 2),
            }
        )
    off, on = rows[0], rows[1]
    parity = np.array_equal(runs[False].assignment, runs[True].assignment)
    for row in rows:
        row["bitwise"] = parity
        row["_parity"] = parity
    off["_wire_saved"] = on["_wire_saved"] = off["wire_bytes"] - on["wire_bytes"]
    off["_logical_saved"] = on["_logical_saved"] = (
        off["bytes_remote"] - on["bytes_remote"]
    )
    return rows


def test_combiner_wire_savings(benchmark):
    rows = benchmark.pedantic(_run_combiner_wire, rounds=1, iterations=1)
    display = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    title = "Net-delta combiner on the rpc backend: wire bytes on vs off"
    print("\n" + format_table(display, title=title))
    off, on = rows[0], rows[1]
    assert off["_parity"], "combiner changed the assignment"
    # The acceptance criterion: combiner-on wire bytes strictly below
    # combiner-off on the same job, with the logical meter agreeing.
    assert on["wire_bytes"] < off["wire_bytes"], (
        f"wire bytes {on['wire_bytes']} !< {off['wire_bytes']}"
    )
    assert on["bytes_remote"] < off["bytes_remote"]
    assert on["messages"] < off["messages"]


def test_distributed_throughput(benchmark):
    rows = benchmark.pedantic(_run_throughput, rounds=1, iterations=1)
    title = "Distributed SHP throughput (columnar kernels, sim backend)"
    print("\n" + format_table(rows, title=title))
    for row in rows:
        assert row["reproducible"], f"mode {row['mode']}: rerun diverged"
