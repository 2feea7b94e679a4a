"""Workload table and input generation for the perf ledger.

Everything a workload needs is derived from ``--seed`` here, in set-up:
the four Darwini graphs are generated, preprocessed with
``remove_small_queries()`` and written as files; the program under test
only ever sees those files through a job spec.  Sizes and worker counts
are constants chosen for a 2-core machine — they are *not* read from the
host, so two machines run the same work.

Every spec sets ``graph.remove_small_queries = false``: the default
``true`` silently turns a ``StoreBackedGraph`` into an in-memory copy
(ROADMAP item 4a), which would make the ``engine_*`` workloads measure
the wrong path.  :func:`assert_store_backed` pins that in set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

#: Darwini inputs: users (full size, ``--smoke`` size), average degree and
#: the file formats written.  The engine graph stays at 8 000 users or
#: more: distributed SHP-2 halts the whole job at the first cycle in which
#: no vertex moves instead of advancing to the next bisection level
#: (``_SHPMaster._should_stop``), leaving 2 of 8 buckets populated, and
#: small graphs hit that often — 16 of 20 seeds at 400 users, 1 of 30 at
#: 4 000, 0 of 150 at 6 000-16 000.  The balance check catches it; see
#: README "Known program issues".
GRAPHS: dict[str, dict] = {
    "local": {"users": (40_000, 2_000), "avg_degree": 10, "formats": ("npz",)},
    "engine": {"users": (8_000, 400), "avg_degree": 10, "formats": ("rgs",)},
    "serving": {"users": (10_000, 500), "avg_degree": 20, "formats": ("npz",)},
    "ingest": {"users": (100_000, 5_000), "avg_degree": 10, "formats": ("hgr", "npz")},
}

#: Traffic replayed per serving round (full size, ``--smoke`` size), sized
#: so that replay is 40-50% of the job, as in the issue's sizing: replay
#: costs 2.5-4 us per query depending on the host's phase, refinement of
#: this graph ~0.5 s whatever the traffic.  The job stays near 1.2 s so that
#: a run holds many reps: what steadies a run's median is the number of
#: (job, host probe) pairs in it (README "Noise calibration and bounds").
SERVING_QUERIES_PER_ROUND = (180_000, 9_000)

#: ``--smoke`` also caps refinement at this many iterations per bisection
#: (default 20), like ``repro run --smoke``; it keeps every cycle of the
#: tiny engine graph far from the zero-move halt described above.
SMOKE_ITERATIONS = 6

#: Buckets of the fixed round-robin labeling ``ingest`` evaluates.
INGEST_K = 32


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its input, its job and why it exists."""

    name: str
    why: str
    graph: str
    #: workload whose assignment (and engine meters) must match bitwise.
    reference: str | None = None
    #: the job spawns worker processes, so ``peak_worker_rss_mib`` exists.
    workers: bool = False
    #: timed end to end; ``engine_sim`` only serves as reference / baseline.
    timed: bool = True
    #: what ``why`` says about where the job's time goes, as (per-layer
    #: metrics to add up, least share, greatest share) of the traced job's
    #: ``job_s``; the self-test holds the committed ledger to it, so a
    #: resize that changes the mix fails there instead of leaving a stale
    #: reason behind (``ledger.share_failures``).
    shares: tuple[tuple[tuple[str, ...], float, float], ...] = ()


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "local_serial",
            "core.level_fuse/core.swaps do >90% of a plain single-process shp-2 job: the "
            "serial baseline, and the bypass workload for engine, wire and storage changes",
            graph="local",
            shares=((("core.level_fuse.refine_s",), 0.90, 1.0),),
        ),
        Workload(
            "local_pool2",
            "same graph and spec through ParallelGainPool + SharedArrayPool with 2 refine "
            "workers (dispatch + barrier >25% of the job): a serial-kernel gain that costs the "
            "pool path, or the reverse, shows",
            graph="local",
            reference="local_serial",
            workers=True,
            shares=((("core.parallel_refine.compute_gains_s",), 0.25, 0.70),),
        ),
        Workload(
            "engine_mp",
            "distributed shp-2 on a re-mmapped .rgs store with 2 mp workers over pipes: the engine "
            "(columnar kernels + master routing) is >90% of the job, no sockets, so it bypasses "
            "wire/pickle/checkpoint work",
            graph="engine",
            reference="engine_sim",
            workers=True,
            shares=(
                (("distributed_shp.job.run_s",), 0.90, 1.0),
                (("distributed.wire.round_trip_s",), 0.0, 0.0),
            ),
        ),
        Workload(
            "engine_rpc",
            "identical spec on 2 auto-spawned rpc workers: framed pickle over TCP with a "
            "checkpoint on every barrier reply; round trips are >75% of the job, so transport "
            "costs show here",
            graph="engine",
            reference="engine_sim",
            workers=True,
            shares=((("distributed.wire.round_trip_s",), 0.75, 1.0),),
        ),
        Workload(
            "serving",
            "traffic replay (sharding.simulator) is 40-50% of the job and core refinement 35-45%, "
            "split between a cold initial partition and warm-started, move-penalised, budgeted "
            "repair of a churned graph",
            graph="serving",
            shares=(
                (("sharding.simulator.replay_s",), 0.35, 0.55),
                (("core.level_fuse.refine_s",), 0.30, 0.50),
            ),
        ),
        Workload(
            "ingest",
            "convert .hgr and .npz to .rgs, then evaluate a fixed labeling through the cold "
            "mmap view: storage.convert (>85%) and storage.store do all the work, no "
            "partitioner runs",
            graph="ingest",
            shares=(
                (("storage.convert.hgr_s", "storage.convert.npz_s"), 0.85, 1.0),
                (("storage.convert.hgr_s", "storage.convert.npz_s", "storage.store.open_s",
                  "storage.store.cold_evaluate_s"), 0.95, 1.0),
                (("core.shp_2.partition_s",), 0.0, 0.0),
            ),
        ),
        Workload(
            "engine_sim",
            "in-process sim x2 pass of the engine spec: the no-IPC baseline and the bitwise "
            "reference for engine_mp / engine_rpc",
            graph="engine",
            timed=False,
        ),
    )
}

#: The six workloads that are timed end to end, in schedule order.
TIMED = tuple(name for name, w in WORKLOADS.items() if w.timed)

#: The four BENCHMARK.json lists, i.e. the benchmark driver runs.  Its time
#: limit covers 4 + 22 runs per workload, so every workload listed shortens
#: the others' runs, and a run needs ~25 s of reps for its timings to repeat
#: on this host (README "Noise calibration and bounds").  The four are the
#: bypass / exercise pairs of the open ROADMAP items: the serial kernels, the
#: engine without and with the wire, and storage.  ``local_pool2`` (a third
#: process on two cores, slower than serial at this size) and ``serving``
#: (not an aim of this round) stay ledger workloads: ``run.py`` without
#: ``--workload`` runs all six.
DRIVEN = ("local_serial", "engine_mp", "engine_rpc", "ingest")


def graph_paths(graph: str, data_dir: Path) -> dict[str, Path]:
    return {fmt: data_dir / f"{graph}.{fmt}" for fmt in GRAPHS[graph]["formats"]}


def build_graph(graph: str, seed: int, data_dir: Path, smoke: bool) -> dict:
    """Generate one input graph from ``seed`` and write its files.

    Returns the shape of what was written (the program never sees this).
    """
    from repro.hypergraph import BipartiteGraph, darwini_bipartite, save_graph

    size = GRAPHS[graph]
    g = darwini_bipartite(
        size["users"][smoke], avg_degree=size["avg_degree"], seed=seed
    ).remove_small_queries()
    # Canonical CSR (rows sorted, as any loader of an edge list builds it):
    # the generator leaves rows unsorted, the converters sort them, and
    # ``ingest`` checks the converted stores array-equal to this graph.
    g = BipartiteGraph.from_edges(
        g.q_of_edge, g.q_indices, num_queries=g.num_queries, num_data=g.num_data
    )
    for path in graph_paths(graph, data_dir).values():
        save_graph(g, path)
    return {"pins": int(g.num_edges), "data": int(g.num_data), "queries": int(g.num_queries)}


def job_spec(workload: str, seed: int, data_dir: Path, smoke: bool) -> dict:
    """The job-spec dict ``repro.api.run`` receives (not used by ``ingest``)."""
    wl = WORKLOADS[workload]
    fmt = GRAPHS[wl.graph]["formats"][0]
    spec: dict = {
        "seed": seed,
        "graph": {
            "source": "file",
            "path": str(graph_paths(wl.graph, data_dir)[fmt]),
            "remove_small_queries": False,
        },
    }
    if wl.graph == "local":
        spec["kind"] = "partition"
        spec["algorithm"] = {"name": "shp-2", "k": 32, "epsilon": 0.05, "p": 0.5}
        spec["execution"] = {
            "backend": "local",
            "refine_workers": 2 if workload == "local_pool2" else 1,
        }
    elif wl.graph == "engine":
        # Not ``stream-refine``: from the streaming warm start the first
        # bisection level runs out of matched moves within a few cycles and
        # trips the early halt described at GRAPHS on ~1 seed in 20, at
        # any graph size.
        spec["kind"] = "partition"
        spec["algorithm"] = {"name": "shp-2", "k": 8, "epsilon": 0.05, "p": 0.5}
        spec["execution"] = {
            "backend": workload.removeprefix("engine_"),
            "workers": 2,
            "vertex_mode": "columnar",
            "combiner": True,
        }
    elif wl.graph == "serving":
        spec["kind"] = "serving"
        spec["serving"] = {
            "servers": 16,
            "rounds": 3,
            "queries_per_round": SERVING_QUERIES_PER_ROUND[smoke],
            "churn_fraction": 0.05,
            "migration_budget": 0.10,
            "repair_iterations": 15,
            "method": "2",
        }
    else:
        raise ValueError(f"workload {workload!r} has no job spec")
    if smoke and "algorithm" in spec:
        spec["algorithm"]["options"] = {"iterations_per_bisection": SMOKE_ITERATIONS}
    return spec


def assert_store_backed(seed: int, data_dir: Path, smoke: bool) -> None:
    """Set-up guard: the graph an engine job's ``run`` sees stays a store view."""
    from repro.api import JobSpec, load_graph_spec
    from repro.storage import StoreBackedGraph

    graph = load_graph_spec(JobSpec.from_dict(job_spec("engine_sim", seed, data_dir, smoke)))
    if not isinstance(graph, StoreBackedGraph):
        raise AssertionError(
            f"engine jobs would see {type(graph).__name__}, not a StoreBackedGraph"
        )
