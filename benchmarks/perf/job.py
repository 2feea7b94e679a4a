"""One benchmark rep: run one job in this (fresh) process and report on it.

``run.py`` launches this file once per rep, so every job starts from a
cold interpreter and ``VmHWM`` / ``RUSAGE_CHILDREN`` describe that job
alone.  The clock starts *after* imports, with the inputs on disk, and
stops with the checked-able result in memory: ``repro.api.run(spec)``
(load + partition + evaluate) or, for ``ingest``, the
convert -> open -> evaluate sequence.  A host-speed probe runs right
before and right after the job (``hostspeed.py``): ``wall_s`` is the job's
wall time as measured, ``job_s`` the same divided by the host's slowdown
during it.  Peak RSS is read right after the job, before the correctness
checks load the graph a second time.

With ``--trace`` the job runs under :mod:`tracing` and the per-layer
probes that are not part of any job (text-parse baseline, slice readers,
framing throughput, artifact writing) run afterwards, still traced.

The result is written as one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import socket
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parents[1] / "src")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

MIB = 1024.0 * 1024.0


def peak_rss_mib() -> float:
    """``VmHWM`` of this process (the job's master), in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def peak_worker_rss_mib() -> float:
    """Largest reaped child of this process, in MiB (0.0 = spawned none).

    ``ru_maxrss`` of a forked worker starts at the parent's RSS at fork
    time (``mp`` backend, refine pool), so it is an upper bound there; the
    ``rpc`` workers fork before the graph is loaded, so it is exact.
    """
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the jobs
# ----------------------------------------------------------------------

def run_spec_job(workload: str, seed: int, data_dir: Path, smoke: bool) -> dict:
    """A ``repro.api.run`` job: partition / stream-refine / serving."""
    from repro.api import JobSpec, runner

    spec = JobSpec.from_dict(inputs.job_spec(workload, seed, data_dir, smoke))
    with hostspeed.timed() as clock:
        report = runner.run(spec)
    if spec.kind == "serving":
        k, fanout = spec.serving.servers, float(report.rows[-1]["fanout"])
    else:
        k, fanout = spec.algorithm.k, float(report.quality.fanout)
    return {
        "clock": clock,
        "spec": spec,
        "report": report,
        "assignment": np.asarray(report.assignment),
        "k": k,
        "fanout": fanout,
        "meters": report.meters,
    }


def run_ingest_job(data_dir: Path) -> dict:
    """convert(.hgr) + convert(.npz) -> .rgs, open the cold view, evaluate."""
    from repro.objectives import evaluate_partition
    from repro.storage import convert_to_store, open_store_view

    paths = inputs.graph_paths("ingest", data_dir)
    from_hgr, from_npz = data_dir / "ingest_from_hgr.rgs", data_dir / "ingest_from_npz.rgs"
    with hostspeed.timed() as clock:
        convert_to_store(paths["hgr"], from_hgr)
        convert_to_store(paths["npz"], from_npz)
        view = open_store_view(from_hgr)
        labels = np.arange(view.num_data, dtype=np.int64) % inputs.INGEST_K
        quality = evaluate_partition(view, labels, inputs.INGEST_K)
    return {
        "clock": clock,
        "stores": (from_hgr, from_npz),
        "assignment": labels,
        "k": inputs.INGEST_K,
        "fanout": float(quality.fanout),
        "meters": {},
    }


def check_job(workload: str, seed: int, data_dir: Path, outcome: dict) -> list[str]:
    """Every correctness check that needs only this rep's outputs."""
    from repro.hypergraph import load_graph

    wl = inputs.WORKLOADS[workload]
    fmt = inputs.GRAPHS[wl.graph]["formats"][-1]
    graph = load_graph(inputs.graph_paths(wl.graph, data_dir)[fmt])
    if workload == "ingest":
        from repro.storage import open_store_view

        failures = []
        for store in outcome["stores"]:
            failures += checks.check_same_graph(open_store_view(store), graph, store.name)
        recomputed = checks.independent_fanout(graph, outcome["assignment"], outcome["k"])
        if abs(recomputed - outcome["fanout"]) > 1e-9:
            failures.append(f"evaluated fanout {outcome['fanout']!r} != recomputed {recomputed!r}")
        return failures
    spec = outcome["spec"]
    if spec.kind == "serving":
        return checks.check_assignment(
            outcome["assignment"], graph.num_data, outcome["k"]
        ) + checks.check_serving(
            outcome["report"].rows, spec.serving.migration_budget, spec.serving.rounds
        )
    failures = checks.check_partition(
        graph, outcome["assignment"], outcome["k"], spec.algorithm.epsilon,
        not spec.execution.is_local, outcome["fanout"], seed,
    )
    return failures


# ----------------------------------------------------------------------
# traced-pass probes: layer entry points no job reaches
# ----------------------------------------------------------------------

def frame_mib_per_s(rows: int = 100_000, frames: int = 16) -> float:
    """``send_obj`` / ``recv_obj`` of a typed batch over a loopback socketpair."""
    from repro.distributed import wire
    from repro.distributed.messages import MessageBatch
    from repro.distributed_shp.schemas import DELTA_SCHEMA

    batch = MessageBatch(
        DELTA_SCHEMA,
        dst=np.arange(rows, dtype=np.int64),
        cols={"old": np.zeros(rows, dtype="<i4"), "new": np.ones(rows, dtype="<i4")},
    )
    left, right = socket.socketpair()
    received = []

    def drain() -> None:
        for _ in range(frames):
            received.append(wire.recv_obj(right)[1])

    reader = threading.Thread(target=drain)
    with contextlib.closing(left), contextlib.closing(right):
        start = time.perf_counter()
        reader.start()
        for _ in range(frames):
            wire.send_obj(left, batch)
        reader.join()
        elapsed = time.perf_counter() - start
    return sum(received) / MIB / elapsed


def run_probes(workload: str, data_dir: Path, outcome: dict) -> dict:
    from repro.api import runner

    probes: dict = {}
    if workload == "ingest":
        from repro.hypergraph.io import read_hmetis
        from repro.storage import GraphStore

        read_hmetis(inputs.graph_paths("ingest", data_dir)["hgr"])
        store = GraphStore.open(outcome["stores"][0])
        for worker in range(2):
            store.data_slice(*store.data_range(worker, 2))
    else:
        runner.write_artifacts(outcome["report"], data_dir / f"artifacts_{workload}")
    if workload == "engine_rpc":
        probes["frame_mib_per_s"] = frame_mib_per_s()
    if workload == "engine_sim":
        # The out-of-core warm start the engine jobs cannot use yet (see
        # inputs.job_spec): measured stand-alone on the engine's store.
        from repro.baselines import streaming_partitioner
        from repro.storage import GraphStore

        view = GraphStore.open(inputs.graph_paths("engine", data_dir)["rgs"]).view()
        warm = streaming_partitioner(view, k=2, seed=outcome["spec"].seed)
        probes["warm_fanout"] = checks.independent_fanout(view, warm.assignment, 2)
    return probes


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--data-dir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    # Import everything a job touches before the clock starts.
    import repro.api.runner  # noqa: F401
    import repro.storage  # noqa: F401
    import repro.workloads  # noqa: F401

    def execute() -> dict:
        if args.workload == "ingest":
            return run_ingest_job(args.data_dir)
        return run_spec_job(args.workload, args.seed, args.data_dir, args.smoke)

    tracer = tracing.Tracer() if args.trace else None
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        outcome = execute()
        result: dict = {
            "workload": args.workload,
            "traced": args.trace,
            "peak_rss_mib": peak_rss_mib(),
            "peak_worker_rss_mib": peak_worker_rss_mib(),
        }
        if tracer is not None:
            result["job_span_count"] = len(tracer.spans)
            result["probes"] = run_probes(args.workload, args.data_dir, outcome)
            result["spans"] = tracer.spans
    result.update(
        job_s=outcome["clock"]["wall_s"] / outcome["clock"]["slowdown"],
        wall_s=outcome["clock"]["wall_s"],
        host_slowdown=outcome["clock"]["slowdown"],
        fanout=outcome["fanout"],
        digest=checks.assignment_digest(outcome["assignment"]),
        meters=outcome["meters"],
        wire_mib=outcome["meters"].get("wire_bytes", 0) / MIB,
        failures=check_job(args.workload, args.seed, args.data_dir, outcome),
    )
    args.out.write_text(
        json.dumps(result, default=lambda value: value.item()), encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
