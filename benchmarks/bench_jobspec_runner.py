"""Job-spec runner overhead: `repro.api.run` vs a direct partitioner call.

The ISSUE 5 redesign routes every entry point (CLI flags, spec files,
benchmarks) through one `run(spec)` runner.  That is only acceptable if the
declarative layer costs nothing: this bench runs the same SHP-2 job both
ways on a Table 1 stand-in, pins the assignments bitwise-identical (the
runner adds no hidden knobs), and reports the runner's relative overhead —
including a variant that writes the full run-artifact directory
(manifest.json + assignment.npz + metrics.jsonl) to price artifact IO.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import bench_dataset, smoke_mode

from repro.api import AlgorithmSpec, GraphSpec, JobSpec, OutputSpec, run
from repro.baselines import get_partitioner
from repro.bench import format_table

K = 16
SEED = 11


def _bench(tmp_dir):
    dataset = "email-Enron"
    graph = bench_dataset(dataset)
    pruned = graph.remove_small_queries()

    start = time.perf_counter()
    direct = get_partitioner("shp-2")(pruned, k=K, epsilon=0.05, seed=SEED)
    direct_sec = time.perf_counter() - start

    spec = JobSpec(
        seed=SEED,
        graph=GraphSpec(source="dataset", dataset=dataset),
        algorithm=AlgorithmSpec(name="shp-2", k=K),
    )
    start = time.perf_counter()
    via_runner = run(spec, graph=graph)
    runner_sec = time.perf_counter() - start

    artifact_spec = spec.with_(output=OutputSpec(artifacts=str(tmp_dir / "artifacts")))
    start = time.perf_counter()
    with_artifacts = run(artifact_spec, graph=graph)
    artifacts_sec = time.perf_counter() - start

    np.testing.assert_array_equal(direct.assignment, via_runner.assignment)
    np.testing.assert_array_equal(direct.assignment, with_artifacts.assignment)

    rows = [
        {"path": "direct call", "sec": round(direct_sec, 3), "overhead %": 0.0},
        {
            "path": "run(spec)",
            "sec": round(runner_sec, 3),
            "overhead %": round(100.0 * (runner_sec / direct_sec - 1.0), 1),
        },
        {
            "path": "run(spec) + artifacts",
            "sec": round(artifacts_sec, 3),
            "overhead %": round(100.0 * (artifacts_sec / direct_sec - 1.0), 1),
        },
    ]
    return rows, direct_sec, runner_sec


def test_jobspec_runner_overhead(benchmark, tmp_path):
    rows, direct_sec, runner_sec = benchmark.pedantic(
        lambda: _bench(tmp_path), rounds=1, iterations=1
    )
    text = format_table(rows, title=f"job-spec runner overhead (shp-2, k={K})")
    print(f"\n{text}")
    if not smoke_mode():
        # The declarative layer (spec validation + evaluation + report
        # assembly) must stay a small fraction of the optimization itself.
        assert runner_sec < 2.0 * direct_sec + 0.5
