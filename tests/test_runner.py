"""The spec runner: dispatch, run artifacts, and output handling."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    AlgorithmSpec,
    ExecutionSpec,
    GraphSpec,
    JobSpec,
    OutputSpec,
    ServingSpec,
    SpecError,
    load_run,
    run,
    smoke_spec,
)
from repro.core.persistence import load_assignment
from repro.hypergraph import community_bipartite, write_hmetis


@pytest.fixture
def graph_file(tmp_path):
    graph = community_bipartite(150, 220, 1400, num_communities=6, seed=5)
    path = tmp_path / "g.hgr"
    write_hmetis(graph, path)
    return path, graph


def _file_spec(path, **algorithm) -> JobSpec:
    return JobSpec(
        graph=GraphSpec(source="file", path=str(path)),
        algorithm=AlgorithmSpec(**algorithm),
    )


class TestLocalRuns:
    def test_local_partition(self, graph_file):
        path, graph = graph_file
        report = run(_file_spec(path, name="shp-2", k=4))
        assert report.assignment is not None
        assert report.assignment.size == graph.remove_small_queries().num_data
        assert report.k == 4
        assert report.quality is not None and report.quality.k == 4
        assert report.rows and report.rows[0]["algorithm"] == "shp-2"
        assert report.meters["iterations"] >= 1
        assert any(m["record"] == "iteration" for m in report.metrics)
        assert report.metrics[-1]["record"] == "quality"

    def test_deterministic_per_seed(self, graph_file):
        path, _ = graph_file
        spec = _file_spec(path, name="shp-k", k=4)
        a = run(spec).assignment
        b = run(spec).assignment
        np.testing.assert_array_equal(a, b)

    def test_options_forwarded(self, graph_file):
        path, _ = graph_file
        spec = _file_spec(path, name="shp-k", k=4, options={"max_iterations": 1})
        report = run(spec)
        assert report.meters["iterations"] <= 1

    def test_in_memory_graph_short_circuit(self, graph_file):
        _, graph = graph_file
        spec = JobSpec(algorithm=AlgorithmSpec(name="shp-2", k=2))
        report = run(spec, graph=graph)
        assert report.assignment.size == graph.remove_small_queries().num_data

    def test_dataset_source(self):
        spec = JobSpec(
            graph=GraphSpec(source="dataset", dataset="email-Enron", scale=0.005),
            algorithm=AlgorithmSpec(name="random", k=4),
        )
        report = run(spec)
        assert report.quality.imbalance < 1.0

    def test_missing_path_raises_spec_error(self):
        with pytest.raises(SpecError, match=r"graph\.path"):
            run(JobSpec())


class TestEngineRuns:
    def test_sim_backend_matches_cli_label(self, graph_file):
        path, _ = graph_file
        spec = _file_spec(path, name="shp-2", k=4).with_(
            execution=ExecutionSpec(backend="sim", workers=3)
        )
        report = run(spec)
        assert report.label == "shp-2@simx3"
        assert report.meters["backend"] == "sim"
        assert report.meters["messages"] > 0
        assert any(m["record"] == "phase" for m in report.metrics)

    def test_engine_rejects_non_shp(self, graph_file):
        path, _ = graph_file
        spec = _file_spec(path, name="random", k=4)
        # Rejected when the spec is built: no graph is loaded, nothing runs.
        with pytest.raises(SpecError, match="backend"):
            spec.with_(execution=ExecutionSpec(backend="sim"))


class TestServingRuns:
    def test_serving_rounds(self):
        spec = JobSpec(
            kind="serving",
            graph=GraphSpec(source="darwini", users=600, avg_degree=8),
            serving=ServingSpec(servers=4, rounds=2, queries_per_round=150),
        )
        report = run(spec)
        # round 0 is the freshly-partitioned baseline, then `rounds` rounds
        assert len(report.rows) == 3
        assert report.meters["total_migrated"] >= 0
        assert report.assignment is not None and report.k == 4


class TestArtifacts:
    def test_artifact_directory_round_trips(self, graph_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "run1"
        spec = _file_spec(path, name="shp-2", k=4).with_(
            output=OutputSpec(artifacts=str(out))
        )
        report = run(spec)
        assert report.artifacts == out
        assert (out / "manifest.json").exists()
        assert (out / "assignment.npz").exists()
        assert (out / "metrics.jsonl").exists()

        artifacts = load_run(out)
        assert artifacts.manifest["kind"] == "partition"
        assert artifacts.manifest["spec"] == spec.to_dict()
        assert artifacts.manifest["graph"]["num_data"] > 0
        np.testing.assert_array_equal(artifacts.assignment, report.assignment)
        assert artifacts.k == 4
        assert artifacts.metrics[-1]["record"] == "quality"
        # the manifest's resolved spec revalidates into an identical JobSpec
        assert artifacts.spec() == spec

    def test_manifest_is_plain_json(self, graph_file, tmp_path):
        path, _ = graph_file
        out = tmp_path / "run2"
        spec = _file_spec(path, name="shp-k", k=4).with_(
            execution=ExecutionSpec(backend="sim", workers=2),
            output=OutputSpec(artifacts=str(out)),
        )
        run(spec)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["meters"]["supersteps"] > 0

    def test_serving_artifacts(self, tmp_path):
        out = tmp_path / "serve"
        spec = JobSpec(
            kind="serving",
            graph=GraphSpec(source="darwini", users=500, avg_degree=8),
            serving=ServingSpec(servers=4, rounds=1, queries_per_round=100),
            output=OutputSpec(artifacts=str(out)),
        )
        run(spec)
        artifacts = load_run(out)
        assert sum(m["record"] == "round" for m in artifacts.metrics) == 2
        assert artifacts.assignment.max() < 4

    def test_load_run_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nothing")


class TestAssignmentOutput:
    @pytest.mark.parametrize("suffix", [".npz", ".txt"])
    def test_output_formats_round_trip(self, graph_file, tmp_path, suffix):
        path, _ = graph_file
        out = tmp_path / f"assign{suffix}"
        spec = _file_spec(path, name="shp-2", k=4).with_(
            output=OutputSpec(assignment=str(out))
        )
        report = run(spec)
        assignment, k = load_assignment(out)
        np.testing.assert_array_equal(assignment, report.assignment)
        assert k == (4 if suffix == ".npz" else None)


class TestSmoke:
    def test_smoke_spec_shrinks_budgets(self):
        spec = JobSpec(
            kind="serving",
            graph=GraphSpec(source="darwini", users=100_000),
            algorithm=AlgorithmSpec(name="shp-2", k=4),
            serving=ServingSpec(rounds=10, queries_per_round=50_000),
        )
        small = smoke_spec(spec)
        assert small.graph.users <= 2000
        assert small.serving.rounds <= 2
        assert small.serving.queries_per_round <= 300
        assert small.algorithm.options["max_iterations"] == 8

    def test_smoke_preserves_explicit_options(self):
        spec = JobSpec(
            algorithm=AlgorithmSpec(name="shp-2", k=4, options={"max_iterations": 2})
        )
        assert smoke_spec(spec).algorithm.options["max_iterations"] == 2

    def test_smoke_run_executes(self, graph_file):
        path, _ = graph_file
        report = run(_file_spec(path, name="shp-2", k=4), smoke=True)
        assert report.assignment is not None
