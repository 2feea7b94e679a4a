"""Streaming partitioner and the stream-then-refine pipeline.

The streaming baseline is the out-of-core warm start: one pass, O(k + |Q|)
state, deterministic per seed.  The pipeline tests pin the contract the
paper's two-stage flow depends on — warm start feeds ``initial=`` into the
distributed refiner and the whole run stays bitwise reproducible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    AlgorithmSpec,
    ExecutionSpec,
    GraphSpec,
    JobSpec,
    PipelineSpec,
    SpecError,
    run,
)
from repro.baselines import PARTITIONERS, streaming_partitioner
from repro.hypergraph import community_bipartite, write_hmetis
from repro.objectives.evaluate import evaluate_partition

REFINE_BUDGET = {"max_iterations": 6, "iterations_per_bisection": 5}


@pytest.fixture(scope="module")
def stream_graph():
    return community_bipartite(300, 450, 3200, num_communities=8, mixing=0.2, seed=9)


def _stream_refine_spec(path, backend="sim", seed=7, warmstart="streaming"):
    return JobSpec(
        kind="stream-refine",
        seed=seed,
        graph=GraphSpec(source="file", path=str(path)),
        pipeline=PipelineSpec(warmstart=warmstart),
        algorithm=AlgorithmSpec(
            name="shp-2", k=4, epsilon=0.05, options=dict(REFINE_BUDGET)
        ),
        execution=ExecutionSpec(backend=backend, workers=4),
    )


class TestStreamingPartitioner:
    def test_registered(self):
        assert PARTITIONERS.get("streaming") is streaming_partitioner

    def test_deterministic_per_seed(self, stream_graph):
        a = streaming_partitioner(stream_graph, k=8, seed=3).assignment
        b = streaming_partitioner(stream_graph, k=8, seed=3).assignment
        np.testing.assert_array_equal(a, b)

    def test_seeds_differ(self, stream_graph):
        a = streaming_partitioner(stream_graph, k=8, seed=0).assignment
        b = streaming_partitioner(stream_graph, k=8, seed=1).assignment
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_every_vertex_assigned_and_balanced(self, stream_graph, k):
        result = streaming_partitioner(stream_graph, k=k, epsilon=0.05, seed=1)
        assignment = np.asarray(result.assignment)
        assert assignment.size == stream_graph.num_data
        assert assignment.min() >= 0 and assignment.max() < k
        quality = evaluate_partition(stream_graph, assignment, k)
        # Unit weights: the hard capacity is max(ceil(n/k), (1+eps)n/k),
        # so imbalance never exceeds eps + one-vertex rounding slack.
        assert quality.imbalance <= 0.05 + k / stream_graph.num_data

    def test_balance_with_weighted_vertices(self, stream_graph):
        rng = np.random.default_rng(0)
        from repro.hypergraph import BipartiteGraph

        g = BipartiteGraph.from_edges(
            stream_graph.q_of_edge,
            stream_graph.q_indices,
            num_queries=stream_graph.num_queries,
            num_data=stream_graph.num_data,
            data_weights=rng.random(stream_graph.num_data) + 0.5,
            dedupe=False,
        )
        result = streaming_partitioner(g, k=4, epsilon=0.1, seed=2)
        quality = evaluate_partition(g, np.asarray(result.assignment), 4)
        w = np.asarray(g.data_weights)
        # Weighted capacity is (1+eps)*total/k plus at most one vertex of slack.
        assert quality.imbalance <= 0.1 + float(w.max()) / (float(w.sum()) / 4)

    def test_single_pass_metadata(self, stream_graph):
        result = streaming_partitioner(stream_graph, k=4, seed=0)
        assert result.method == "streaming"
        assert result.converged
        assert "fallback_assignments" in result.extra

    def test_better_than_random_on_community_graph(self, stream_graph):
        from repro.core import balanced_random_assignment
        from repro.objectives import average_fanout

        streamed = streaming_partitioner(stream_graph, k=8, seed=0).assignment
        random_a = balanced_random_assignment(
            stream_graph.num_data, 8, np.random.default_rng(0)
        )
        assert average_fanout(stream_graph, np.asarray(streamed), 8) < average_fanout(
            stream_graph, random_a, 8
        )


class TestStreamRefinePipeline:
    @pytest.fixture()
    def graph_path(self, tmp_path, stream_graph):
        path = tmp_path / "g.hgr"
        write_hmetis(stream_graph, path)
        return path

    def test_runs_and_reports_warmstart(self, graph_path):
        report = run(_stream_refine_spec(graph_path))
        assert report.label.startswith("streaming→")
        assert report.assignment is not None
        assert report.metrics[0]["record"] == "warmstart"
        assert report.meters["warmstart"]["partitioner"] == "streaming"
        assert "(warm start)" in report.rows[0]["algorithm"]

    def test_bitwise_reproducible_per_seed(self, graph_path):
        a = run(_stream_refine_spec(graph_path, seed=7)).assignment
        b = run(_stream_refine_spec(graph_path, seed=7)).assignment
        np.testing.assert_array_equal(a, b)

    def test_sim_mp_parity(self, graph_path):
        """The warm start happens once on the driver, so backends must
        agree bit-for-bit after refinement too."""
        sim = run(_stream_refine_spec(graph_path, backend="sim")).assignment
        mp = run(_stream_refine_spec(graph_path, backend="mp")).assignment
        np.testing.assert_array_equal(sim, mp)

    def test_warmstart_beats_random_init_at_equal_budget(self, graph_path):
        """The acceptance bar for the pipeline: streaming warm start +
        refinement reaches lower fanout than random init + the same
        refinement budget."""
        warm = run(_stream_refine_spec(graph_path))
        spec = _stream_refine_spec(graph_path)
        cold = run(
            JobSpec(
                kind="partition",
                seed=spec.seed,
                graph=spec.graph,
                algorithm=spec.algorithm,
                execution=spec.execution,
            )
        )
        assert warm.quality is not None and cold.quality is not None
        assert warm.quality.fanout <= cold.quality.fanout

    def test_rejects_local_execution(self, graph_path):
        # A spec rule since the check moved out of the runner: the pairing is
        # refused at construction, before any graph is loaded.
        spec = _stream_refine_spec(graph_path)
        with pytest.raises(SpecError, match="^execution.backend: .*vertex-centric engine"):
            JobSpec(
                kind="stream-refine",
                seed=spec.seed,
                graph=spec.graph,
                pipeline=spec.pipeline,
                algorithm=AlgorithmSpec(name="shp-2", k=4),
            )

    def test_rejects_unknown_warmstart(self):
        with pytest.raises(SpecError, match="warmstart"):
            PipelineSpec(warmstart="no-such-partitioner")

    def test_from_dict_round_trip(self, graph_path):
        spec = _stream_refine_spec(graph_path)
        rebuilt = JobSpec.from_dict(spec.to_dict())
        assert rebuilt.kind == "stream-refine"
        assert rebuilt.pipeline.warmstart == "streaming"
        assert rebuilt == spec
