"""Edge-case coverage across subsystems: degenerate graphs and inputs."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SHPConfig, shp_2, shp_k
from repro.api import JobSpec, run
from repro.hypergraph import BipartiteGraph
from repro.objectives import average_fanout, bucket_counts, evaluate_partition


def _star(num_leaves: int) -> BipartiteGraph:
    """One query spanning everything: fanout can never be 1 for k >= 2."""
    return BipartiteGraph.from_hyperedges([list(range(num_leaves))], num_data=num_leaves)


def _disconnected(num_components: int, size: int) -> BipartiteGraph:
    hyperedges = [
        list(range(c * size, (c + 1) * size)) for c in range(num_components)
    ]
    return BipartiteGraph.from_hyperedges(hyperedges, num_data=num_components * size)


class TestDegenerateGraphs:
    def test_single_giant_hyperedge(self):
        graph = _star(40)
        result = shp_k(graph, 4, seed=1)
        # Balance forces the hyperedge across all 4 buckets.
        assert average_fanout(graph, result.assignment, 4) == 4.0
        sizes = np.bincount(result.assignment, minlength=4)
        assert sizes.max() <= 11  # (1 + 0.05) * 10 floor

    def test_disconnected_components_fully_separated(self):
        graph = _disconnected(4, 25)
        result = shp_2(graph, 4, seed=1)
        assert average_fanout(graph, result.assignment, 4) == 1.0

    def test_k_equals_num_data(self):
        graph = _disconnected(2, 4)
        result = shp_2(graph, 8, seed=1)
        sizes = np.bincount(result.assignment, minlength=8)
        assert sizes.max() == 1  # one vertex per bucket

    def test_k_exceeds_num_data(self):
        graph = _star(3)
        result = shp_2(graph, 8, seed=1)
        assert result.assignment.size == 3
        assert result.assignment.max() < 8

    def test_no_queries_at_all(self):
        graph = BipartiteGraph.from_hyperedges([], num_data=20)
        result = shp_k(graph, 4, seed=1)
        sizes = np.bincount(result.assignment, minlength=4)
        assert sizes.tolist() == [5, 5, 5, 5]

    @pytest.mark.parametrize("track_metrics", ["none", "objective", "full"])
    def test_queries_but_no_edges(self, track_metrics):
        """Regression: with queries and not one pin the level's tables were
        one row tall (largest query degree 0) and the tracker's f(1) read
        raised IndexError; shp-k and untracked shp-2 were fine."""
        graph = BipartiteGraph.from_edges([], [], num_queries=3, num_data=12)
        result = shp_2(graph, 4, track_metrics=track_metrics)
        assert np.bincount(result.assignment, minlength=4).tolist() == [3, 3, 3, 3]
        assert result.history
        if track_metrics != "none":
            assert all(np.isfinite(s.objective_value) for s in result.history)

    def test_queries_but_no_edges_through_a_job_spec(self):
        graph = BipartiteGraph.from_edges([], [], num_queries=3, num_data=12)
        spec = JobSpec.from_dict({
            "graph": {"remove_small_queries": False},
            "algorithm": {"name": "shp-2", "k": 4},
        })
        report = run(spec, graph=graph)
        assert np.bincount(report.assignment, minlength=4).tolist() == [3, 3, 3, 3]
        iterations = [r for r in report.metrics if r["record"] == "iteration"]
        assert iterations and all(np.isfinite(r["objective"]) for r in iterations)

    def test_isolated_data_vertices_fill_balance(self):
        # 10 connected vertices + 10 isolated ones.
        graph = BipartiteGraph.from_hyperedges(
            [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]], num_data=20
        )
        result = shp_k(graph, 2, seed=1)
        sizes = np.bincount(result.assignment, minlength=2)
        assert abs(int(sizes[0]) - int(sizes[1])) <= 2

    def test_duplicate_heavy_hyperedges(self):
        # The same hyperedge repeated many times: must stay uncut.
        hyperedges = [[0, 1, 2]] * 20 + [[3, 4, 5]] * 20
        graph = BipartiteGraph.from_hyperedges(hyperedges, num_data=6)
        result = shp_k(graph, 2, seed=2, move_damping=0.5)
        assert average_fanout(graph, result.assignment, 2) == 1.0


class TestNumericalEdges:
    def test_tiny_p(self):
        graph = _disconnected(2, 10)
        result = shp_k(graph, 2, seed=1, p=1e-6)
        assert average_fanout(graph, result.assignment, 2) <= 2.0

    def test_counts_dtype_stays_compact(self, medium_graph, rng):
        assignment = rng.integers(0, 64, medium_graph.num_data).astype(np.int32)
        counts = bucket_counts(medium_graph, assignment, 64)
        assert counts.dtype == np.int32

    def test_evaluate_on_single_bucket_assignment(self, medium_graph):
        assignment = np.zeros(medium_graph.num_data, dtype=np.int32)
        quality = evaluate_partition(medium_graph, assignment, 4)
        assert quality.fanout == 1.0
        assert quality.hyperedge_cut == 0.0
        assert quality.imbalance == 3.0  # all weight in one of four buckets

    def test_config_zero_convergence_runs_all_iterations(self):
        graph = _disconnected(2, 20)
        config = SHPConfig(k=2, seed=1, max_iterations=7, convergence_fraction=0.0)
        from repro import SHPKPartitioner

        result = SHPKPartitioner(config).partition(graph)
        assert result.num_iterations == 7
