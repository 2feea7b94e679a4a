"""Tests for the batched replay engine and the online serving simulator."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.replay_loop import replay_traffic_loop
from repro import SHPConfig
from repro.cli import main
from repro.core import budgeted_incremental_update, incremental_update
from repro.hypergraph import BipartiteGraph, darwini_bipartite
from repro.sharding import ReplayResult, replay_traffic
from repro.workloads import (
    ServingConfig,
    ServingSimulator,
    apply_query_churn,
    sample_queries,
)


@pytest.fixture(scope="module")
def darwini_graph() -> BipartiteGraph:
    return darwini_bipartite(1500, avg_degree=20, clustering=0.4, seed=3)


class TestBatchLoopParity:
    def test_counters_bitwise_identical(self, darwini_graph):
        graph = darwini_graph
        assignment = (np.arange(graph.num_data) % 12).astype(np.int64)
        trace = sample_queries(graph, 4000, skew=0.8, seed=5)
        batch = replay_traffic(graph, assignment, 12, trace, seed=7)
        loop = replay_traffic_loop(graph, assignment, 12, trace, seed=7)
        assert np.array_equal(batch.fanouts, loop.fanouts)
        assert np.array_equal(batch.records, loop.records)
        assert batch.requests_total == loop.requests_total
        assert batch.records_total == loop.records_total

    def test_latencies_same_distribution(self, darwini_graph):
        graph = darwini_graph
        assignment = (np.arange(graph.num_data) % 8).astype(np.int64)
        trace = sample_queries(graph, 5000, seed=6)
        batch = replay_traffic(graph, assignment, 8, trace, seed=9)
        loop = replay_traffic_loop(graph, assignment, 8, trace, seed=9)
        assert np.isclose(batch.mean_latency(), loop.mean_latency(), rtol=0.05)

    def test_empty_queries_skipped_in_both_paths(self):
        # Query 1 has no neighbors: neither path may emit a sample for it.
        graph = BipartiteGraph.from_hyperedges([[0, 1, 2], [], [2, 3]], num_data=4)
        assignment = np.array([0, 0, 1, 1])
        trace = np.array([0, 1, 2, 1])
        for replay in (replay_traffic, replay_traffic_loop):
            result = replay(graph, assignment, 2, trace, seed=1)
            assert result.num_samples == 2
            assert result.fanouts.tolist() == [2, 1]
            assert result.records.tolist() == [3, 2]

    def test_empty_trace(self, darwini_graph):
        assignment = np.zeros(darwini_graph.num_data, dtype=np.int64)
        for replay in (replay_traffic, replay_traffic_loop):
            result = replay(
                darwini_graph, assignment, 4, np.empty(0, dtype=np.int64), seed=0
            )
            assert result.num_samples == 0
            assert result.requests_total == 0

    @pytest.mark.parametrize(
        "query_ids, named",
        [([3, -2], "-2"), ([-1], "-1"), ([0, 10**6], "1000000")],
    )
    def test_out_of_range_query_id_rejected(self, darwini_graph, query_ids, named):
        # Regression: -2 wrapped through q_indptr and replayed the *last*
        # query, -1 was silently dropped, a too-large id was a bare
        # IndexError from inside the gather.
        assignment = np.zeros(darwini_graph.num_data, dtype=np.int64)
        with pytest.raises(ValueError, match=f"query id {named} "):
            replay_traffic(darwini_graph, assignment, 4, np.array(query_ids))

    def test_short_assignment_rejected(self, darwini_graph):
        assignment = np.zeros(darwini_graph.num_data - 1, dtype=np.int64)
        with pytest.raises(ValueError, match=f"{darwini_graph.num_data - 1} entries"):
            replay_traffic(darwini_graph, assignment, 4, np.array([0]))


class TestReplayResult:
    def test_struct_of_arrays_fields(self):
        result = ReplayResult(
            fanouts=[2, 3], latencies=[1.0, 2.0], records=[4, 5],
            requests_total=5, records_total=9,
        )
        assert result.fanouts.dtype == np.int64
        assert result.mean_fanout() == 2.5
        assert result.latency_percentile(50) == 1.5

    def test_empty_result_defaults(self):
        result = ReplayResult()
        assert result.mean_fanout() == 0.0
        assert result.mean_latency() == 0.0
        assert result.cpu_proxy() == 0.0


class TestQueryChurn:
    def test_shape_preserved_and_graph_valid(self, darwini_graph):
        rng = np.random.default_rng(4)
        churned = apply_query_churn(darwini_graph, 0.1, rng)
        assert churned.num_queries == darwini_graph.num_queries
        assert churned.num_data == darwini_graph.num_data
        churned.validate()
        assert not np.array_equal(churned.q_indptr, darwini_graph.q_indptr) or (
            not np.array_equal(churned.q_indices, darwini_graph.q_indices)
        )

    def test_zero_fraction_is_identity(self, darwini_graph):
        rng = np.random.default_rng(4)
        assert apply_query_churn(darwini_graph, 0.0, rng) is darwini_graph


class TestBudgetedIncremental:
    def test_never_worse_than_unbudgeted_churn(self, medium_graph):
        from repro import shp_2

        previous = shp_2(medium_graph, 8, seed=1).assignment
        drifted = apply_query_churn(medium_graph, 0.2, np.random.default_rng(2))
        config = SHPConfig(k=8, seed=3, max_iterations=6)
        plain = incremental_update(drifted, previous, config)
        budgeted = budgeted_incremental_update(
            drifted, previous, config, budget=0.02, max_attempts=3
        )
        assert budgeted.churn <= plain.churn

    def test_loose_budget_returns_first_attempt(self, medium_graph):
        from repro import shp_2

        previous = shp_2(medium_graph, 8, seed=1).assignment
        config = SHPConfig(k=8, seed=3, max_iterations=6)
        plain = incremental_update(medium_graph, previous, config)
        budgeted = budgeted_incremental_update(
            medium_graph, previous, config, budget=1.0
        )
        assert budgeted.churn == plain.churn

    def test_negative_budget_rejected(self, medium_graph):
        with pytest.raises(ValueError):
            budgeted_incremental_update(
                medium_graph, np.zeros(medium_graph.num_data, dtype=np.int32),
                SHPConfig(k=8), budget=-0.1,
            )


class TestServingSimulator:
    def test_end_to_end_rounds(self, darwini_graph):
        config = ServingConfig(
            num_servers=8, rounds=2, queries_per_round=600,
            churn_fraction=0.08, migration_budget=0.15,
            repair_iterations=5, seed=11,
        )
        outcome = ServingSimulator(darwini_graph, config).run()
        assert len(outcome.rounds) == 3  # baseline + 2 serving rounds
        assert [r.round_index for r in outcome.rounds] == [0, 1, 2]
        baseline = outcome.rounds[0]
        assert baseline.churn == 0.0 and baseline.moved_records == 0
        for report in outcome.rounds:
            assert report.fanout > 0 and report.latency_ms > 0
            assert report.p99_latency_ms >= report.latency_ms
            assert 0.0 <= report.churn <= 1.0
            assert report.moved_records == round(report.churn * darwini_graph.num_data)
        assert outcome.final_assignment.size == darwini_graph.num_data
        assert outcome.final_graph.num_queries == darwini_graph.num_queries
        assert outcome.total_migrated() == sum(r.moved_records for r in outcome.rounds)

    def test_repair_beats_stale_map_under_drift(self, darwini_graph):
        config = ServingConfig(
            num_servers=8, rounds=3, queries_per_round=800,
            churn_fraction=0.15, migration_budget=0.5,
            repair_iterations=8, seed=2,
        )
        outcome = ServingSimulator(darwini_graph, config).run()
        stale = sum(r.stale_fanout for r in outcome.rounds[1:])
        repaired = sum(r.fanout for r in outcome.rounds[1:])
        assert repaired <= stale  # the repair must pay for itself on average

    def test_rows_are_table_ready(self, darwini_graph):
        config = ServingConfig(
            num_servers=4, rounds=1, queries_per_round=200,
            repair_iterations=3, seed=5,
        )
        rows = ServingSimulator(darwini_graph, config).run().rows()
        assert all("churn %" in row and "fanout" in row for row in rows)

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(num_servers=1)
        with pytest.raises(ValueError):
            ServingConfig(rounds=0)
        with pytest.raises(ValueError):
            ServingConfig(churn_fraction=1.5)
        with pytest.raises(ValueError):
            ServingConfig(method="async")


class TestServeSimCLI:
    def test_generated_workload(self, capsys):
        rc = main([
            "serve-sim", "--users", "600", "--avg-degree", "12",
            "--servers", "4", "--rounds", "1", "--queries", "300",
            "--repair-iterations", "3", "--seed", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "churn %" in out and "p99 lat" in out
        assert "records migrated" in out

    def test_graph_file_input(self, tmp_path, capsys):
        from repro.hypergraph import community_bipartite, write_hmetis

        graph = community_bipartite(300, 400, 3000, num_communities=8, seed=3)
        path = tmp_path / "g.hgr"
        write_hmetis(graph, path)
        rc = main([
            "serve-sim", str(path), "--servers", "4", "--rounds", "1",
            "--queries", "200", "--repair-iterations", "3",
        ])
        assert rc == 0
        assert "churn %" in capsys.readouterr().out
