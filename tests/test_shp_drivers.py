"""Tests for the SHP-k and SHP-2 drivers and shared refinement loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro import SHP2Partitioner, SHPConfig, SHPKPartitioner, shp_2, shp_k
from repro.core import balanced_random_assignment
from repro.objectives import average_fanout, evaluate_partition, imbalance


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = SHPConfig(k=8)
        assert cfg.p == 0.5
        assert cfg.epsilon == 0.05
        assert cfg.max_iterations == 60
        assert cfg.iterations_per_bisection == 20

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 1},
            {"k": 4, "p": 0.0},
            {"k": 4, "p": 1.5},
            {"k": 4, "epsilon": -0.1},
            {"k": 4, "matcher": "magic"},
            {"k": 4, "swap_mode": "sometimes"},
            {"k": 4, "move_damping": 0.0},
            {"k": 4, "objective": "modularity"},
            {"k": 4, "track_metrics": "everything"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SHPConfig(**kwargs)

    def test_with_copies(self):
        cfg = SHPConfig(k=4)
        other = cfg.with_(k=8, p=0.9)
        assert other.k == 8 and other.p == 0.9
        assert cfg.k == 4  # original untouched


class TestSHPK:
    def test_improves_over_random(self, medium_graph):
        rng = np.random.default_rng(0)
        random_assign = balanced_random_assignment(medium_graph.num_data, 8, rng)
        before = average_fanout(medium_graph, random_assign, 8)
        result = shp_k(medium_graph, 8, seed=1)
        after = average_fanout(medium_graph, result.assignment, 8)
        assert after < 0.8 * before

    def test_balance_respected(self, medium_graph):
        result = shp_k(medium_graph, 8, seed=1, epsilon=0.05)
        assert imbalance(result.assignment, 8) <= 0.05 + 1e-9

    def test_deterministic_given_seed(self, medium_graph):
        a = shp_k(medium_graph, 4, seed=42)
        b = shp_k(medium_graph, 4, seed=42)
        assert np.array_equal(a.assignment, b.assignment)

    def test_seed_matters(self, medium_graph):
        a = shp_k(medium_graph, 4, seed=1)
        b = shp_k(medium_graph, 4, seed=2)
        assert not np.array_equal(a.assignment, b.assignment)

    def test_history_recorded(self, medium_graph):
        result = shp_k(medium_graph, 4, seed=1)
        assert result.num_iterations >= 1
        assert all(s.objective_value is not None for s in result.history)

    def test_track_full_records_fanout(self, medium_graph):
        cfg = SHPConfig(k=4, seed=1, track_metrics="full", max_iterations=5)
        result = SHPKPartitioner(cfg).partition(medium_graph)
        assert all(s.fanout is not None for s in result.history)

    def test_warm_start_is_used(self, medium_graph):
        first = shp_k(medium_graph, 4, seed=3)
        cfg = SHPConfig(k=4, seed=4, max_iterations=3)
        warm = SHPKPartitioner(cfg).partition(medium_graph, initial=first.assignment)
        f_first = average_fanout(medium_graph, first.assignment, 4)
        f_warm = average_fanout(medium_graph, warm.assignment, 4)
        assert f_warm <= f_first + 0.05  # does not regress from a good start

    def test_invalid_warm_start_rejected(self, medium_graph):
        cfg = SHPConfig(k=4)
        bad = np.full(medium_graph.num_data, 7, dtype=np.int32)
        with pytest.raises(ValueError):
            SHPKPartitioner(cfg).partition(medium_graph, initial=bad)

    @pytest.mark.parametrize("epsilon", [0.05, 0.0])
    @pytest.mark.parametrize("driver", [shp_2, shp_k], ids=["shp_2", "shp_k"])
    def test_damped_moves_stay_under_the_cap(self, driver, epsilon):
        """Regression: with ``move_damping < 1`` the default (strict,
        histogram) matcher rounded each cell's damped quota on its own, the
        two directions of a pair drifted apart, and the largest bucket ended
        at 529 / 533 (cap 525) and 506 / 516 (cap 500) on this input."""
        from repro.hypergraph import darwini_bipartite

        graph = darwini_bipartite(4000, avg_degree=10, seed=1).remove_small_queries()
        result = driver(graph, 8, seed=3, epsilon=epsilon, move_damping=0.5)
        cap = int(np.floor((1 + epsilon) * graph.num_data / 8))
        assert np.bincount(result.assignment, minlength=8).max() <= cap

    def test_uniform_matcher_also_optimizes(self, medium_graph):
        result = shp_k(medium_graph, 8, seed=1, matcher="uniform")
        rng = np.random.default_rng(0)
        random_assign = balanced_random_assignment(medium_graph.num_data, 8, rng)
        assert average_fanout(medium_graph, result.assignment, 8) < average_fanout(
            medium_graph, random_assign, 8
        )

    def test_objective_value_trends_down(self, medium_graph):
        result = shp_k(medium_graph, 8, seed=5)
        values = [s.objective_value for s in result.history]
        assert values[-1] < values[0]

    def test_cliquenet_objective_runs(self, medium_graph):
        result = shp_k(medium_graph, 4, seed=1, objective="cliquenet")
        from repro.objectives import weighted_edge_cut

        rng = np.random.default_rng(0)
        random_assign = balanced_random_assignment(medium_graph.num_data, 4, rng)
        assert weighted_edge_cut(medium_graph, result.assignment, 4) < weighted_edge_cut(
            medium_graph, random_assign, 4
        )


class TestSHP2:
    def test_produces_k_buckets(self, medium_graph):
        result = shp_2(medium_graph, 8, seed=1)
        assert set(np.unique(result.assignment)) <= set(range(8))
        assert np.unique(result.assignment).size == 8

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
    def test_arbitrary_k(self, medium_graph, k):
        result = shp_2(medium_graph, k, seed=1)
        sizes = np.bincount(result.assignment, minlength=k)
        assert sizes.sum() == medium_graph.num_data
        assert imbalance(result.assignment, k) <= 0.08  # ε + small slack

    def test_balance_respected(self, medium_graph):
        result = shp_2(medium_graph, 16, seed=2, epsilon=0.05)
        assert imbalance(result.assignment, 16) <= 0.05 + 1e-9

    def test_recovers_planted_partition(self, planted_graph):
        result = shp_2(planted_graph, 4, seed=1)
        fanout = average_fanout(planted_graph, result.assignment, 4)
        assert fanout < 1.3  # near the planted optimum of ~1.03

    def test_deterministic_given_seed(self, medium_graph):
        a = shp_2(medium_graph, 8, seed=9)
        b = shp_2(medium_graph, 8, seed=9)
        assert np.array_equal(a.assignment, b.assignment)

    def test_levels_recorded(self, medium_graph):
        result = shp_2(medium_graph, 8, seed=1)
        assert result.extra["num_levels"] == 3  # log2(8)

    def test_final_pfanout_toggle_runs(self, medium_graph):
        on = shp_2(medium_graph, 8, seed=1, use_final_pfanout=True)
        off = shp_2(medium_graph, 8, seed=1, use_final_pfanout=False)
        # Both must be valid partitions; quality may differ either way.
        for result in (on, off):
            assert np.unique(result.assignment).size == 8

    def test_epsilon_schedule_controls_compounding(self, medium_graph):
        """Without the schedule, per-level slack can compound slightly past ε
        (the motivation for Section 3.4's schedule); with it, ε holds."""
        loose = shp_2(medium_graph, 8, seed=1, epsilon_schedule=False)
        tight = shp_2(medium_graph, 8, seed=1, epsilon_schedule=True)
        assert imbalance(loose.assignment, 8) <= 2 * 0.05
        assert imbalance(tight.assignment, 8) <= 0.05 + 1e-9

    def test_warm_start(self, medium_graph):
        first = shp_2(medium_graph, 8, seed=3)
        cfg = SHPConfig(k=8, seed=4, iterations_per_bisection=3)
        warm = SHP2Partitioner(cfg).partition(medium_graph, initial=first.assignment)
        f_first = average_fanout(medium_graph, first.assignment, 8)
        f_warm = average_fanout(medium_graph, warm.assignment, 8)
        assert f_warm <= f_first + 0.05

    def test_quality_close_to_shp_k(self, medium_graph):
        """Paper: SHP-2 typically within 5-10% of SHP-k."""
        f2 = average_fanout(medium_graph, shp_2(medium_graph, 8, seed=1).assignment, 8)
        fk = average_fanout(medium_graph, shp_k(medium_graph, 8, seed=1).assignment, 8)
        assert f2 <= 1.25 * fk

    def test_tiny_graph_does_not_crash(self, tiny_graph):
        result = shp_2(tiny_graph, 2, seed=1)
        assert result.assignment.size == tiny_graph.num_data


class TestEvaluateIntegration:
    def test_quality_report(self, medium_graph):
        result = shp_2(medium_graph, 8, seed=1)
        quality = evaluate_partition(medium_graph, result.assignment, 8)
        assert 1.0 <= quality.fanout <= 8.0
        assert quality.pfanout_05 <= quality.fanout
        assert quality.soed >= quality.fanout
