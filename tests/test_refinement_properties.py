"""Property and invariant tests for the refinement loop itself."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SHPConfig
from repro.core import capacities, refine
from repro.core.partition import balanced_random_assignment, bucket_sizes
from repro.core.refinement import build_matcher, build_objective
from repro.hypergraph import community_bipartite
from repro.objectives import (
    CliqueNetObjective,
    FanoutObjective,
    PFanoutObjective,
    ScaledPFanout,
    bucket_counts,
)


class TestBuildObjective:
    def test_default_pfanout(self):
        obj = build_objective(SHPConfig(k=4, p=0.3))
        assert isinstance(obj, PFanoutObjective)
        assert obj.p == 0.3

    def test_fanout_forces_p1(self):
        obj = build_objective(SHPConfig(k=4, objective="fanout", p=0.3))
        assert isinstance(obj, FanoutObjective)

    def test_cliquenet_ignores_splits(self):
        obj = build_objective(
            SHPConfig(k=4, objective="cliquenet"), splits_ahead=np.array([4.0, 2.0])
        )
        assert isinstance(obj, CliqueNetObjective)

    def test_scaled_when_splits_given(self):
        obj = build_objective(SHPConfig(k=4, p=0.5), splits_ahead=np.array([2.0, 4.0]))
        assert isinstance(obj, ScaledPFanout)

    def test_unit_splits_degenerate_to_plain(self):
        obj = build_objective(SHPConfig(k=4, p=0.5), splits_ahead=np.array([1, 1]))
        assert isinstance(obj, PFanoutObjective)


class TestBuildMatcher:
    def test_histogram_default(self):
        from repro.core import HistogramMatcher

        matcher = build_matcher(SHPConfig(k=4))
        assert isinstance(matcher, HistogramMatcher)

    def test_uniform_selectable(self):
        from repro.core import UniformMatcher

        matcher = build_matcher(SHPConfig(k=4, matcher="uniform"))
        assert isinstance(matcher, UniformMatcher)


class TestRefineInvariants:
    @pytest.fixture
    def setup(self):
        graph = community_bipartite(600, 900, 6000, num_communities=12, mixing=0.2, seed=3)
        config = SHPConfig(k=6, seed=5, max_iterations=15)
        rng = np.random.default_rng(config.seed)
        assignment = balanced_random_assignment(graph.num_data, 6, rng)
        return graph, config, assignment, rng

    def test_strict_mode_never_exceeds_caps(self, setup):
        graph, config, assignment, rng = setup
        caps = capacities(graph.num_data, 6, config.epsilon)
        objective = build_objective(config)
        outcome = refine(graph, assignment, 6, objective, config, caps, rng, 15)
        sizes = bucket_sizes(outcome.assignment, 6)
        assert np.all(sizes <= caps)

    def test_objective_never_worse_overall(self, setup):
        graph, config, assignment, rng = setup
        caps = capacities(graph.num_data, 6, config.epsilon)
        objective = build_objective(config)
        before = objective.value_from_counts(bucket_counts(graph, assignment, 6))
        outcome = refine(graph, assignment, 6, objective, config, caps, rng, 15)
        after = objective.value_from_counts(bucket_counts(graph, outcome.assignment, 6))
        assert after < before

    def test_input_assignment_not_mutated(self, setup):
        graph, config, assignment, rng = setup
        caps = capacities(graph.num_data, 6, config.epsilon)
        original = assignment.copy()
        refine(graph, assignment, 6, build_objective(config), config, caps, rng, 5)
        assert np.array_equal(assignment, original)

    def test_empty_graph_short_circuits(self):
        from repro.hypergraph import BipartiteGraph

        graph = BipartiteGraph.from_hyperedges([], num_data=10)
        config = SHPConfig(k=2)
        rng = np.random.default_rng(0)
        assignment = balanced_random_assignment(10, 2, rng)
        outcome = refine(
            graph, assignment, 2, build_objective(config), config,
            capacities(10, 2, 0.05), rng, 5,
        )
        assert outcome.converged
        assert outcome.history == []

    def test_history_iterations_sequential(self, setup):
        graph, config, assignment, rng = setup
        caps = capacities(graph.num_data, 6, config.epsilon)
        outcome = refine(graph, assignment, 6, build_objective(config), config, caps, rng, 10)
        iterations = [s.iteration for s in outcome.history]
        assert iterations == list(range(1, len(iterations) + 1))


class TestBalancedRandomAssignment:
    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=500),
        st.integers(min_value=2, max_value=16),
    )
    def test_exact_quotas(self, n, k):
        rng = np.random.default_rng(0)
        assignment = balanced_random_assignment(n, k, rng)
        sizes = np.bincount(assignment, minlength=k)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=10, max_value=300),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_proportional_quotas(self, n, ratio):
        rng = np.random.default_rng(1)
        proportions = np.array([1.0, ratio])
        assignment = balanced_random_assignment(n, 2, rng, proportions=proportions)
        sizes = np.bincount(assignment, minlength=2)
        expected = n * proportions / proportions.sum()
        assert abs(sizes[0] - expected[0]) <= 1.0

    def test_randomized_order(self):
        rng = np.random.default_rng(2)
        a = balanced_random_assignment(100, 4, rng)
        b = balanced_random_assignment(100, 4, rng)
        assert not np.array_equal(a, b)  # new draws differ


class TestCapacities:
    def test_uniform(self):
        caps = capacities(100, 4, 0.05)
        assert caps.tolist() == [26, 26, 26, 26]

    def test_never_below_ceil_target(self):
        caps = capacities(10, 3, 0.0)
        assert np.all(caps >= np.ceil(10 / 3))

    def test_proportional(self):
        caps = capacities(100, 2, 0.1, proportions=np.array([3.0, 1.0]))
        assert caps[0] > caps[1]
        assert caps.sum() >= 100


class TestWeightedBalance:
    """Regression: refine() balanced raw vertex counts while
    evaluate_partition reports weight-aware imbalance — with data_weights
    set, sizes and capacities must live in weight units so the reported ε
    is the enforced ε."""

    @pytest.fixture
    def weighted_graph(self):
        from repro.hypergraph import BipartiteGraph

        base = community_bipartite(
            800, 1200, 8000, num_communities=16, mixing=0.2, seed=7
        )
        rng = np.random.default_rng(1)
        weights = rng.uniform(0.5, 1.5, base.num_data)
        weights[rng.choice(base.num_data, 60, replace=False)] = 8.0
        return BipartiteGraph(
            num_queries=base.num_queries,
            num_data=base.num_data,
            q_indptr=base.q_indptr,
            q_indices=base.q_indices,
            d_indptr=base.d_indptr,
            d_indices=base.d_indices,
            data_weights=weights,
        ), weights

    def test_shp_k_honors_weighted_epsilon(self, weighted_graph):
        from repro import shp_k
        from repro.objectives import imbalance

        graph, weights = weighted_graph
        k, eps = 8, 0.05
        result = shp_k(graph, k, seed=1, epsilon=eps)
        # Granularity slack: one heaviest vertex relative to the target.
        slack = weights.max() / (weights.sum() / k)
        assert imbalance(result.assignment, k, weights) <= eps + slack

    @pytest.mark.parametrize("level_mode", ["loop", "fused"])
    def test_shp_2_honors_weighted_epsilon(self, weighted_graph, level_mode):
        from oracles.shp2_loop import shp_2_loop
        from repro import shp_2
        from repro.objectives import imbalance

        graph, weights = weighted_graph
        k, eps = 8, 0.05
        run = {"loop": shp_2_loop, "fused": shp_2}[level_mode]
        result = run(graph, k, seed=1, epsilon=eps)
        slack = weights.max() / (weights.sum() / k)
        assert imbalance(result.assignment, k, weights) <= eps + slack

    def test_weight_blind_baseline_would_violate(self, weighted_graph):
        """The counterfactual that motivated the fix: optimizing the same
        topology without weights leaves weighted imbalance far above ε."""
        from repro import shp_k
        from repro.hypergraph import BipartiteGraph
        from repro.objectives import imbalance

        graph, weights = weighted_graph
        blind = BipartiteGraph(
            num_queries=graph.num_queries,
            num_data=graph.num_data,
            q_indptr=graph.q_indptr,
            q_indices=graph.q_indices,
            d_indptr=graph.d_indptr,
            d_indices=graph.d_indices,
        )
        result = shp_k(blind, 8, seed=1, epsilon=0.05)
        assert imbalance(result.assignment, 8, weights) > 0.10


class TestEnforceWeightedCaps:
    def test_cancels_cheapest_over_cap_moves(self):
        from repro.core import enforce_weighted_caps

        # Two buckets; three movers 0 -> 1 with weights 2, 2, 2; bucket 1 has
        # room for one mover's weight only: the two cheapest are cancelled.
        move = np.array([True, True, True])
        src = np.zeros(3, dtype=np.int64)
        dst = np.ones(3, dtype=np.int64)
        gain = np.array([3.0, 1.0, 2.0])
        weights = np.full(3, 2.0)
        sizes = np.array([6.0, 4.0])
        caps = np.array([10.0, 6.5])
        adjusted = enforce_weighted_caps(move, src, dst, gain, weights, sizes, caps)
        assert adjusted.tolist() == [True, False, False]

    def test_noop_when_within_caps(self):
        from repro.core import enforce_weighted_caps

        move = np.array([True, False, True])
        src = np.array([0, 0, 1], dtype=np.int64)
        dst = np.array([1, 1, 0], dtype=np.int64)
        gain = np.array([1.0, 1.0, 1.0])
        weights = np.ones(3)
        sizes = np.array([2.0, 1.0])
        caps = np.array([10.0, 10.0])
        adjusted = enforce_weighted_caps(move, src, dst, gain, weights, sizes, caps)
        assert adjusted.tolist() == [True, False, True]

    def test_cascade_returns_to_source(self):
        from repro.core import enforce_weighted_caps

        # 0 -> 1 granted, 1 -> 0 granted; cancelling the incoming at bucket 1
        # pushes bucket 0 back over, cascading a second cancellation.
        move = np.array([True, True])
        src = np.array([0, 1], dtype=np.int64)
        dst = np.array([1, 0], dtype=np.int64)
        gain = np.array([1.0, 2.0])
        weights = np.array([5.0, 1.0])
        sizes = np.array([5.0, 1.0])
        caps = np.array([5.0, 1.5])
        adjusted = enforce_weighted_caps(move, src, dst, gain, weights, sizes, caps)
        # After both moves sizes would be (1, 5): bucket 1 over cap -> cancel
        # the weight-5 mover (size 0 back at 5... within cap 5); bucket 0 then
        # holds 5 + incoming 1 = 6 > 5 -> cancel the reverse mover too.
        assert adjusted.tolist() == [False, False]
