"""Tests for the synthetic graph generators (dataset stand-ins)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hypergraph import (
    community_bipartite,
    darwini_bipartite,
    darwini_friendship_edges,
    figure2_graph,
    figure2_reference_partition,
    planted_partition_bipartite,
    power_law_degrees,
    random_bipartite,
    ring_social_bipartite,
    web_host_bipartite,
)
from repro.objectives import average_fanout, bucket_counts


class TestPowerLawDegrees:
    def test_mean_targeting(self, rng):
        degrees = power_law_degrees(5000, mean_degree=12.0, rng=rng)
        assert 8.0 < degrees.mean() < 16.0

    def test_min_degree_respected(self, rng):
        degrees = power_law_degrees(1000, mean_degree=5.0, min_degree=2, rng=rng)
        assert degrees.min() >= 2

    def test_heavy_tail_present(self, rng):
        degrees = power_law_degrees(20000, mean_degree=10.0, exponent=2.1, rng=rng)
        assert degrees.max() > 5 * degrees.mean()

    def test_empty(self, rng):
        assert power_law_degrees(0, 10.0, rng=rng).size == 0


class TestCommunityBipartite:
    def test_shapes_and_validity(self):
        g = community_bipartite(500, 800, 5000, num_communities=10, seed=1)
        g.validate()
        assert g.num_data == 800
        assert g.query_degrees.min() >= 2  # degree-1 queries filtered

    def test_deterministic(self):
        a = community_bipartite(300, 400, 2500, seed=9)
        b = community_bipartite(300, 400, 2500, seed=9)
        assert np.array_equal(a.q_indices, b.q_indices)

    def test_more_communities_than_items_is_a_named_error(self):
        """Used to spin forever: every size is already 1, so the rounding
        drift could never be paid back.  Run under a hard timeout."""
        import threading

        raised: list[Exception] = []

        def call():
            try:
                community_bipartite(50, 8, 200, num_communities=9, seed=1)
            except ValueError as exc:
                raised.append(exc)

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        thread.join(timeout=20)
        assert not thread.is_alive(), "community_bipartite hung"
        assert raised and "8 items into 9" in str(raised[0])
        community_bipartite(50, 8, 200, num_communities=8, seed=1).validate()

    def test_seed_changes_graph(self):
        a = community_bipartite(300, 400, 2500, seed=1)
        b = community_bipartite(300, 400, 2500, seed=2)
        assert not np.array_equal(a.q_indices[: b.q_indices.size], b.q_indices[: a.q_indices.size])

    def test_low_mixing_is_more_partitionable(self):
        """Structural knob check: local graphs have lower optimal fanout."""
        from repro import shp_2

        local = community_bipartite(600, 900, 6000, mixing=0.02, seed=4)
        mixed = community_bipartite(600, 900, 6000, mixing=0.6, seed=4)
        f_local = average_fanout(local, shp_2(local, 8, seed=1).assignment, 8)
        f_mixed = average_fanout(mixed, shp_2(mixed, 8, seed=1).assignment, 8)
        assert f_local < f_mixed


class TestOtherGenerators:
    def test_ring_social(self):
        g = ring_social_bipartite(1000, avg_friends=12, seed=2)
        g.validate()
        assert g.num_data == 1000

    def test_web_host(self):
        g = web_host_bipartite(1500, num_hosts=30, seed=2)
        g.validate()
        assert g.num_data == 1500

    def test_random_bipartite(self):
        g = random_bipartite(400, 600, 4000, seed=5)
        g.validate()
        assert g.num_edges <= 4000  # dedupe may remove a few

    def test_darwini_friendships_unique_undirected(self):
        u, v = darwini_friendship_edges(800, avg_degree=10, seed=3)
        assert np.all(u < v)
        key = u * 800 + v
        assert np.unique(key).size == key.size

    def test_darwini_bipartite_matches_friendships(self):
        g = darwini_bipartite(500, avg_degree=10, seed=3)
        g.validate()
        # Before degree-1 filtering, query u spans exactly friends(u); total
        # pins must be 2 x friendships minus pins of dropped degree-1 users.
        u, v = darwini_friendship_edges(500, avg_degree=10, seed=3)
        friend_count = np.bincount(np.concatenate([u, v]), minlength=500)
        expected_pins = int(friend_count[friend_count >= 2].sum())
        assert g.num_edges == expected_pins
        assert g.num_queries == int((friend_count >= 2).sum())


class TestPlantedPartition:
    def test_zero_noise_has_fanout_one(self):
        g = planted_partition_bipartite(200, 4, 100, noise=0.0, seed=1)
        planted = (np.arange(200) // 50).astype(np.int32)
        assert average_fanout(g, planted, 4) == 1.0

    def test_part_too_small_rejected(self):
        with pytest.raises(ValueError):
            planted_partition_bipartite(20, 10, 5, query_degree=6)


class TestFigure2:
    def test_counts_are_two_two(self):
        g = figure2_graph()
        counts = bucket_counts(g, figure2_reference_partition(), 2)
        assert np.all(counts == 2)

    def test_no_improving_fanout_move(self):
        from repro.core import move_gains_dense
        from repro.objectives import FanoutObjective

        g = figure2_graph()
        a = figure2_reference_partition()
        gains = move_gains_dense(g, a, bucket_counts(g, a, 2), FanoutObjective())
        assert gains.max() <= 0.0

    def test_pfanout_sees_improving_moves(self):
        from repro.core import move_gains_dense
        from repro.objectives import PFanoutObjective

        g = figure2_graph()
        a = figure2_reference_partition()
        gains = move_gains_dense(g, a, bucket_counts(g, a, 2), PFanoutObjective(0.5))
        assert gains.max() > 0.0

    def test_designed_swap_reaches_optimum(self):
        g = figure2_graph()
        a = figure2_reference_partition().copy()
        # Swap {2,3} with {4,5}: the move plain fanout scores as zero-gain.
        a[[2, 3]] = 1
        a[[4, 5]] = 0
        total_fanout = average_fanout(g, a, 2) * g.num_queries
        assert total_fanout == 4.0  # q1 and q3 uncut; q2 necessarily spans
