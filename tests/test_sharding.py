"""Tests for the storage-sharding simulator (Section 4.2.1 substrate)."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.replay_loop import plan_multiget
from repro.sharding import (
    LatencyModel,
    ReplayResult,
    ShardedKVStore,
    latency_by_fanout,
    percentile_curve,
    replay_traffic,
)
from repro.workloads import sample_queries, zipf_weights


class TestLatencyModel:
    def test_mean_normalized(self):
        model = LatencyModel(base_ms=2.0, sigma=0.8)
        rng = np.random.default_rng(0)
        draws = model.draw(rng, np.ones(200_000))
        assert np.isclose(draws.mean(), 2.0, rtol=0.05)

    def test_latency_increases_with_fanout(self):
        model = LatencyModel(sigma=0.8)
        rng = np.random.default_rng(1)
        low = model.fanout_latency_matrix(rng, 2, 5000).mean()
        high = model.fanout_latency_matrix(rng, 30, 5000).mean()
        assert high > 1.5 * low

    def test_size_effect(self):
        model = LatencyModel(sigma=0.1, size_ms_per_record=1.0)
        rng = np.random.default_rng(2)
        small = model.draw(rng, np.full(1000, 1.0)).mean()
        large = model.draw(rng, np.full(1000, 100.0)).mean()
        assert large > small + 90.0

    def test_multiget_is_max_like(self):
        model = LatencyModel(sigma=0.0)  # deterministic: latency = base
        rng = np.random.default_rng(3)
        latencies = model.multiget_batch(rng, np.ones(5), np.array([0, 2]))
        assert np.allclose(latencies, [1.0, 1.0])

    def test_percentile_curve_monotone_in_p(self):
        model = LatencyModel(sigma=0.8)
        curve = percentile_curve(model, np.array([1, 10, 40]), trials=2000, seed=4)
        for idx in range(3):
            assert curve[50.0][idx] <= curve[90.0][idx] <= curve[99.0][idx]

    def test_percentile_curve_monotone_in_fanout(self):
        model = LatencyModel(sigma=0.8)
        curve = percentile_curve(model, np.array([1, 5, 10, 20, 40]), trials=4000, seed=5)
        assert np.all(np.diff(curve[99.0]) > -0.3)  # allow tiny sampling noise
        assert curve[50.0][-1] > curve[50.0][0]


class TestStore:
    def test_plan_multiget_groups(self):
        store = ShardedKVStore(4, np.array([0, 0, 1, 2, 3, 3]))
        _, hit, counts = store.plan_multiget_batch(
            np.array([0, 1, 2, 5]), np.zeros(4, dtype=np.int64)
        )
        assert hit.tolist() == [0, 1, 3]
        assert counts.tolist() == [2, 1, 1]

    def test_counters_accumulate(self):
        store = ShardedKVStore(2, np.array([0, 1]))
        store.plan_multiget_batch(np.array([0, 1]), np.array([0, 0]))
        store.plan_multiget_batch(np.array([0]), np.array([0]))
        assert store.requests_per_server.tolist() == [2, 1]
        assert store.records_per_server.tolist() == [2, 1]
        store.reset_counters()
        assert store.requests_per_server.sum() == 0

    def test_bad_assignment_rejected(self):
        with pytest.raises(ValueError):
            ShardedKVStore(2, np.array([0, 5]))

    def test_negative_server_ids_rejected(self):
        # Regression: negative ids passed the max()-only check and silently
        # corrupted the load counters via negative indexing.
        with pytest.raises(ValueError):
            ShardedKVStore(2, np.array([0, -1]))

    def test_plan_multiget_batch_matches_sequential(self):
        rng = np.random.default_rng(8)
        assignment = rng.integers(0, 5, size=60)
        batched = ShardedKVStore(5, assignment)
        sequential = ShardedKVStore(5, assignment)
        key_lists = [rng.integers(0, 60, size=rng.integers(1, 12)) for _ in range(30)]
        keys = np.concatenate(key_lists)
        query_of_key = np.repeat(np.arange(30), [k.size for k in key_lists])
        req_query, req_server, req_records = batched.plan_multiget_batch(keys, query_of_key)
        fanouts = [plan_multiget(sequential, k)[1].size for k in key_lists]
        assert batched.requests_per_server.tolist() == sequential.requests_per_server.tolist()
        assert batched.records_per_server.tolist() == sequential.records_per_server.tolist()
        assert np.bincount(req_query, minlength=30).tolist() == fanouts
        assert int(req_records.sum()) == keys.size

    def test_load_imbalance(self):
        store = ShardedKVStore(2, np.array([0, 0, 0, 1]))
        assert np.isclose(store.load_imbalance(), 1.5)


class TestReplay:
    def test_fanout_counts_distinct_servers(self, medium_graph):
        assignment = (np.arange(medium_graph.num_data) % 8).astype(np.int64)
        trace = np.arange(min(100, medium_graph.num_queries))
        result = replay_traffic(medium_graph, assignment, 8, trace, seed=1)
        for fanout, q in zip(result.fanouts.tolist(), trace.tolist()):
            keys = medium_graph.query_neighbors(q)
            assert fanout == np.unique(assignment[keys]).size

    def test_better_sharding_lowers_latency(self, medium_graph):
        from repro import shp_2
        from repro.baselines import random_partitioner

        trace = sample_queries(medium_graph, 800, seed=2)
        model = LatencyModel(sigma=0.8)
        good = replay_traffic(
            medium_graph, shp_2(medium_graph, 8, seed=1).assignment, 8, trace, model, seed=3
        )
        bad = replay_traffic(
            medium_graph, random_partitioner(medium_graph, 8, seed=1).assignment, 8,
            trace, model, seed=3,
        )
        assert good.mean_fanout() < bad.mean_fanout()
        assert good.mean_latency() < bad.mean_latency()
        assert good.cpu_proxy() < bad.cpu_proxy()

    def test_latency_by_fanout_bins(self, medium_graph):
        assignment = (np.arange(medium_graph.num_data) % 8).astype(np.int64)
        trace = sample_queries(medium_graph, 1500, seed=4)
        result = replay_traffic(medium_graph, assignment, 8, trace, seed=5)
        curves = latency_by_fanout(result, min_samples=10)
        assert curves
        for fanout, percentiles in curves.items():
            assert percentiles[50.0] <= percentiles[99.0]

    def test_min_samples_filter(self):
        result = ReplayResult(fanouts=[3] * 5, latencies=[1.0] * 5, records=[5] * 5)
        assert latency_by_fanout(result, min_samples=10) == {}
        assert 3 in latency_by_fanout(result, min_samples=5)


class TestWorkloads:
    def test_deterministic(self, medium_graph):
        a = sample_queries(medium_graph, 100, seed=1)
        b = sample_queries(medium_graph, 100, seed=1)
        assert np.array_equal(a, b)

    def test_skew_concentrates_traffic(self, medium_graph):
        skewed = sample_queries(medium_graph, 5000, skew=1.2, seed=2)
        uniform = sample_queries(medium_graph, 5000, skew=0.0, seed=2)
        top_skewed = np.bincount(skewed).max()
        top_uniform = np.bincount(uniform).max()
        assert top_skewed > 2 * top_uniform

    def test_zipf_weights_normalized(self):
        w = zipf_weights(1000, seed=3)
        assert np.isclose(w.sum(), 1.0)
        assert w.min() > 0

    def test_rank_and_draw_streams_independent(self, medium_graph):
        # Regression: zipf_weights and sample_queries both built
        # default_rng(seed), so the rank permutation and the sampling draws
        # consumed identical bit streams.  Pin the decorrelated
        # construction: independent SeedSequence substreams of the seed.
        seed, n, skew = 9, 400, 0.8
        rank_seq, draw_seq = np.random.SeedSequence(seed).spawn(2)
        weights = zipf_weights(
            medium_graph.num_queries, exponent=skew,
            rng=np.random.default_rng(rank_seq),
        )
        expected = np.random.default_rng(draw_seq).choice(
            medium_graph.num_queries, size=n, p=weights
        )
        assert np.array_equal(
            sample_queries(medium_graph, n, skew=skew, seed=seed), expected
        )
        # The draw stream must differ from what the old shared stream drew.
        shared = np.random.default_rng(seed).random(16)
        independent = np.random.default_rng(draw_seq).random(16)
        assert not np.allclose(shared, independent)

    def test_empty_graph(self):
        from repro.hypergraph import BipartiteGraph

        g = BipartiteGraph.from_hyperedges([], num_data=3)
        assert sample_queries(g, 10).size == 0
