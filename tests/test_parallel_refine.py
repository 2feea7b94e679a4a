"""Parity grid and unit tests for shared-memory parallel fused refinement.

The contract under test is the deterministic ascending-block merge
(:mod:`repro.core.parallel_refine`): ``refine_workers=N`` changes *where*
sibling gains are computed — worker processes over shared-memory blocks —
but never the bits.  The grid pins bitwise-identical assignments **and**
identical objective trajectories against the serial path for
``{serial, 2, 4 workers} x {k<=3, k=8} x {unweighted, weighted}`` per seed,
with the dispatch threshold forced to 1 so every gain batch truly crosses
the process boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.shp_dict import run_dict_shp
from repro import SHPConfig, shp_2
from repro.api.spec import ExecutionSpec, SpecError
from repro.core import parallel_refine
from repro.core.parallel_refine import ParallelGainPool, split_ranks_by_edges
from repro.distributed.shared_pool import SharedArrayPack, SharedArrayPool
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import BipartiteGraph, community_bipartite
from repro.objectives import compact_cell_sums


def random_bipartite(
    seed: int,
    num_queries: int = 300,
    num_data: int = 500,
    num_edges: int = 2400,
    weighted: bool = False,
) -> BipartiteGraph:
    rng = np.random.default_rng(seed)
    q = rng.integers(0, num_queries, num_edges)
    d = rng.integers(0, num_data, num_edges)
    query_weights = rng.uniform(0.2, 5.0, num_queries) if weighted else None
    data_weights = rng.uniform(0.5, 1.5, num_data) if weighted else None
    return BipartiteGraph.from_edges(
        q, d, num_queries=num_queries, num_data=num_data,
        query_weights=query_weights, data_weights=data_weights,
    )


def trajectory(result):
    """Every order-sensitive per-iteration observable, flattened."""
    return [
        (s.iteration, s.moved, s.objective_value, s.fanout)
        for level in result.levels
        for s in level
    ]


class TestParallelParityGrid:
    """{serial, 2, 4 workers} x {k<=3, k=8} x {unweighted, weighted}."""

    SEED = 7

    @pytest.fixture(autouse=True)
    def _force_parallel_dispatch(self, monkeypatch):
        # Route every gain batch through the pool regardless of size, so
        # small test graphs genuinely exercise the worker processes.
        monkeypatch.setattr(
            "repro.core.level_fuse.PARALLEL_MIN_RANKS", 1
        )

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("k", [3, 8])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_parity(self, workers, k, weighted):
        graph = random_bipartite(self.SEED + k, weighted=weighted)
        serial = shp_2(graph, k, seed=self.SEED)
        parallel = shp_2(graph, k, seed=self.SEED, refine_workers=workers)
        assert np.array_equal(serial.assignment, parallel.assignment)
        assert trajectory(serial) == trajectory(parallel)
        assert serial.converged == parallel.converged


    def test_level_segment_holds_five_arrays(self, monkeypatch):
        """Workers sum slot values; tables, counts and sides stay on the
        master and must not drift back into the published segment."""
        published = []
        publish_level = ParallelGainPool.publish_level

        def spy(pool, arrays):
            published.append(set(arrays))
            return publish_level(pool, arrays)

        monkeypatch.setattr(ParallelGainPool, "publish_level", spy)
        shp_2(random_bipartite(self.SEED, weighted=True), 4, seed=self.SEED, refine_workers=2)
        assert published and all(
            keys == {"rank_indptr", "gm_vidx", "slot_value", "gain_cache", "work_buf"}
            for keys in published
        )


class TestRefineWorkersValidation:
    def test_config_rejects_non_positive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match="refine_workers"):
                SHPConfig(k=4, refine_workers=bad)

    def test_config_rejects_non_integer(self):
        for bad in (1.5, True, "2"):
            with pytest.raises(ValueError, match="refine_workers"):
                SHPConfig(k=4, refine_workers=bad)

    def test_spec_error_names_dotted_path(self):
        for bad in (0, -2):
            with pytest.raises(SpecError, match=r"execution\.refine_workers"):
                ExecutionSpec(refine_workers=bad)
        for bad in (1.5, True):
            with pytest.raises(SpecError, match=r"execution\.refine_workers"):
                ExecutionSpec(refine_workers=bad)

    def test_spec_accepts_default(self):
        assert ExecutionSpec().refine_workers == 1


class TestSharedArrayPool:
    def test_publish_attach_roundtrip(self):
        arrays = {
            "a": np.arange(10, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 7),
        }
        with SharedArrayPool() as pool:
            handle = pool.publish("x", arrays)
            attached = SharedArrayPack.attach(handle)
            try:
                views = attached.arrays()
                for name, src in arrays.items():
                    np.testing.assert_array_equal(views[name], src)
            finally:
                views = None
                attached.close()

    def test_writes_visible_through_pool(self):
        with SharedArrayPool() as pool:
            pool.publish("x", {"v": np.zeros(4, dtype=np.float64)})
            writer = pool.arrays("x", writeable=True)
            writer["v"][:] = [1.0, 2.0, 3.0, 4.0]
            reader = pool.arrays("x")
            np.testing.assert_array_equal(reader["v"], [1.0, 2.0, 3.0, 4.0])
            with pytest.raises(ValueError):
                reader["v"][0] = 9.0  # read-only by default
            writer = reader = None

    def test_release_and_republish(self):
        with SharedArrayPool() as pool:
            pool.publish("x", {"v": np.ones(3)})
            assert "x" in pool
            pool.release("x")
            assert "x" not in pool
            pool.publish("x", {"v": np.full(5, 2.0)})
            assert pool.arrays("x")["v"].size == 5


class TestBlockSplit:
    def test_blocks_cover_and_ascend(self):
        rng = np.random.default_rng(0)
        degrees = rng.integers(0, 20, 200)
        rank_indptr = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
        ranks = np.sort(rng.choice(200, size=120, replace=False)).astype(np.int64)
        bounds = split_ranks_by_edges(ranks, rank_indptr, 4)
        assert bounds[0] == 0 and bounds[-1] == ranks.size
        assert np.all(np.diff(bounds) >= 0)

    def test_split_is_deterministic(self):
        rank_indptr = np.arange(0, 505, 5, dtype=np.int64)
        ranks = np.arange(100, dtype=np.int64)
        b1 = split_ranks_by_edges(ranks, rank_indptr, 3)
        b2 = split_ranks_by_edges(ranks, rank_indptr, 3)
        np.testing.assert_array_equal(b1, b2)

    def test_single_block_is_whole_range(self):
        rank_indptr = np.arange(0, 33, 2, dtype=np.int64)
        ranks = np.arange(16, dtype=np.int64)
        bounds = split_ranks_by_edges(ranks, rank_indptr, 1)
        np.testing.assert_array_equal(bounds, [0, 16])


class TestPoolLifecycle:
    def test_pool_close_is_idempotent(self):
        pool = ParallelGainPool(2)
        pool.close()
        pool.close()

    def test_threshold_unchanged(self):
        # The library default must stay high enough that tiny refinements
        # never pay a pipe round trip (tests above monkeypatch it down).
        assert parallel_refine.PARALLEL_MIN_RANKS >= 256


def _zero_degree_level(num_ranks: int) -> dict[str, np.ndarray]:
    """Minimal publishable level: zero-degree ranks, all gains 0.0."""
    return {
        "work_buf": np.arange(num_ranks, dtype=np.int64),
        "rank_indptr": np.zeros(num_ranks + 1, dtype=np.int64),
        "gm_vidx": np.zeros(0, dtype=np.int64),
        "slot_value": np.zeros((1, 2), dtype=np.float64),
        "gain_cache": np.zeros(num_ranks, dtype=np.float64),
    }


class TestWorkerDeath:
    """A SIGKILLed worker must produce a prompt, named error — not a hang."""

    def test_sigkill_mid_dispatch_raises_named_error_fast(self):
        import os
        import signal
        import time

        pool = ParallelGainPool(2, step_timeout=60.0)
        try:
            pool.publish_level(_zero_degree_level(16))
            victim = pool._group.procs[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            started = time.monotonic()
            with pytest.raises((RuntimeError, TimeoutError), match="refine worker 1"):
                pool.compute_gains(np.array([0, 8, 16], dtype=np.int64))
            # Death detection, not the 60 s barrier timeout.
            assert time.monotonic() - started < 30.0
        finally:
            pool.close()

    def test_failed_pool_is_poisoned_with_clear_error(self):
        import os
        import signal

        pool = ParallelGainPool(2)
        try:
            pool.publish_level(_zero_degree_level(8))
            victim = pool._group.procs[0]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
            with pytest.raises((RuntimeError, TimeoutError)):
                pool.compute_gains(np.array([0, 4, 8], dtype=np.int64))
            # Every later dispatch names the poisoned state, not a new hang.
            with pytest.raises(RuntimeError, match="unusable"):
                pool.compute_gains(np.array([0, 4, 8], dtype=np.int64))
        finally:
            pool.close()

    def test_drop_level_after_failure_releases_segment(self):
        import os
        import signal

        pool = ParallelGainPool(2)
        try:
            pool.publish_level(_zero_degree_level(8))
            os.kill(pool._group.procs[0].pid, signal.SIGKILL)
            pool._group.procs[0].join(timeout=10)
            with pytest.raises((RuntimeError, TimeoutError)):
                pool.compute_gains(np.array([0, 4, 8], dtype=np.int64))
            # The segment is reclaimed even though the protocol is dead...
            pool.drop_level()
            assert "level" not in pool._pool
            # ...and dropping again stays a no-op.
            pool.drop_level()
        finally:
            pool.close()


class TestPackLifecycle:
    def test_release_unknown_key_is_noop(self):
        with SharedArrayPool() as pool:
            pool.release("never-published")

    def test_pack_close_is_idempotent(self):
        pack = SharedArrayPack.create({"v": np.arange(4)})
        pack.close()
        pack.close()

    def test_closed_pack_refuses_views(self):
        pack = SharedArrayPack.create({"v": np.arange(4)})
        pack.close()
        with pytest.raises(RuntimeError, match="closed"):
            pack.arrays()


class TestSparseS3:
    """Sparse pair-compact S3 aggregation vs the dense grid / dict path."""

    def test_compact_cell_sums_matches_dense_bincount(self):
        rng = np.random.default_rng(3)
        cells = rng.integers(0, 50, 400).astype(np.int64)
        weights = rng.normal(size=400)
        occupied, sums = compact_cell_sums(cells, weights)
        dense = np.bincount(cells, weights=weights, minlength=50)
        present = np.bincount(cells, minlength=50) > 0
        np.testing.assert_array_equal(occupied, np.flatnonzero(present))
        # Bitwise: stable sort preserves each cell's sequential add order.
        assert np.array_equal(sums, dense[occupied])

    def test_compact_cell_sums_empty(self):
        occupied, sums = compact_cell_sums(
            np.empty(0, dtype=np.int64), np.empty(0)
        )
        assert occupied.size == 0 and sums.size == 0

    @pytest.mark.parametrize("mode,k", [("2", 8), ("k", 16)])
    def test_dict_columnar_parity(self, mode, k):
        # k=16 drives mode-"k" S3 past DENSE_S3_MAX_LEVEL_K into the
        # sparse selection; mode "2" exercises the sibling-restricted
        # aggregation.  Both must stay bitwise-equal to the per-vertex
        # oracle (tests/oracles/).
        graph = community_bipartite(
            160, 240, 1500, num_communities=8, mixing=0.2, seed=5
        )
        cfg = SHPConfig(
            k=k, seed=11, iterations_per_bisection=6, max_iterations=8
        )
        cols = DistributedSHP(cfg, mode=mode).run(graph)
        dicts = run_dict_shp(cfg, graph, mode=mode)
        assert np.array_equal(cols.assignment, dicts.assignment)


class TestTransientMetering:
    def test_columnar_reports_dict_does_not(self):
        graph = community_bipartite(
            120, 180, 1100, num_communities=6, mixing=0.2, seed=2
        )
        cfg = SHPConfig(k=4, seed=3, iterations_per_bisection=4, max_iterations=6)
        cols = DistributedSHP(cfg, mode="2").run(graph)
        dicts = run_dict_shp(cfg, graph, mode="2")
        assert cols.metrics.peak_transient_bytes() > 0
        assert dicts.metrics.peak_transient_bytes() == 0

    def test_manifest_meter_surfaced(self):
        from repro.api import JobSpec, run

        spec = JobSpec.from_dict({
            "kind": "partition", "seed": 5,
            "graph": {"source": "darwini", "users": 600, "avg_degree": 8},
            "algorithm": {"name": "shp-2", "k": 4},
            "execution": {"backend": "sim", "workers": 2},
        })
        report = run(spec)
        assert report.meters["peak_transient_bytes"] > 0
        assert "wire_bytes" in report.meters
