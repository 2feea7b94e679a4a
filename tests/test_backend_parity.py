"""Cross-backend parity: SimulatedBackend vs MultiprocessBackend.

The whole point of the backend abstraction is that *where* workers execute
is invisible to the algorithm: given a seed, the multiprocess backend must
produce bit-identical vertex states and the same metered traffic as the
in-process simulator.  These tests pin that contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.per_vertex import run_per_vertex
from repro import SHPConfig
from repro.core import balanced_random_assignment
from repro.distributed import (
    ClusterSpec,
    GiraphEngine,
    MultiprocessBackend,
    SimulatedBackend,
    resolve_backend,
)
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import community_bipartite
from repro.objectives import average_fanout


@pytest.fixture(scope="module")
def parity_graph():
    return community_bipartite(160, 220, 1500, num_communities=8, mixing=0.2, seed=4)


class RingProgram:
    """Deterministic message/aggregate traffic plus per-vertex randomness."""

    def __init__(self, n):
        self.n = n

    def phase_name(self, superstep):
        return f"ring{superstep}"

    def compute(self, ctx, vid, state, messages):
        state["sum"] = state.get("sum", 0) + sum(messages)
        state["coin"] = ctx.random()
        ctx.aggregate("seen", 0, 1)
        ctx.send((vid + 1) % self.n, vid)


class TestEngineParity:
    def test_states_and_metrics_match(self):
        def run(backend):
            engine = GiraphEngine(ClusterSpec(num_workers=3), seed=9, backend=backend)
            return run_per_vertex(
                engine, RingProgram(24), {v: {} for v in range(24)}, max_supersteps=4
            )

        sim = run("sim")
        mp_ = run("mp")
        assert sim.supersteps_run == mp_.supersteps_run == 4
        for v in range(24):
            assert sim.states[v]["sum"] == mp_.states[v]["sum"]
            assert sim.states[v]["coin"] == mp_.states[v]["coin"]
        for a, b in zip(sim.metrics.supersteps, mp_.metrics.supersteps):
            assert a.total_messages == b.total_messages
            assert a.messages_remote == b.messages_remote
            assert np.array_equal(a.ops_per_worker, b.ops_per_worker)
            assert np.array_equal(a.messages_per_worker, b.messages_per_worker)
            assert np.array_equal(a.remote_bytes_per_worker, b.remote_bytes_per_worker)
            assert np.array_equal(a.memory_per_worker, b.memory_per_worker)


class TestDistributedSHPParity:
    @pytest.mark.parametrize("mode,workers", [("2", 1), ("2", 3), ("k", 2)])
    def test_assignments_bit_identical(self, parity_graph, mode, workers):
        config = SHPConfig(
            k=4, seed=5, iterations_per_bisection=4, max_iterations=4,
            swap_mode="bernoulli",
        )
        cluster = ClusterSpec(num_workers=workers)
        sim = DistributedSHP(config, cluster=cluster, mode=mode, backend="sim").run(
            parity_graph
        )
        mp_ = DistributedSHP(config, cluster=cluster, mode=mode, backend="mp").run(
            parity_graph
        )
        assert sim.backend == "sim" and mp_.backend == "mp"
        assert np.array_equal(sim.assignment, mp_.assignment)
        assert sim.supersteps == mp_.supersteps
        assert sim.cycles == mp_.cycles
        assert average_fanout(parity_graph, sim.assignment, 4) == pytest.approx(
            average_fanout(parity_graph, mp_.assignment, 4)
        )

    def test_per_worker_message_metrics_agree(self, parity_graph):
        config = SHPConfig(
            k=4, seed=7, iterations_per_bisection=3, swap_mode="bernoulli"
        )
        cluster = ClusterSpec(num_workers=2)
        sim = DistributedSHP(config, cluster=cluster, mode="2", backend="sim").run(
            parity_graph
        )
        mp_ = DistributedSHP(config, cluster=cluster, mode="2", backend="mp").run(
            parity_graph
        )
        assert sim.metrics.total_messages == mp_.metrics.total_messages
        assert sim.metrics.total_remote_bytes == mp_.metrics.total_remote_bytes
        for a, b in zip(sim.metrics.supersteps, mp_.metrics.supersteps):
            assert a.phase == b.phase
            assert np.array_equal(a.messages_per_worker, b.messages_per_worker)
            assert np.array_equal(a.remote_bytes_per_worker, b.remote_bytes_per_worker)
            assert a.active_vertices == b.active_vertices

    def test_improves_fanout_like_simulator(self, parity_graph):
        config = SHPConfig(
            k=4, seed=2, iterations_per_bisection=4, swap_mode="bernoulli"
        )
        run = DistributedSHP(config, mode="2", backend="mp").run(parity_graph)
        rng = np.random.default_rng(0)
        random_assign = balanced_random_assignment(parity_graph.num_data, 4, rng)
        assert average_fanout(parity_graph, run.assignment, 4) < average_fanout(
            parity_graph, random_assign, 4
        )


class TestBackendResolution:
    def test_resolve_names_and_instances(self):
        assert isinstance(resolve_backend(None), SimulatedBackend)
        assert isinstance(resolve_backend("sim"), SimulatedBackend)
        assert isinstance(resolve_backend("mp"), MultiprocessBackend)
        backend = MultiprocessBackend()
        assert resolve_backend(backend) is backend
        from repro.distributed import RpcBackend

        assert isinstance(resolve_backend("rpc"), RpcBackend)
        with pytest.raises(ValueError):
            resolve_backend("carrier-pigeon")

    def test_spawn_context_parity(self, parity_graph):
        """Cold-start (spawn) workers agree with the simulator too."""
        config = SHPConfig(
            k=2, seed=6, iterations_per_bisection=2, swap_mode="bernoulli"
        )
        sim = DistributedSHP(config, mode="2", backend="sim").run(parity_graph)
        mp_ = DistributedSHP(
            config, mode="2", backend=MultiprocessBackend(mp_context="spawn")
        ).run(parity_graph)
        assert np.array_equal(sim.assignment, mp_.assignment)

    def test_worker_errors_propagate(self):
        class Exploder:
            def phase_name(self, superstep):
                return "boom"

            def compute(self, ctx, vid, state, messages):
                raise ValueError("vertex exploded")

        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0, backend="mp")
        with pytest.raises(ValueError, match="vertex exploded"):
            run_per_vertex(engine, Exploder(), {v: {} for v in range(4)}, max_supersteps=1)

    def test_unpicklable_worker_error_still_reported(self):
        class PicklePoison(Exception):
            def __init__(self, vid, msg):  # two-arg init breaks pickle round-trip
                self.vid = vid
                super().__init__(msg)

        class Exploder:
            def phase_name(self, superstep):
                return "boom"

            def compute(self, ctx, vid, state, messages):
                raise PicklePoison(vid, "custom failure")

        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=0, backend="mp")
        # The original type cannot cross the pipe; the cause must anyway.
        with pytest.raises(RuntimeError, match="PicklePoison.*custom failure"):
            run_per_vertex(engine, Exploder(), {0: {}}, max_supersteps=1)
