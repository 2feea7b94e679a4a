"""RPC backend: parity with sim, physical meters, failover, JobSpec wiring.

The acceptance contract for ``backend = "rpc"``: a job over >= 2
auto-spawned localhost workers produces bitwise-identical assignments to
the in-process backends per seed (the columnar job and its per-vertex
test oracle, combiners on and off), meters real bytes-on-wire and barrier round-trips, and survives a
worker killed mid-superstep by re-homing its logical workers onto
survivors and retrying the superstep.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from oracles.shp_dict import run_dict_shp
from repro import SHPConfig
from repro.distributed import ClusterSpec, RpcBackend, serve_worker
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import community_bipartite


@pytest.fixture(scope="module")
def graph():
    return community_bipartite(120, 160, 1100, num_communities=6, mixing=0.25, seed=9)


def _config() -> SHPConfig:
    return SHPConfig(
        k=4, seed=13, iterations_per_bisection=3, max_iterations=3,
        swap_mode="bernoulli",
    )


def _run(graph, backend, vertex_mode="columnar", combiner=False):
    cluster = ClusterSpec(num_workers=3)
    if vertex_mode == "dict":  # the per-vertex oracle, through the adapter
        return run_dict_shp(
            _config(), graph, cluster=cluster, mode="2", backend=backend, combiner=combiner
        )
    job = DistributedSHP(
        _config(), cluster=cluster, mode="2", backend=backend, combiner=combiner
    )
    return job.run(graph)


@pytest.fixture(scope="module")
def sim_reference(graph):
    return {
        (vm, comb): _run(graph, "sim", vm, comb)
        for vm in ("dict", "columnar")
        for comb in (False, True)
    }


@pytest.mark.parametrize("vertex_mode", ["dict", "columnar"])
@pytest.mark.parametrize("combiner", [False, True])
def test_rpc_matches_sim_bitwise(graph, sim_reference, vertex_mode, combiner):
    reference = sim_reference[(vertex_mode, combiner)]
    run = _run(graph, RpcBackend(step_timeout=60.0), vertex_mode, combiner)

    assert np.array_equal(run.assignment, reference.assignment)
    assert run.supersteps == reference.supersteps
    assert run.moved_history == reference.moved_history
    for step, ref in zip(run.metrics.supersteps, reference.metrics.supersteps):
        assert step.messages_remote == ref.messages_remote
        assert step.bytes_remote == ref.bytes_remote
        assert np.array_equal(step.ops_per_worker, ref.ops_per_worker)


def test_rpc_meters_wire_bytes_and_round_trips(graph, sim_reference):
    run = _run(graph, RpcBackend(step_timeout=60.0))
    reference = sim_reference[("columnar", False)]

    # Physical meters are populated on rpc, zero on sim.
    assert run.metrics.total_wire_bytes > 0
    assert run.metrics.total_round_trip_seconds > 0
    assert reference.metrics.total_wire_bytes == 0
    assert reference.metrics.total_round_trip_seconds == 0.0
    # Every executed superstep crossed the wire.
    for step in run.metrics.supersteps:
        assert step.wire_bytes > 0
        assert step.round_trip_seconds > 0
    # Physical bytes exceed logical schema bytes (framing + checkpoints).
    logical = sum(s.bytes_remote for s in run.metrics.supersteps)
    assert run.metrics.total_wire_bytes > logical


def test_combiner_reduces_wire_bytes_on_rpc(graph):
    """Checkpoint traffic is identical per setting, so combining must show
    up as strictly fewer physical bytes end to end."""
    off = _run(graph, RpcBackend(step_timeout=60.0), "columnar", False)
    on = _run(graph, RpcBackend(step_timeout=60.0), "columnar", True)
    assert np.array_equal(on.assignment, off.assignment)
    assert on.metrics.total_wire_bytes < off.metrics.total_wire_bytes


@pytest.mark.parametrize("vertex_mode", ["dict", "columnar"])
def test_worker_death_mid_superstep_recovers_bitwise(
    graph, sim_reference, vertex_mode
):
    """Kill peer 1 right before superstep 6: its logical workers are
    re-homed from checkpoints and the superstep retried — same answer."""
    reference = sim_reference[(vertex_mode, False)]
    backend = RpcBackend(step_timeout=60.0, chaos_kill=(6, 1))
    run = _run(graph, backend, vertex_mode)

    assert np.array_equal(run.assignment, reference.assignment)
    assert run.supersteps == reference.supersteps
    assert run.moved_history == reference.moved_history
    for step, ref in zip(run.metrics.supersteps, reference.metrics.supersteps):
        assert step.messages_remote == ref.messages_remote
        assert step.bytes_remote == ref.bytes_remote


def test_all_peers_dead_raises(graph):
    """Losing the only peer is unrecoverable and must raise, not hang."""
    backend = RpcBackend(step_timeout=60.0, chaos_kill=(2, 0))
    solo = DistributedSHP(
        _config(), cluster=ClusterSpec(num_workers=1), mode="2", backend=backend,
    )
    with pytest.raises(RuntimeError, match="workers are gone"):
        solo.run(graph)


def test_external_hosts_via_serve_worker(graph, sim_reference):
    """Point the backend at explicitly launched workers (the multi-host
    path), with more logical workers than hosts."""
    ports = []
    ready = threading.Event()

    def _ready(port):
        ports.append(port)
        ready.set()

    server = threading.Thread(
        target=serve_worker,
        kwargs={"host": "127.0.0.1", "port": 0, "ready": _ready},
        daemon=True,
    )
    server.start()
    assert ready.wait(timeout=10)

    backend = RpcBackend(hosts=[f"127.0.0.1:{ports[0]}"], step_timeout=60.0)
    run = _run(graph, backend)  # 3 logical workers on 1 host
    reference = sim_reference[("columnar", False)]
    assert np.array_equal(run.assignment, reference.assignment)
    server.join(timeout=10)
    assert not server.is_alive()


def test_jobspec_runner_selects_rpc(tmp_path):
    """`execution.backend = "rpc"` end to end through repro.api.run."""
    import dataclasses

    from repro.api import run
    from repro.api.spec import (
        AlgorithmSpec, ExecutionSpec, GraphSpec, JobSpec, OutputSpec,
    )

    spec = JobSpec(
        seed=7,
        graph=GraphSpec(source="darwini", users=300, avg_degree=5),
        algorithm=AlgorithmSpec(name="shp-2", k=4),
        execution=ExecutionSpec(backend="rpc", workers=2, combiner=True,
                                step_timeout=60.0),
        output=OutputSpec(artifacts=str(tmp_path / "run")),
    )
    report = run(spec)
    assert report.meters["wire_bytes"] > 0
    assert report.meters["round_trip_sec"] > 0

    sim_exec = dataclasses.replace(spec.execution, backend="sim", combiner=False)
    reference = run(spec.with_(execution=sim_exec))
    assert np.array_equal(report.assignment, reference.assignment)
    assert reference.meters["wire_bytes"] == 0
