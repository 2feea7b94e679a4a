"""RPC backend: parity with sim, physical meters, failover, JobSpec wiring.

The acceptance contract for ``backend = "rpc"``: a job over >= 2
auto-spawned localhost workers produces bitwise-identical assignments to
the in-process backends per seed (the columnar job and its per-vertex
test oracle, combiners on and off), meters real bytes-on-wire and barrier
round-trips — one snapshot per logical worker per protocol cycle, none on
the barriers in between — and survives workers killed or stalled at any
point of a cycle by re-homing them onto survivors from the last snapshot,
replaying the supersteps since and retrying the current one.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from oracles.per_vertex import run_per_vertex
from oracles.shp_dict import run_dict_shp
from repro import SHPConfig
from repro.distributed import (
    ClusterSpec, GiraphEngine, RpcBackend, backend_rpc, serve_worker, wire,
)
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


def _assert_bitwise(run, reference):
    assert np.array_equal(run.assignment, reference.assignment)
    assert run.supersteps == reference.supersteps
    assert run.moved_history == reference.moved_history
    assert run.recomputed_history == reference.recomputed_history
    assert run.metrics.total_messages == reference.metrics.total_messages
    for step, ref in zip(run.metrics.supersteps, reference.metrics.supersteps):
        assert step.messages_remote == ref.messages_remote
        assert step.bytes_remote == ref.bytes_remote
        assert np.array_equal(step.ops_per_worker, ref.ops_per_worker)
        assert np.array_equal(step.memory_per_worker, ref.memory_per_worker)


@pytest.mark.parametrize("vertex_mode", ["dict", "columnar"])
@pytest.mark.parametrize("combiner", [False, True])
def test_rpc_matches_sim_bitwise(graph, sim_reference, vertex_mode, combiner):
    run = _run(graph, RpcBackend(step_timeout=60.0), vertex_mode, combiner)
    _assert_bitwise(run, sim_reference[(vertex_mode, combiner)])


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
    # Physical bytes exceed logical schema bytes (every hop crosses twice,
    # plus framing, barrier reports and the per-cycle snapshots).
    logical = sum(s.bytes_remote for s in run.metrics.supersteps)
    assert run.metrics.total_wire_bytes > logical


#: ``total_wire_bytes`` of this fixture job at the parent of the change that
#: moved checkpoints from every barrier to every protocol cycle.
WIRE_BYTES_WITH_A_CHECKPOINT_PER_BARRIER = 2_314_256


def test_wire_budget_one_snapshot_per_worker_per_cycle(graph, monkeypatch):
    """A barrier carries what the algorithm sends: snapshots ride the S4
    reply only, and a barrier without one costs its hops plus a fixed
    overhead.  (A regression to per-barrier checkpoints fails here.)"""
    backend = RpcBackend(step_timeout=60.0)
    carried: list[list[bool]] = []
    commit = backend._commit

    def spy(replies):
        carried.append([replies[wid][2] is not None for wid in sorted(replies)])
        return commit(replies)

    monkeypatch.setattr(backend, "_commit", spy)
    steps = _run(graph, backend).metrics.supersteps

    assert len(carried) == len(steps) == 28
    for superstep, flags in enumerate(carried):
        assert flags == [superstep % 4 == 3] * 3, (superstep, flags)
    # A hop crosses the wire twice — out in the reply of the step that
    # produced it, in with the request of the next — and pickles to at most
    # 1.6x its schema bytes on this fixture; requests, reports, aggregates
    # and broadcasts of three workers come to 4.1-4.9 KB per barrier (one
    # snapshot of one worker is 8.8 KB).
    for before, step in zip([None] + steps, steps):
        if step.superstep % 4 != 3:
            hops = step.bytes_remote + (before.bytes_remote if before else 0)
            assert step.wire_bytes <= 2 * hops + 6000, (step.superstep, step.wire_bytes)
    # Measured 749 491 (3.09x below the parent: on a 280-vertex graph the
    # per-array pickle overhead of the messages themselves is what is left;
    # per-barrier snapshots would add ~560 KB and land at 1.8x).
    total = sum(step.wire_bytes for step in steps)
    assert 3 * total <= WIRE_BYTES_WITH_A_CHECKPOINT_PER_BARRIER


def test_combiner_reduces_wire_bytes_on_rpc(graph):
    """Snapshot traffic is identical per setting, so combining must show
    up as strictly fewer physical bytes end to end."""
    off = _run(graph, RpcBackend(step_timeout=60.0), "columnar", False)
    on = _run(graph, RpcBackend(step_timeout=60.0), "columnar", True)
    assert np.array_equal(on.assignment, off.assignment)
    assert on.metrics.total_wire_bytes < off.metrics.total_wire_bytes


@pytest.mark.parametrize("vertex_mode", ["dict", "columnar"])
def test_worker_death_mid_superstep_recovers_bitwise(
    graph, sim_reference, vertex_mode
):
    """Kill peer 1 right before superstep 6 (S3 of the second cycle): its
    logical worker is re-homed from the snapshot of superstep 3, supersteps
    4 and 5 are replayed on the adopter and 6 retried — same answer."""
    backend = RpcBackend(step_timeout=60.0, chaos_kill=(6, 1))
    _assert_bitwise(_run(graph, backend, vertex_mode), sim_reference[(vertex_mode, False)])


def _chaotic(monkeypatch, kills: dict) -> RpcBackend:
    """A backend that hard-kills the peers ``kills[s]`` right before
    superstep ``s`` (key ``"collect"``: after the last barrier)."""
    backend = RpcBackend(step_timeout=60.0)
    step, finish = backend._execute_superstep, backend._finish

    def kill(key):
        for peer_idx in kills.pop(key, ()):
            backend._kill_peer(peer_idx)

    def chaotic_step(superstep, broadcasts):
        kill(superstep)
        return step(superstep, broadcasts)

    def chaotic_finish():
        kill("collect")
        return finish()

    monkeypatch.setattr(backend, "_execute_superstep", chaotic_step)
    monkeypatch.setattr(backend, "_finish", chaotic_finish)
    return backend


@pytest.mark.parametrize(
    "kills",
    [
        {0: [1]},  # before anything ran: a pristine adopt, nothing to replay
        {1: [1]},  # before the first snapshot exists: pristine adopt + replay
        # Between S2 and S3 of a level's first cycle: the queries' slot table
        # was just populated — on the adopter by the replay — and S3 inserts
        # every cache row and slot at once.
        {2: [1]},
        {4: [1]},  # S1: right after a cut, the log is empty
        {5: [1]},  # S2: replay S1
        {7: [1]},  # S4, the superstep that cuts: replay S1-S3
        {18: [2]},  # the cycle that descends a bisection level (advance at 16)
        # Third cycle of level 2: the pin -> cache-row join was built two
        # cycles ago and S3 recomputes 153 of 160 vertices.  Before S3 the
        # adopter replays S1-S2 onto the movers the snapshot's ``stale``
        # column carries; before S4 it replays the partial S3 itself.
        {26: [1]},
        {27: [2]},
        {"collect": [1]},  # after the last barrier: replay, then collect
        {4: [1, 2]},  # two peers at one barrier: the survivor hosts all three
        # Successive deaths: worker 1 moves to peer 0 before S2, then peer 0
        # dies before S3 with two logical workers on it, one re-homed twice.
        {5: [1], 6: [0]},
    ],
    ids=lambda kills: "+".join(f"{key}:{peers}" for key, peers in kills.items()),
)
def test_failover_matrix_is_bitwise_sim(graph, sim_reference, monkeypatch, kills):
    planned = dict(kills)
    run = _run(graph, _chaotic(monkeypatch, planned))
    assert not planned, "a scheduled kill never fired"
    _assert_bitwise(run, sim_reference[("columnar", False)])


@pytest.mark.parametrize("kills", [{}, {"collect": [1]}], ids=["clean", "kill-before-collect"])
def test_total_wire_bytes_is_every_byte_moved_after_init(graph, monkeypatch, kills):
    """The final ``collect`` round trip follows the last superstep, so it
    sits in no step's ``wire_bytes``; it is metered on the job instead —
    with whatever re-homing a death before it costs."""
    moved: list[int] = []
    after_init: list[int] = []

    def send(sock, obj):
        moved.append(wire.send_obj(sock, obj))
        return moved[-1]

    def recv(sock):
        obj, nbytes = wire.recv_obj(sock)
        moved.append(nbytes)
        return obj, nbytes

    monkeypatch.setattr(backend_rpc, "send_obj", send)
    monkeypatch.setattr(backend_rpc, "recv_obj", recv)
    backend = _chaotic(monkeypatch, dict(kills))
    open_, close = backend._open, backend._close

    def opened(*args):
        open_(*args)
        moved.clear()

    def closing():
        after_init.append(sum(moved))
        close()  # sends the reply-less ``exit``, after the job's totals were read

    monkeypatch.setattr(backend, "_open", opened)
    monkeypatch.setattr(backend, "_close", closing)
    metrics = _run(graph, backend).metrics

    assert metrics.total_wire_bytes == after_init[0]
    in_steps = sum(step.wire_bytes for step in metrics.supersteps)
    assert metrics.collect_wire_bytes == after_init[0] - in_steps > 0
    assert backend._setup_wire_bytes > 0  # init: metered, but in no job total
    if not kills:
        # Pinned where init, every barrier and exit first went through the
        # two metered call sites: the integers of the parent, which metered
        # init and the barriers by hand and exit not at all.  (The total was
        # 762 827 while a snapshot carried the neighbor data as ragged
        # int64 rows; the slot tables' keys + int32 counts are 44 KB less
        # over the job's 7 cycles x 3 workers.)
        assert (metrics.total_wire_bytes, backend._setup_wire_bytes,
                metrics.collect_wire_bytes) == (718_520, 60_900, 3_304)


def test_dict_oracle_survives_death_in_the_descent_cycle(graph, sim_reference, monkeypatch):
    """The oracle's per-worker descent parity lives in the partition, so it
    is replayed (advance at superstep 16) like any other state."""
    run = _run(graph, _chaotic(monkeypatch, {18: [2]}), "dict")
    _assert_bitwise(run, sim_reference[("dict", False)])


class StallOnceRing:
    """A ring of partial sums in which vertex 0 hangs once at superstep 2
    (the marker file keeps whoever adopts it from hanging again).  Declares
    no ``phase_cycle``: every barrier is a cut and nothing is ever replayed."""

    def __init__(self, n: int, marker: str, stall: float):
        self.n, self.marker, self.stall = n, marker, stall

    def phase_name(self, superstep: int) -> str:
        return f"ring{superstep}"

    def compute(self, ctx, vid, state, messages):
        if ctx.superstep == 2 and vid == 0 and not os.path.exists(self.marker):
            open(self.marker, "w").close()
            time.sleep(self.stall)
        state["sum"] = state.get("sum", 0) + sum(messages)
        state["coin"] = ctx.random()
        ctx.send((vid + 1) % self.n, vid + state["sum"])


def test_stalled_peer_is_failed_over_and_not_waited_for(tmp_path):
    """A peer that is alive but silent past ``step_timeout`` is treated as
    dead — and terminated, so neither the retry nor teardown waits for it."""
    n = 12

    def run(backend, marker, stall):
        engine = GiraphEngine(ClusterSpec(num_workers=3), seed=5, backend=backend)
        program = StallOnceRing(n, str(marker), stall)
        return run_per_vertex(engine, program, {v: {} for v in range(n)}, max_supersteps=5)

    reference = run("sim", tmp_path / "sim", 0.0)
    backend = RpcBackend(step_timeout=1.0)
    start = time.monotonic()
    stalled = run(backend, tmp_path / "rpc", 60.0)
    elapsed = time.monotonic() - start

    assert (tmp_path / "rpc").exists(), "the stall never happened"
    assert stalled.states == reference.states
    assert stalled.supersteps_run == reference.supersteps_run == 5
    for step, ref in zip(stalled.metrics.supersteps, reference.metrics.supersteps):
        assert step.total_messages == ref.total_messages
    # One step_timeout plus the run; at the parent teardown alone waited
    # out its 10 s grace on the sleeper.
    assert elapsed < 8.0


def test_all_peers_dead_raises(graph):
    """Losing the only peer is unrecoverable and must raise, not hang."""
    backend = RpcBackend(step_timeout=60.0, chaos_kill=(2, 0))
    solo = DistributedSHP(
        _config(), cluster=ClusterSpec(num_workers=1), mode="2", backend=backend,
    )
    with pytest.raises(RuntimeError, match="workers are gone"):
        solo.run(graph)


def test_host_without_a_numeric_port_is_a_named_error():
    """``int()``'s raw ValueError used to surface for 'host:notaport' — and a
    port only ``int()`` or ``socket`` could love used to be dialled: 99999
    wraps to 34463, '٣٣٣٣' reads as 3333.  Refused at construction, by the
    rule ``execution.hosts`` is validated with."""
    for spec in ("localhost", "localhost:notaport", "localhost:",
                 "127.0.0.1:99999", "h:٣٣٣٣", "a:b:80", "h:0"):
        with pytest.raises(ValueError, match="not of the form 'host:port'"):
            RpcBackend(hosts=[spec])
    assert backend_rpc.parse_endpoint("node-b:65535") == ("node-b", 65535)
    backend = RpcBackend(hosts=["10.0.0.1:7077"])
    backend.hosts.append("late:99999")  # mutated after construction: caught at connect
    with pytest.raises(ValueError, match="'late:99999' is not of the form"):
        backend._connect_peers(1)


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


def test_a_peer_that_hangs_up_during_init_is_a_named_error(graph):
    """Init goes through the same metered exchange as every barrier; with
    nothing to fail over from yet, a dead peer there ends the run — naming
    the peer (it used to be a bare ``peer closed with 12 of 12 frame bytes
    outstanding``)."""
    import socket

    with socket.create_server(("127.0.0.1", 0)) as srv:
        port = srv.getsockname()[1]

        def hang_up():
            conn, _ = srv.accept()
            conn.close()

        server = threading.Thread(target=hang_up, daemon=True)
        server.start()
        backend = RpcBackend(hosts=[f"127.0.0.1:{port}"], step_timeout=10.0)
        with pytest.raises(
            ConnectionError, match=rf"^rpc worker 127\.0\.0\.1:{port} hung up during init$"
        ):
            _run(graph, backend)
        server.join(timeout=10)
    assert backend._peers == []  # Backend.run's finally closed what was open


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
