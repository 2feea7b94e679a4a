"""The shared service loop, driven with no processes and no sockets.

``serve`` + ``WorkerHost`` are the one worker runtime behind every
backend, so what is pinned here — the request/reply protocol, snapshot
adoption, held self-hops and the error-shipping path — holds for ``mp``
and ``rpc`` at once.  The channel is an in-memory pair that pickles every
message, i.e. the process boundary without the process.
"""

from __future__ import annotations

import pickle
import queue
import threading

import numpy as np
import pytest

from oracles.per_vertex import PerVertexAdapter
from repro import SHPConfig
from repro.core import balanced_random_assignment
from repro.core.histograms import GainBinning
from repro.distributed import ClusterSpec, GiraphEngine, SimulatedBackend
from repro.distributed.backend import merge_aggregates
from repro.distributed.worker import WorkerHost
from repro.distributed_shp import SHPColumnarProgram
from repro.distributed_shp.columnar import _MUTABLE
from repro.distributed_shp.job import _SHPMaster
from repro.hypergraph import darwini_bipartite


class _End:
    """One end of an in-memory channel; messages cross it as pickles."""

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue):
        self._inbox, self._outbox = inbox, outbox

    def send(self, msg) -> None:
        self._outbox.put(pickle.dumps(msg))

    def recv(self):
        return pickle.loads(self._inbox.get(timeout=10))


class RingProgram:
    """Messages, aggregates and per-vertex randomness every superstep."""

    def __init__(self, n):
        self.n = n

    def phase_name(self, superstep):
        return f"ring{superstep}"

    def compute(self, ctx, vid, state, messages):
        state["sum"] = state.get("sum", 0) + sum(messages)
        state["coin"] = ctx.random()
        ctx.aggregate("seen", 0, 1)
        ctx.send((vid + 1) % self.n, vid)


class PoisonProgram(RingProgram):
    def compute(self, ctx, vid, state, messages):
        class PicklePoison(Exception):  # a local class cannot be pickled
            pass

        raise PicklePoison("custom failure")


@pytest.fixture
def served():
    """A live ``serve`` loop on a thread; yields the master's channel end."""
    to_worker, to_master = queue.Queue(), queue.Queue()
    thread = threading.Thread(
        target=WorkerHost().serve, args=(_End(to_worker, to_master),), daemon=True
    )
    thread.start()
    master = _End(to_master, to_worker)
    yield master
    master.send(("exit",))
    thread.join(timeout=10)
    assert not thread.is_alive(), "serve did not return on exit"


def _engine(n=12, workers=2, seed=5):
    engine = GiraphEngine(ClusterSpec(num_workers=workers), seed=seed)
    engine.load(n)
    return engine


def _adapted(program_cls, n):
    """A per-vertex program as the batch program the engine runs."""
    return PerVertexAdapter(program_cls(n), {v: {} for v in range(n)})


def _ok(reply):
    assert reply[0] == "ok", reply
    return reply[1]


def test_init_step_adopt_step_collect_matches_sim(served):
    master = served
    engine = _engine()
    reference = _engine().run(_adapted(RingProgram, 12), max_supersteps=2)

    # The master half is the real one: Backend._plan describes the job and
    # Backend._commit routes each barrier's hops.
    backend = SimulatedBackend()
    shared, snapshots = backend._plan(engine, _adapted(RingProgram, 12), None)
    master.send(("init", shared, dict(enumerate(snapshots))))
    assert _ok(master.recv()) == [0, 1]

    master.send(("step", 0, {}, dict(enumerate(backend._inboxes)), True))
    replies = _ok(master.recv())
    assert all(isinstance(blob, bytes) for _, hops, _ in replies.values() for blob in hops.values())
    # A worker's hop to itself never reaches the master: it is held on the
    # host and rides in the snapshot instead.
    assert all(wid not in hops for wid, (_, hops, _) in replies.items())
    checkpoint = replies[1][2]
    assert isinstance(checkpoint, bytes)
    vids, state, held = pickle.loads(checkpoint)
    assert np.array_equal(vids, engine._worker_vertices[1])
    assert sum(len(batch) for batch in held) > 0
    first = backend._commit(replies)
    assert [src for src, _ in backend._inboxes[1]] == [0]

    # Re-home logical worker 1 from its post-superstep snapshot, then go on.
    master.send(("adopt", 1, checkpoint))
    assert _ok(master.recv()) == 1
    master.send(("step", 1, {}, dict(enumerate(backend._inboxes)), False))
    replies = _ok(master.recv())
    assert all(ckpt is None for _, _, ckpt in replies.values())
    second = backend._commit(replies)

    master.send(("collect",))
    collected = _ok(master.recv())
    assert [collected[wid] for wid in sorted(collected)] == reference.states
    for results, step in zip((first, second), reference.metrics.supersteps):
        assert sum(r.messages_sent for r in results) == step.total_messages


def test_unknown_kind_and_pickle_poison_are_error_replies_and_the_loop_lives(served):
    master = served
    engine = _engine(n=4, workers=1)
    shared, snapshots = SimulatedBackend()._plan(engine, _adapted(PoisonProgram, 4), None)

    master.send(("frobnicate", 1, 2))
    kind, exc, tb = master.recv()
    assert kind == "error" and isinstance(exc, ValueError)
    assert "unknown message kind 'frobnicate'" in str(exc)

    master.send(("init", shared, {0: snapshots[0]}))
    assert _ok(master.recv()) == [0]
    master.send(("step", 0, {}, {0: []}, False))
    kind, exc, tb = master.recv()
    # The original type cannot cross the channel; the cause must anyway.
    assert kind == "error" and type(exc) is RuntimeError
    assert str(exc) == "PicklePoison: custom failure"
    assert "PicklePoison" in tb and "compute" in tb

    master.send(("collect",))  # still serving
    assert set(_ok(master.recv())) == {0}


# ----------------------------------------------------------------------
# What a snapshot holds (the real SHP program, no channel)
# ----------------------------------------------------------------------

def _containers(obj, seen=None):
    """Every dict reachable from ``obj`` through containers and attributes."""
    seen = set() if seen is None else seen
    if id(obj) in seen or isinstance(obj, (np.ndarray, str, bytes, int, float)):
        return
    seen.add(id(obj))
    if isinstance(obj, dict):
        yield obj
        children = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (tuple, list, set, frozenset)):
        children = list(obj)
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    for child in children:
        yield from _containers(child, seen)


def _same_batches(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.schema == y.schema and np.array_equal(x.dst, y.dst)
        for left, right in ((x.cols, y.cols), (x.entries, y.entries)):
            assert left.keys() == right.keys()
            assert all(np.array_equal(left[name], right[name]) for name in left)
        if x.entry_start is not None:
            assert np.array_equal(x.entry_start, y.entry_start)
            assert np.array_equal(x.entry_len, y.entry_len)


def test_snapshot_is_the_mutable_state_and_a_fresh_host_resumes_from_it():
    """A snapshot is ``(vids, state, held)``: the columns a superstep writes
    plus the hop the worker sent itself — no program (its O(|D|) ``initial``
    ships once, in ``shared``), none of the static CSR ``create_partition``
    rebuilds — and a host that never saw the worker resumes it exactly."""
    graph = darwini_bipartite(2000, seed=3)
    config = SHPConfig(k=8, seed=1, swap_mode="bernoulli")
    binning = GainBinning(num_bins=config.num_bins, min_gain=config.min_gain)
    initial = balanced_random_assignment(graph.num_data, 2, np.random.default_rng(1))
    program = SHPColumnarProgram(graph.num_data, config, binning, "2", initial)
    master = _SHPMaster(graph.num_data, config, binning, "2", config.iterations_per_bisection)
    engine = GiraphEngine(ClusterSpec(num_workers=2), seed=1)
    engine.load(graph.num_data + graph.num_queries, graph=graph)

    backend = SimulatedBackend()
    shared, snapshots = backend._plan(engine, program, None)
    assert shared["program"] is program
    host = WorkerHost()
    host.init(shared, dict(enumerate(snapshots)))

    def step(on, superstep, aggregates, wids, checkpoint):
        broadcasts = master.compute(superstep, aggregates)
        inboxes = {wid: backend._inboxes[wid] for wid in wids}
        return on.step(superstep, broadcasts, inboxes, checkpoint), broadcasts

    aggregates: dict = {}
    for superstep in range(5):  # one full S1-S4 cycle, then the next S1
        replies, _ = step(host, superstep, aggregates, (0, 1), True)
        results = backend._commit(replies)
        aggregates = merge_aggregates([r.aggregates for r in results])

    static = {"dvids", "d_adj_indptr", "d_adj_q", "qvids", "q_weight", "q_adj_indptr", "q_adj_d"}
    derived = {"pin_cell", "row_ptr", "row_vertex", "weight_sum", "_rem_table", "_ins_table"}
    for wid, (_, hops, ckpt) in replies.items():
        vids, state, held = snapshot = pickle.loads(ckpt)
        assert isinstance(vids, np.ndarray)
        partition = host.workers[wid][1]
        assert not static & state.keys() and static <= vars(partition).keys()
        # Nothing derived travels either: the gain tables, the cells' Eq. 1
        # values and the S3 join come back from ``load_state``.  Of the two
        # slot tables the keys and the counts travel, nothing else.
        assert not derived & state.keys() and derived <= vars(partition).keys()
        assert not derived & set(_MUTABLE) and set(_MUTABLE) < state.keys()
        for name in ("nd", "cache"):
            table = getattr(partition, name)
            assert np.array_equal(state[name + "_keys"], table.keys) and table.keys.size > 0
            assert np.array_equal(state[name + "_sides"], table.sides)
            assert state[name + "_sides"].dtype == np.int32
        assert state.keys() - set(_MUTABLE) == {"nd_keys", "nd_sides", "cache_keys", "cache_sides"}
        assert all(isinstance(state[name], np.ndarray) for name in state.keys() - {"parity", "computed_under"})
        # What does travel is who S3 must recompute — the first cycle's
        # movers, until the next S3.
        assert 0 < np.count_nonzero(state["stale"]) < state["stale"].size
        assert b"SHPColumnarProgram" not in ckpt
        # Columns only: no dict keyed by vertex id (each worker holds ~2000
        # vertices; the dict that remains is the per-bucket parity).
        assert all(len(d) < 100 for d in _containers(snapshot))
        # S1 just ran: the deltas this worker addressed to its own queries
        # are held, not routed.
        assert wid not in hops and sum(len(batch) for batch in held) > 0

    fresh = WorkerHost()
    fresh.init(shared, {})
    assert fresh.adopt(1, replies[1][2]) == 1
    kept_part, fresh_part = host.workers[1][1], fresh.workers[1][1]
    assert kept_part is not fresh_part
    assert program.partition_nbytes(kept_part) == program.partition_nbytes(fresh_part)
    for name in derived:
        assert np.array_equal(getattr(kept_part, name), getattr(fresh_part, name))
    for kept_table, fresh_table in ((kept_part.nd, fresh_part.nd), (kept_part.cache, fresh_part.cache)):
        assert kept_table is not fresh_table and kept_table.nbytes == fresh_table.nbytes
        assert np.array_equal(kept_table.keys, fresh_table.keys)
        assert np.array_equal(kept_table.sides, fresh_table.sides)
        for kept_values, fresh_values in zip(kept_table.values, fresh_table.values, strict=True):
            assert kept_values.tobytes() == fresh_values.tobytes()
    assert len(fresh_part.cache.values) == 2 and np.any(fresh_part.cache.values[0])
    assert fresh_part.pin_cell.size == fresh_part.d_adj_q.size and (fresh_part.pin_cell >= 0).all()
    # master.compute mutates the master, so both hosts get one broadcast.
    (kept, broadcasts) = step(host, 5, aggregates, (1,), False)
    adopted = fresh.step(5, broadcasts, {1: backend._inboxes[1]}, False)
    (report, hops, _), (report2, hops2, _) = kept[1], adopted[1]
    assert report.messages_sent == report2.messages_sent > 0
    assert (report.ops, report.active, report.state_bytes) == (
        report2.ops, report2.active, report2.state_bytes
    )
    assert report.aggregates.keys() == report2.aggregates.keys()
    for name, columns in report.aggregates.items():
        for ours, theirs in zip(columns, report2.aggregates[name], strict=True):
            assert ours.dtype == theirs.dtype == np.int64 and np.array_equal(ours, theirs)
    assert np.array_equal(report.remote_row, report2.remote_row)
    assert hops.keys() == hops2.keys()
    for dst in hops:
        _same_batches(hops[dst], hops2[dst])
    _same_batches(host.held[1], fresh.held[1])
