"""The shared service loop, driven with no processes and no sockets.

``serve`` + ``WorkerHost`` are the one worker runtime behind every
backend, so what is pinned here — the request/reply protocol, checkpoint
adoption, and the error-shipping path — holds for ``mp`` and ``rpc`` at
once.  The channel is an in-memory pair that pickles every message, i.e.
the process boundary without the process.
"""

from __future__ import annotations

import pickle
import queue
import threading

import pytest

from repro.distributed import ClusterSpec, GiraphEngine, SimulatedBackend
from repro.distributed.worker import WorkerHost, serve


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
        ctx.aggregate("seen", "count", 1.0)
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
        target=serve, args=(_End(to_worker, to_master), WorkerHost()), daemon=True
    )
    thread.start()
    master = _End(to_master, to_worker)
    yield master
    master.send(("exit",))
    thread.join(timeout=10)
    assert not thread.is_alive(), "serve did not return on exit"


def _engine(n=12, workers=2, seed=5):
    engine = GiraphEngine(ClusterSpec(num_workers=workers), seed=seed)
    engine.load({v: {} for v in range(n)})
    return engine


def _ok(reply):
    assert reply[0] == "ok", reply
    return reply[1]


def test_init_step_adopt_step_collect_matches_sim(served):
    master = served
    engine = _engine()
    reference = _engine().run(RingProgram(12), max_supersteps=2)

    # The master half is the real one: Backend._plan describes the job and
    # Backend._commit routes each barrier's hops.
    backend = SimulatedBackend()
    shared, snapshots = backend._plan(engine, RingProgram(12), None)
    master.send(("init", shared, dict(enumerate(snapshots))))
    assert _ok(master.recv()) == [0, 1]

    master.send(("step", 0, {}, dict(enumerate(backend._inboxes)), True))
    replies = _ok(master.recv())
    assert all(isinstance(blob, bytes) for _, hops, _ in replies.values() for blob in hops.values())
    checkpoint = replies[1][2]
    assert isinstance(checkpoint, bytes)
    first = backend._commit(replies)

    # Re-home logical worker 1 from its post-superstep checkpoint, then go on.
    master.send(("adopt", 1, checkpoint))
    assert _ok(master.recv()) == 1
    master.send(("step", 1, {}, dict(enumerate(backend._inboxes)), False))
    replies = _ok(master.recv())
    assert all(ckpt is None for _, _, ckpt in replies.values())
    second = backend._commit(replies)

    master.send(("collect",))
    collected = _ok(master.recv())
    states = {vid: state for wid in sorted(collected) for vid, state in collected[wid].items()}
    assert states == reference.states
    for results, step in zip((first, second), reference.metrics.supersteps):
        assert sum(r.messages_sent for r in results) == step.total_messages


def test_unknown_kind_and_pickle_poison_are_error_replies_and_the_loop_lives(served):
    master = served
    engine = _engine(n=4, workers=1)
    shared, snapshots = SimulatedBackend()._plan(engine, PoisonProgram(4), None)

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
