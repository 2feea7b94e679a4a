"""The pipe contract, once: ``PipeWorkers`` (master) over ``serve`` (worker).

"N sibling processes on duplex pipes, request -> one reply, barrier" is
written once in ``src/`` — the worker half is
:func:`repro.distributed.worker.serve`, the master half
:class:`repro.distributed.backend_mp.PipeWorkers` — and used by the mp
backend's engine workers and the refine pool's gain workers alike.  What
is pinned here therefore holds for both: where a behaviour does not depend
on the handler table it is driven through both real tables, and the
branches no production handler can reach (an exception that does not
pickle, a reply that never comes) through a table defined here.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time

import pytest

from repro.core.parallel_refine import ParallelGainPool, _gain_worker_main
from repro.distributed.backend_mp import PipeWorkers
from repro.distributed.shared_pool import default_mp_context
from repro.distributed.worker import WorkerHost, serve


def _engine_worker(conn) -> None:
    """The engine's four-kind table, as an mp worker process serves it."""
    WorkerHost().serve(conn)


def _poison() -> None:
    class PicklePoison(Exception):  # a local class cannot be pickled
        pass

    raise PicklePoison("custom failure")


def _die() -> None:
    os.kill(os.getpid(), signal.SIGKILL)


def _misbehaving_worker(conn) -> None:
    serve(conn, {"poison": _poison, "sleep": time.sleep, "echo": lambda x: x, "die": _die})


# (worker entry, the label its owner gives it, a request its table fails on
# before any state is loaded, the exception that raises, a request it then
# still answers, that answer)
TABLES = pytest.mark.parametrize(
    "target, label, bad, exc_type, good, answer",
    [
        (_engine_worker, "worker", ("step", 0, {}, {0: []}, False), KeyError, ("collect",), {}),
        (_gain_worker_main, "refine worker", ("gains", 0, 4), TypeError, ("drop",), None),
    ],
    ids=["engine", "refine"],
)


@TABLES
def test_sigkill_before_a_barrier_is_a_named_error_with_the_exit_code(
    target, label, bad, exc_type, good, answer
):
    group = PipeWorkers(None, target, [()] * 2, label, 60.0)
    try:
        assert group.barrier([good, good]) == [answer, answer]
        victim = group.procs[1]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=rf"^{label} 1 is gone \(exitcode -9\)"):
            group.barrier([good, good])
        assert time.monotonic() - started < 5.0  # death detection, not the 60 s timeout
    finally:
        group.close(grace=0.0)


def test_sigkill_mid_dispatch_is_a_named_error_with_the_exit_code():
    # Worker 1 takes its request and SIGKILLs itself; worker 0's reply keeps
    # the master busy until that has happened, so worker 1 is read dead.
    group = PipeWorkers(None, _misbehaving_worker, [()] * 2, "worker", 60.0)
    try:
        started = time.monotonic()
        with pytest.raises(RuntimeError, match=r"^worker 1 died at the barrier \(exitcode -9\)"):
            group.barrier([("sleep", 0.5), ("die",)])
        assert time.monotonic() - started < 5.0
    finally:
        group.close(grace=0.0)


def test_the_dispatch_surface_is_barrier_and_gather():
    """No per-worker send / recv to call: an owner cannot write a dispatch
    whose reply is never read, or read a reply it never asked for."""
    public = {name for name in vars(PipeWorkers) if not name.startswith("_")}
    assert public == {"barrier", "gather", "close"}
    group = PipeWorkers(None, _misbehaving_worker, [()] * 2, "worker", 30.0)
    try:
        with pytest.raises(ValueError, match="1 requests for 2 workers"):
            group.barrier([("echo", 1)])  # refused before anything is sent
        assert group.barrier([("echo", 1), ("echo", 2)]) == [1, 2]
    finally:
        group.close()


def _announcing_worker(conn, port) -> None:
    conn.send(("ok", port))  # the unsolicited start-up reply
    serve(conn, {"echo": lambda x: x})


def test_gather_reads_the_start_up_reply_of_every_worker():
    group = PipeWorkers(None, _announcing_worker, [(7001,), (7002,)], "worker", 30.0)
    try:
        assert group.gather() == [7001, 7002]
        assert group.barrier([("echo", "a"), ("echo", "b")]) == ["a", "b"]
    finally:
        group.close()


@TABLES
def test_handler_error_arrives_as_its_own_type_and_the_loop_keeps_serving(
    target, label, bad, exc_type, good, answer
):
    group = PipeWorkers(None, target, [()], label, 30.0)
    try:
        with pytest.raises(exc_type) as raised:
            group.barrier([bad])
        cause = raised.value.__cause__
        assert isinstance(cause, RuntimeError)
        assert str(cause).startswith(f"{label} 0 failed:\nTraceback")
        assert group.barrier([good]) == [answer]
        worker = group.procs[0]
    finally:
        group.close()
    assert worker.exitcode == 0  # left on `exit`, was not terminated
    group.close()  # idempotent


def test_unpicklable_exception_degrades_to_a_summary_error():
    group = PipeWorkers(None, _misbehaving_worker, [()], "worker", 30.0)
    try:
        with pytest.raises(RuntimeError, match="^PicklePoison: custom failure$") as raised:
            group.barrier([("poison",)])
        assert "_poison" in str(raised.value.__cause__)  # the worker traceback
        assert group.barrier([("echo", 7)]) == [7]
    finally:
        group.close()


def test_a_reply_that_never_comes_is_a_timeout_error():
    group = PipeWorkers(None, _misbehaving_worker, [()] * 2, "worker", 0.2)
    try:
        started = time.monotonic()
        with pytest.raises(TimeoutError, match=r"^worker 1 sent no reply within 0\.2s"):
            group.barrier([("echo", 1), ("sleep", 30)])
        assert time.monotonic() - started < 5.0
        sleeper = group.procs[1]
    finally:
        group.close(grace=0.0)
    assert not sleeper.is_alive()  # terminated, not waited for


def test_owners_pass_their_label_and_timeout():
    pool = ParallelGainPool(1, step_timeout=7.5)
    try:
        assert (pool._group.label, pool._group.step_timeout) == ("refine worker", 7.5)
    finally:
        pool.close()


@pytest.mark.parametrize(
    "spawn",
    [
        lambda: PipeWorkers(None, _engine_worker, [()] * 3, "worker", 5.0),
        lambda: ParallelGainPool(3),
    ],
    ids=["group", "refine-pool"],
)
def test_a_spawn_that_fails_part_way_leaves_no_child_running(monkeypatch, spawn):
    ctx = mp.get_context(default_mp_context())
    real_process = ctx.Process
    created = []

    def failing_start():
        raise OSError("cannot fork")

    def factory(*args, **kwargs):
        proc = real_process(*args, **kwargs)
        if len(created) == 1:
            proc.start = failing_start
        created.append(proc)
        return proc

    monkeypatch.setattr(ctx, "Process", factory)
    with pytest.raises(OSError, match="cannot fork"):
        spawn()
    assert len(created) == 2  # the third worker was never attempted
    first = created[0]
    assert first.pid is not None  # it did start...
    first.join(timeout=5)
    assert not first.is_alive()  # ...and was reaped
