"""Shared-nothing multiprocess backend: one OS process per cluster worker.

Layout (mirrors a small Giraph deployment on a single machine):

* The **master** (calling process) runs the master program, reduces
  aggregators, routes message hops between workers and assembles the
  per-superstep metrics — exactly the responsibilities Giraph gives its
  master/coordinator.
* Each **worker process** runs the shared service loop
  (:func:`repro.distributed.worker.serve`) over its end of a pipe: a
  :class:`~repro.distributed.worker.WorkerHost` holding one logical
  worker, whose partition is built in the worker and never shared.
* The master reaches them through :class:`PipeWorkers`, the one pipe
  master in ``src/``; the refine pool (:mod:`repro.core.parallel_refine`)
  and the ``rpc`` backend's localhost auto-spawn use it too.  It lives in
  this driver module because its hang guard reads the clock (REP006).
* The immutable graph travels by reference: an in-memory graph's CSR
  arrays are published once through the shared-memory pool
  (:mod:`repro.distributed.shared_pool`) and attached zero-copy,
  read-only; a store-backed graph pickles as its path and every worker
  maps the file itself.
* Message hops are pickled **once** in the sending worker and routed by
  the master as opaque byte blobs, so the master never re-serializes
  traffic it merely forwards; the hop a worker addresses to itself stays
  live in its process.  No snapshots are taken: a dead worker fails the
  run.

Determinism: placement comes from the engine seed and ``ctx.random()`` is
counter-based (see :mod:`repro.distributed.engine`), so a job produces
bit-identical vertex states on this backend and on the simulator.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

from ..api.spec import ExecutionSpec
from ..storage import open_store_view
from .backend import Backend
from .shared_pool import SharedArrayPack, SharedArrayPool, default_mp_context
from .worker import WorkerHost

__all__ = ["MultiprocessBackend", "PipeWorkers", "SharedArrayPack", "share_graph", "attach_graph"]


def share_graph(graph) -> tuple[SharedArrayPack, dict]:
    """Publish a :class:`BipartiteGraph`'s arrays; returns (pack, meta)."""
    arrays = {
        "q_indptr": graph.q_indptr,
        "q_indices": graph.q_indices,
        "d_indptr": graph.d_indptr,
        "d_indices": graph.d_indices,
    }
    meta = {
        "num_queries": graph.num_queries,
        "num_data": graph.num_data,
        "name": graph.name,
    }
    if graph.data_weights is not None:
        arrays["data_weights"] = np.asarray(graph.data_weights)
    if graph.query_weights is not None:
        arrays["query_weights"] = np.asarray(graph.query_weights)
    return SharedArrayPack.create(arrays), meta


def attach_graph(handle: tuple, meta: dict):
    """Rebuild a read-only :class:`BipartiteGraph` over shared arrays."""
    from ..hypergraph.bipartite import BipartiteGraph

    pack = SharedArrayPack.attach(handle)
    arrays = pack.arrays()
    graph = BipartiteGraph(
        num_queries=meta["num_queries"],
        num_data=meta["num_data"],
        q_indptr=arrays["q_indptr"],
        q_indices=arrays["q_indices"],
        d_indptr=arrays["d_indptr"],
        d_indices=arrays["d_indices"],
        data_weights=arrays.get("data_weights"),
        query_weights=arrays.get("query_weights"),
        name=meta["name"],
    )
    return graph, pack


# ----------------------------------------------------------------------
# The pipe master
# ----------------------------------------------------------------------
class PipeWorkers:
    """N sibling worker processes on duplex pipes: request, one reply, barrier.

    The master half of :func:`repro.distributed.worker.serve`, written
    once.  Worker ``i`` runs ``target(conn, *worker_args[i])`` as a daemon
    process under the fork-preferred start method (``mp_context``, else
    ``REPRO_MP_CONTEXT``); a spawn that fails part-way leaves no child
    running.  ``label`` names a worker in every error (``worker 1 exited
    unexpectedly (exitcode -9)``); ``step_timeout`` bounds each wait.

    The whole dispatch surface is :meth:`barrier` — a request to every
    worker, then a reply from every worker — and :meth:`gather`, its
    second half alone, for the one reply a ``target`` sends unasked when it
    starts.  There is no per-worker send or receive to call, so an owner
    (the mp backend, the refine pool, the rpc auto-spawn) cannot dispatch
    a request whose reply is never read.
    """

    def __init__(self, mp_context, target, worker_args, label: str, step_timeout: float):
        ctx = mp.get_context(mp_context or default_mp_context())
        self.label = label
        self.step_timeout = step_timeout
        self.procs: list = []
        self.conns: list = []
        try:
            for worker_id, args in enumerate(worker_args):
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                self.conns.append(parent_conn)
                proc = ctx.Process(
                    target=target, args=(child_conn, *args),
                    name=f"repro {label} {worker_id}", daemon=True,
                )
                try:
                    proc.start()
                finally:
                    child_conn.close()
                self.procs.append(proc)
        except BaseException:
            self.close(grace=0.0)
            raise

    def _send(self, worker_id: int, request: tuple) -> None:
        """Dispatch one request; a dead worker's pipe is a named error."""
        try:
            self.conns[worker_id].send(request)
        except OSError as exc:
            proc = self.procs[worker_id]
            proc.join(timeout=1)
            raise RuntimeError(
                f"{self.label} {worker_id} is gone (exitcode {proc.exitcode}); "
                f"dispatch {request[0]!r} failed: {exc}"
            ) from exc

    def _recv(self, worker_id: int):
        """One reply payload from a worker, surfacing its death, its hang
        or the error it shipped (re-raised with its traceback chained)."""
        conn, proc = self.conns[worker_id], self.procs[worker_id]
        who = f"{self.label} {worker_id}"
        deadline = time.monotonic() + self.step_timeout
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise RuntimeError(f"{who} exited unexpectedly (exitcode {proc.exitcode})")
            if time.monotonic() > deadline:
                raise TimeoutError(f"{who} sent no reply within {self.step_timeout:g}s")
        try:
            reply = conn.recv()
        except (EOFError, OSError) as exc:
            # poll() is true for EOF too: a SIGKILLed worker's half-closed
            # pipe reads as "readable" and then fails here.
            proc.join(timeout=1)
            raise RuntimeError(
                f"{who} died at the barrier (exitcode {proc.exitcode}); if the "
                "start method is 'spawn', the driving script must be importable "
                "(run under `if __name__ == '__main__':` guards)"
            ) from exc
        except Exception as exc:  # payload did not survive unpickling
            raise RuntimeError(f"{who} sent an undecodable message: {exc!r}") from exc
        return Backend._payload(reply, who)

    def barrier(self, requests: list[tuple]) -> list:
        """Send worker ``i`` ``requests[i]`` (one per worker), then
        :meth:`gather` the replies."""
        if len(requests) != len(self.procs):
            raise ValueError(f"{len(requests)} requests for {len(self.procs)} {self.label}s")
        for worker_id, request in enumerate(requests):
            self._send(worker_id, request)
        return self.gather()

    def gather(self) -> list:
        """One reply payload from every worker, in worker order."""
        return [self._recv(worker_id) for worker_id in range(len(self.procs))]

    def close(self, grace: float = 30.0) -> None:
        """``exit`` every worker, give each ``grace`` seconds to leave,
        terminate the rest and close the pipes (idempotent).  Error paths
        pass ``grace=0``: a worker blocked mid-reply never reads ``exit``."""
        for conn in self.conns:
            try:
                conn.send(("exit",))
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=grace)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            conn.close()
        self.procs = []
        self.conns = []


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
class _PipeChannel:
    """Worker end of the master pipe, as :func:`serve` sees it.

    The ``init`` request rides in on the process arguments instead of the
    pipe: under ``fork`` it is inherited, never pickled, so programs reach
    the worker at no cost and need not be picklable.
    """

    def __init__(self, conn, init: tuple):
        self._conn = conn
        self._init = init

    def recv(self):
        if self._init is not None:
            msg, self._init = self._init, None
            return msg
        return self._conn.recv()

    def send(self, reply) -> None:
        self._conn.send(reply)


def _worker_main(conn, init: tuple, handles: dict) -> None:
    """Entry point of one worker process: the shared service loop.

    ``handles`` names the parts of the job context that were handed over
    by reference; they are attached (zero-copy, read-only) and filled into
    the ``init`` request before the loop sees it.
    """
    packs = []
    try:
        shared = init[1]
        packs.append(SharedArrayPack.attach(handles["worker_of"]))
        shared["worker_of"] = packs[-1].arrays()["worker_of"]
        if "store" in handles:
            shared["graph"] = open_store_view(handles["store"])
        elif "graph" in handles:
            shared["graph"], graph_pack = attach_graph(*handles["graph"])
            packs.append(graph_pack)
        WorkerHost().serve(_PipeChannel(conn, init))
    finally:
        for pack in packs:
            # Views into a segment may still be referenced here; close()
            # tolerates that (BufferError) — the handle goes away with the
            # process either way, this keeps cleanup symmetric.
            pack.close()
        conn.close()


# ----------------------------------------------------------------------
# Backend
# ----------------------------------------------------------------------
class MultiprocessBackend(Backend):
    """One OS process per worker; shared-memory graph; barriered supersteps.

    Parameters
    ----------
    mp_context:
        ``"fork"`` (default where available — instant startup) or
        ``"spawn"`` (portable, true cold-start workers).  Overridable via
        the ``REPRO_MP_CONTEXT`` environment variable.
    step_timeout:
        Seconds to wait for a worker at each barrier before declaring the
        run dead (guards CI against hung workers).
    """

    name = "mp"

    def __init__(
        self, mp_context: str | None = None, step_timeout: float = ExecutionSpec.step_timeout
    ):
        self.mp_context = mp_context or default_mp_context()
        self.step_timeout = step_timeout
        # Per-run state (managed by the _open/_finish/_close hooks; the
        # default lets _close run safely even when _open failed partway).
        self._group: PipeWorkers | None = None
        # All shared segments (placement table, graph CSR) live in one
        # pool so teardown is a single idempotent close().
        self._pool = SharedArrayPool()

    # ------------------------------------------------------------------
    # Backend hooks (the shared superstep driver lives in Backend.run)
    # ------------------------------------------------------------------
    def _open(self, engine, program, combiner) -> None:
        shared, snapshots = self._plan(engine, program, combiner)

        # What every worker reads travels by reference: arrays as one
        # shared-memory copy (not one private copy per worker), a
        # store-backed graph as its path — each worker maps the file
        # itself and the OS page cache shares the pages.
        handles: dict = {
            "worker_of": self._pool.publish(
                "placement", {"worker_of": shared["worker_of"]}
            )
        }
        shared["worker_of"] = None
        graph, shared["graph"] = shared["graph"], None
        store_path = getattr(graph, "store_path", None)
        if store_path is not None:
            handles["store"] = str(store_path)
        elif graph is not None:
            graph_pack, graph_meta = share_graph(graph)
            self._pool.adopt("graph", graph_pack)
            handles["graph"] = (graph_pack.handle, graph_meta)

        inits = [
            (("init", shared, {worker_id: snapshot}), handles)
            for worker_id, snapshot in enumerate(snapshots)
        ]
        self._group = PipeWorkers(
            self.mp_context, _worker_main, inits, "worker", self.step_timeout
        )
        self._group.gather()  # the init replies: partitions are built

    def _execute_superstep(self, superstep: int, broadcasts: dict):
        requests = [
            ("step", superstep, broadcasts, {worker_id: inbox}, False)
            for worker_id, inbox in enumerate(self._inboxes)
        ]
        replies: dict[int, tuple] = {}
        for reply in self._group.barrier(requests):
            replies.update(reply)
        return self._commit(replies)

    def _finish(self) -> dict:
        collected: dict = {}
        for reply in self._group.barrier([("collect",)] * self._num_workers):
            collected.update(reply)
        self._group.close()
        return collected

    def _close(self) -> None:
        if self._group is not None:
            self._group.close(grace=0.0)
            self._group = None
        self._pool.close()
        self._engine = None
        self._inboxes = []
