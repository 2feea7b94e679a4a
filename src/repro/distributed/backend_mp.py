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
* The immutable graph travels by reference: an in-memory graph's CSR
  arrays are published once through the shared-memory pool
  (:mod:`repro.distributed.shared_pool`) and attached zero-copy,
  read-only; a store-backed graph pickles as its path and every worker
  maps the file itself.
* Message hops are pickled **once** in the sending worker and routed by
  the master as opaque byte blobs, so the master never re-serializes
  traffic it merely forwards.  No checkpoints are taken: a dead worker
  fails the run.

Determinism: placement comes from the engine seed and ``ctx.random()`` is
counter-based (see :mod:`repro.distributed.engine`), so a job produces
bit-identical vertex states on this backend and on the simulator.
"""

from __future__ import annotations

import multiprocessing as mp
import time

import numpy as np

from ..storage import open_store_view
from .backend import Backend
from .shared_pool import SharedArrayPack, SharedArrayPool, default_mp_context
from .worker import WorkerHost, serve

__all__ = ["MultiprocessBackend", "SharedArrayPack", "share_graph", "attach_graph"]


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
        serve(_PipeChannel(conn, init), WorkerHost())
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

    def __init__(self, mp_context: str | None = None, step_timeout: float = 600.0):
        self.mp_context = mp_context or default_mp_context()
        self.step_timeout = step_timeout
        # Per-run state (managed by the _open/_finish/_close hooks; defaults
        # let _close run safely even when _open failed partway).
        self._workers: list = []
        self._conns: list = []
        # All shared segments (placement table, graph CSR) live in one
        # pool so teardown is a single idempotent close().
        self._pool = SharedArrayPool()

    # ------------------------------------------------------------------
    # Backend hooks (the shared superstep driver lives in Backend.run)
    # ------------------------------------------------------------------
    def _open(self, engine, program, combiner) -> None:
        shared, snapshots = self._plan(engine, program, combiner)
        ctx = mp.get_context(self.mp_context)

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

        self._workers = []
        self._conns = []
        for worker_id, snapshot in enumerate(snapshots):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, ("init", shared, {worker_id: snapshot}), handles),
                name=f"repro-worker-{worker_id}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._workers.append(proc)
            self._conns.append(parent_conn)
        for worker_id in range(self._num_workers):
            self._recv(worker_id)  # the init reply: partitions are built

    def _execute_superstep(self, superstep: int, broadcasts: dict):
        for worker_id, conn in enumerate(self._conns):
            conn.send(
                ("step", superstep, broadcasts, {worker_id: self._inboxes[worker_id]}, False)
            )
        replies: dict[int, tuple] = {}
        for worker_id in range(self._num_workers):
            replies.update(self._recv(worker_id))
        return self._commit(replies)

    def _finish(self) -> dict:
        for conn in self._conns:
            conn.send(("collect",))
        collected: dict = {}
        for worker_id in range(self._num_workers):
            collected.update(self._recv(worker_id))
        for conn in self._conns:
            conn.send(("exit",))
        for proc in self._workers:
            proc.join(timeout=30)
        return collected

    def _close(self) -> None:
        for proc in self._workers:
            if proc.is_alive():  # pragma: no cover - error-path cleanup
                proc.terminate()
                proc.join(timeout=5)
        for conn in self._conns:
            conn.close()
        self._workers = []
        self._conns = []
        self._pool.close()
        self._engine = None
        self._inboxes = []

    # ------------------------------------------------------------------
    def _recv(self, worker_id: int):
        """One reply payload from a worker, surfacing its death or error."""
        conn, proc = self._conns[worker_id], self._workers[worker_id]
        deadline = time.monotonic() + self.step_timeout
        while not conn.poll(0.05):
            if not proc.is_alive():
                raise RuntimeError(
                    f"worker {worker_id} exited unexpectedly "
                    f"(exitcode {proc.exitcode})"
                )
            if time.monotonic() > deadline:  # pragma: no cover - hang guard
                raise TimeoutError(
                    f"worker {worker_id} missed the superstep barrier "
                    f"({self.step_timeout:.0f}s)"
                )
        try:
            reply = conn.recv()
        except (EOFError, ConnectionResetError) as exc:
            raise RuntimeError(
                f"worker {worker_id} died at the superstep barrier "
                f"(exitcode {proc.exitcode}); if the start method is 'spawn', "
                "the driving script must be importable (run under "
                "`if __name__ == '__main__':` guards)"
            ) from exc
        except Exception as exc:  # payload did not survive unpickling
            raise RuntimeError(
                f"worker {worker_id} sent an undecodable message: {exc!r}"
            ) from exc
        return self._payload(reply, f"worker {worker_id}")
