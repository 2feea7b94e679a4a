"""The worker runtime: one :class:`WorkerHost`, one :func:`serve` loop.

The paper's deployment (Sections 3.2-3.3) is one master coordinating
identical workers through barriered supersteps.  This module is that
worker, written once; the three backends are *transports* that reach it:

* ``sim`` owns a :class:`WorkerHost` in the calling process and calls
  :meth:`WorkerHost.step` directly with live message objects — nothing is
  pickled.
* ``mp`` runs :meth:`WorkerHost.serve` in one OS process per worker, over
  a ``multiprocessing`` pipe.
* ``rpc`` runs :meth:`WorkerHost.serve` per master connection, over a
  framed socket (:mod:`repro.distributed.wire`), and is the only
  transport that asks ``step`` for snapshots — on the last superstep of
  each protocol cycle.

On all three a hop a worker addresses to itself never leaves its host:
``step`` holds it live and hands it to the same worker's next step.

:func:`serve` is the only service loop in ``src/`` and knows no protocol:
:meth:`WorkerHost.serve` enters it with the engine's ``kind -> handler``
table (below), the refine pool's gain workers with ``level / gains /
drop`` (:mod:`repro.core.parallel_refine`).

Because every worker-side operation has exactly one call site here
(:func:`~repro.distributed.backend.execute_worker_superstep_batch`,
``create_partition``, ``save_state`` / ``load_state``, ``collect_states``,
the once-per-hop pickle), cross-backend bitwise parity holds by
construction rather than by keeping three loops in step.

Engine protocol (the master sends a request tuple, ``serve`` answers each
with exactly one reply; ``exit`` is the only fire-and-forget kind — on the
master side a request and its reply are paired by the one function that
can dispatch: ``PipeWorkers.barrier`` on pipes, ``RpcBackend._round`` on
sockets):

====================================================================  =========================================
request                                                               reply payload (``("ok", payload)``)
====================================================================  =========================================
``("init", shared, {wid: snapshot})``                                 hosted logical worker ids
``("adopt", wid, snapshot)``                                          ``wid``
``("step", superstep, broadcasts, {wid: [(src, hop)]}, checkpoint)``  ``{wid: (report, {dst: hop}, snapshot)}``
``("collect",)``                                                      ``{wid: collected states}``
``("exit",)``                                                         *(none — the loop ends)*
====================================================================  =========================================

``shared`` is the job-wide context, program included; a snapshot is
``(vids, state, held)`` or its pickle — ``state`` is ``None`` and ``held``
empty in the pristine ones ``init`` takes; a step reply's is ``None``
unless ``checkpoint`` was set, and its ``{dst: hop}`` never has ``dst ==
wid``.

A handler that raises is answered with ``("error", exc, traceback)`` and
the loop keeps serving.
"""

from __future__ import annotations

import pickle
import traceback

from .backend import execute_worker_superstep_batch

__all__ = ["WorkerHost", "serve"]

_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL


class WorkerHost:
    """The state of every logical worker one peer hosts.

    A logical worker is its ascending vertex-id array plus the partition
    the job's program built for it (``workers[wid] = (vids, partition)``),
    and the hop it addressed to itself at the last superstep (``held``).
    The program is job-wide context: it arrives once, in ``init``'s
    ``shared``, and holds no per-worker state once ``create_partition``
    returned.  A **snapshot** is ``(vids, state, held)`` — ``state`` what
    ``program.save_state(partition)`` returns (the mutable columns only;
    ``None`` in a pristine snapshot) — so a worker can be re-homed onto any
    host by :meth:`adopt`, which rebuilds everything else from the graph
    that host already holds.
    """

    def __init__(self):
        self.graph = None
        self.program = None
        self.seed = 0
        self.num_workers = 0
        self.combiner = None
        #: dense vertex id -> logical worker array.
        self.worker_of = None
        self.workers: dict[int, tuple] = {}
        #: wid -> the hop ``wid`` sent to itself at its last step: live
        #: batches, delivered at its next step without leaving this host.
        self.held: dict[int, list] = {}

    def init(self, shared: dict, snapshots: dict) -> list[int]:
        """Install the job-wide context, then adopt the listed workers."""
        self.graph = shared["graph"]
        self.program = shared["program"]
        self.seed = shared["seed"]
        self.num_workers = shared["num_workers"]
        self.combiner = shared["combiner"]
        self.worker_of = shared["worker_of"]
        self.workers = {}
        self.held = {}
        return [self.adopt(wid, snapshots[wid]) for wid in sorted(snapshots)]

    def adopt(self, wid: int, snapshot) -> int:
        """Host logical worker ``wid`` from a snapshot tuple or its pickle
        (how checkpoints travel): the partition is built here, from this
        host's graph, and the snapshot's mutable state loaded into it."""
        if isinstance(snapshot, bytes):
            snapshot = pickle.loads(snapshot)
        vids, state, held = snapshot
        partition = self.program.create_partition(wid, vids, self.graph)
        if state is not None:
            self.program.load_state(partition, state)
        self.workers[wid] = (vids, partition)
        self.held[wid] = held
        return wid

    def step(
        self, superstep: int, broadcasts: dict, inboxes: dict, checkpoint: bool = False
    ) -> dict:
        """Run one superstep for the listed logical workers, ascending.

        ``inboxes[wid]`` lists the ``(source worker, hop)`` pairs delivered
        to ``wid`` by *other* workers, each hop a list of ``MessageBatch``;
        the hop ``wid`` sent itself is held here and merged back in, so
        batches reach the kernel in ascending source order.  Returns ``wid
        -> (barrier report, outbound hops keyed by destination worker,
        pickled post-superstep snapshot or None)``.
        """
        out = {}
        for wid in sorted(inboxes):
            vids, partition = self.workers[wid]
            delivered = dict(inboxes[wid])
            delivered[wid] = self.held[wid]
            inbox = [batch for src in sorted(delivered) for batch in delivered[src]]
            result = execute_worker_superstep_batch(
                wid, vids, partition, self.program, superstep, broadcasts, inbox,
                self.seed, self.worker_of, self.num_workers, self.combiner,
            )
            hops, result.batches = result.batches, {}
            self.held[wid] = hops.pop(wid, [])
            out[wid] = (result, hops, self._snapshot(wid) if checkpoint else None)
        return out

    def _snapshot(self, wid: int) -> bytes:
        """``wid`` as :meth:`adopt` takes it back, pickled."""
        vids, partition = self.workers[wid]
        held = [batch.compact() for batch in self.held[wid]]
        return pickle.dumps(
            (vids, self.program.save_state(partition), held), protocol=_PICKLE_PROTO
        )

    def step_pickled(
        self, superstep: int, broadcasts: dict, inboxes: dict, checkpoint: bool = False
    ) -> dict:
        """:meth:`step` as a process-crossing transport requests it.

        The once-per-hop codec: each (source, destination) hop that leaves
        this host is pickled exactly once, here in the sending worker —
        batches compacted to the entry rows they reference, so columns
        travel as a few large buffers — forwarded by the master as an
        opaque blob, and decoded once, here in the receiving worker.
        """
        live = {
            wid: [(src, pickle.loads(blob)) for src, blob in hops]
            for wid, hops in inboxes.items()
        }
        out = {}
        for wid, (result, hops, ckpt) in self.step(superstep, broadcasts, live, checkpoint).items():
            blobs = {
                dst: pickle.dumps([b.compact() for b in hop], protocol=_PICKLE_PROTO)
                for dst, hop in hops.items()
            }
            out[wid] = (result, blobs, ckpt)
        return out

    def collect(self) -> dict:
        """``collect_states`` of every hosted logical worker's partition."""
        return {
            wid: self.program.collect_states(partition)
            for wid, (_, partition) in sorted(self.workers.items())
        }

    def serve(self, channel) -> None:
        """Answer one master's engine requests over ``channel``: what an
        ``mp`` worker process and an ``rpc`` connection run."""
        serve(channel, {
            "init": self.init, "adopt": self.adopt,
            "step": self.step_pickled, "collect": self.collect,
        })


def serve(channel, handlers: dict) -> None:
    """Answer one master over ``channel`` until ``exit`` or hang-up.

    ``handlers`` maps each request kind to the callable that takes the
    request's arguments and returns the reply payload.
    ``channel.recv()`` returns the next request and ``channel.send(reply)``
    ships one reply; both raise ``EOFError``/``OSError`` once the master is
    gone, and ``send`` raises whatever pickling raises when a reply cannot
    cross the process boundary.
    """
    try:
        while True:
            kind, *args = channel.recv()
            if kind == "exit":
                return
            try:
                if kind not in handlers:
                    raise ValueError(f"unknown message kind {kind!r}")
                reply = ("ok", handlers[kind](*args))
            except Exception as exc:  # ship the failure; keep serving
                reply = ("error", exc, traceback.format_exc())
            try:
                channel.send(reply)
            except (EOFError, OSError):
                raise
            except Exception as exc:
                # The reply does not survive pickling (an exception with a
                # custom __init__, an unpicklable payload): fall back to a
                # summary that always does, so the master still sees the cause.
                tb = traceback.format_exc()
                if reply[0] == "error":
                    _, exc, tb = reply
                channel.send(("error", RuntimeError(f"{type(exc).__name__}: {exc}"), tb))
    except (EOFError, OSError):
        return  # master went away; nothing to report to
