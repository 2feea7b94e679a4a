"""Execution backends for the vertex-centric engine.

The engine's superstep loop is backend-agnostic, and so is the worker: one
:class:`~repro.distributed.worker.WorkerHost` holds the logical workers a
peer hosts and runs their share of every superstep.  A :class:`Backend`
is a *transport* — where hosts live, how requests and hops reach them:

* :class:`SimulatedBackend` — one host in the calling process, called
  directly with live message objects.  Zero startup cost, deterministic,
  and the metering (messages, bytes, per-worker ops and memory) models
  what a real cluster would see.
* :class:`MultiprocessBackend` (``backend_mp``) — one OS process per
  worker serving :func:`~repro.distributed.worker.serve` over a pipe,
  shared-memory graph arrays, real parallel wall-clock.
* :class:`RpcBackend` (``backend_rpc``) — worker processes serving the
  same loop over TCP (auto-spawned localhost processes or external
  ``repro rpc-worker`` hosts), length-prefixed pickled frames, a
  snapshot per logical worker per protocol cycle; on worker death:
  adopt, replay the cycle so far, retry the superstep.

:func:`execute_worker_superstep_batch` has a single call site,
``WorkerHost.step``, and the master half every transport shares lives on
:class:`Backend` — so the numbers backends report and, given a seed, the
vertex states they produce are identical by construction.  See
``docs/architecture.md`` for the layer map and the parity invariants.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..api.registry import BACKENDS
from .messages import Combiner
from .metrics import JobMetrics, SuperstepMetrics

__all__ = [
    "Backend",
    "SimulatedBackend",
    "WorkerStepResult",
    "execute_worker_superstep_batch",
    "assemble_superstep_metrics",
    "resolve_backend",
    "resolve_combiner",
    "backend_names",
]


def resolve_combiner(combiner) -> Combiner | None:
    """Validate a job's combiner: ``None`` or a
    :class:`~repro.distributed.messages.Combiner` (whose ``combine_batch``
    is the vectorized per-destination reduction applied to outbound
    :class:`~repro.distributed.messages.MessageBatch` columns before
    routing)."""
    if combiner is not None and not isinstance(combiner, Combiner):
        raise TypeError(
            f"combiner must be a repro.distributed.Combiner, "
            f"got {type(combiner).__name__}"
        )
    return combiner


@dataclass
class WorkerStepResult:
    """Everything one worker reports at the superstep barrier."""

    worker_id: int
    #: outbound hops, keyed by destination worker id; each hop is a list
    #: of ``MessageBatch`` in send order.
    batches: dict[int, list] = field(default_factory=dict)
    #: ``{name: (keys ascending, summed values)}`` — see :func:`merge_aggregates`.
    aggregates: dict = field(default_factory=dict)
    ops: float = 0.0
    active: int = 0
    messages_sent: int = 0
    messages_local: int = 0
    bytes_local: int = 0
    #: bytes sent to each *remote* worker (own column is zero).
    remote_row: np.ndarray = field(default_factory=lambda: np.zeros(0))
    state_bytes: int = 0
    #: peak transient kernel-buffer bytes this superstep (columnar kernels
    #: report their scratch arrays via ``ctx.charge_transient``).
    transient_bytes: int = 0


def execute_worker_superstep_batch(
    worker_id: int,
    vids: np.ndarray,
    partition,
    program,
    superstep: int,
    broadcasts: dict,
    inbox: list,
    seed: int,
    worker_of_array: np.ndarray,
    num_workers: int,
    combiner: Combiner | None = None,
) -> WorkerStepResult:
    """Run one worker's share of a superstep and meter its traffic.

    This is the single code path executed by every backend (in-process or
    inside a worker OS process), which is what guarantees cross-backend
    parity.  Runs a :class:`~repro.distributed.engine.BatchVertexProgram`
    kernel over the worker's whole partition, then meters and routes its
    typed message batches with vectorized arithmetic: destination workers
    come from one dense placement lookup, byte counts from dtype-exact
    schema sizes, and batches split per destination worker without
    per-message Python work.  When a ``combiner`` is set, each outbound
    batch is segment-reduced per destination (``combiner.combine_batch``)
    before metering and routing, so the meters report the combined traffic
    that actually travels.  ``result.batches`` maps worker id -> list of
    MessageBatch.
    """
    from .engine import BatchContext

    ctx = BatchContext(
        superstep=superstep,
        worker_id=worker_id,
        broadcasts=broadcasts or {},
        seed=seed,
    )
    program.compute_partition(ctx, partition, inbox)

    outbox = ctx._outbox
    if combiner is not None:
        combined: list = []
        for batch in outbox:
            combined.extend(combiner.combine_batch(batch))
        outbox = [batch for batch in combined if len(batch)]

    result = WorkerStepResult(
        worker_id=worker_id,
        aggregates=merge_aggregates(ctx._aggregates),
        # One op per local vertex, on top of what the kernels charged.
        ops=float(ctx._ops) + float(len(vids)),
        active=ctx._active,
        remote_row=np.zeros(num_workers, dtype=np.float64),
    )
    for batch in outbox:
        dst_workers = worker_of_array[batch.dst]
        sizes = batch.per_message_nbytes()
        local = dst_workers == worker_id
        result.messages_sent += len(batch)
        result.messages_local += int(np.count_nonzero(local))
        result.bytes_local += int(sizes[local].sum())
        remote = np.bincount(dst_workers, weights=sizes, minlength=num_workers)
        remote[worker_id] = 0.0
        result.remote_row += remote
        for dst_worker, sub in batch.split(dst_workers, num_workers).items():
            result.batches.setdefault(dst_worker, []).append(sub)
    result.state_bytes = int(program.partition_nbytes(partition))
    result.transient_bytes = int(ctx._transient_bytes)
    return result


def assemble_superstep_metrics(
    results: list[WorkerStepResult],
    superstep: int,
    phase: str,
    num_workers: int,
) -> SuperstepMetrics:
    """Combine per-worker barrier reports into one :class:`SuperstepMetrics`."""
    ops = np.zeros(num_workers, dtype=np.float64)
    messages_per_worker = np.zeros(num_workers, dtype=np.float64)
    bytes_local = 0
    messages_local = 0
    messages_sent = 0
    sent_matrix = np.zeros((num_workers, num_workers), dtype=np.float64)
    local_bytes_per_worker = np.zeros(num_workers, dtype=np.float64)
    state_bytes = np.zeros(num_workers, dtype=np.float64)
    transient_bytes = np.zeros(num_workers, dtype=np.float64)
    active = 0
    for res in results:
        w = res.worker_id
        ops[w] = res.ops
        messages_per_worker[w] = res.messages_sent
        messages_sent += res.messages_sent
        messages_local += res.messages_local
        bytes_local += res.bytes_local
        sent_matrix[w] = res.remote_row
        local_bytes_per_worker[w] = res.bytes_local
        state_bytes[w] = res.state_bytes
        transient_bytes[w] = res.transient_bytes
        active += res.active

    # Remote traffic charges both endpoints (send + receive side).
    remote_bytes_per_worker = sent_matrix.sum(axis=1) + sent_matrix.sum(axis=0)
    bytes_remote = int(sent_matrix.sum())
    # Resident memory: worker-local states plus the mailbox it just received.
    inbound_bytes = sent_matrix.sum(axis=0) + local_bytes_per_worker
    return SuperstepMetrics(
        superstep=superstep,
        phase=phase,
        ops_per_worker=ops,
        messages_local=messages_local,
        messages_remote=messages_sent - messages_local,
        bytes_local=bytes_local,
        bytes_remote=bytes_remote,
        remote_bytes_per_worker=remote_bytes_per_worker,
        messages_per_worker=messages_per_worker,
        memory_per_worker=state_bytes + inbound_bytes,
        transient_bytes_per_worker=transient_bytes,
        active_vertices=active,
    )


def merge_aggregates(parts: list[dict]) -> dict:
    """Fold ``{name: (int64 keys, int64 values)}`` parts into one: per name
    the distinct keys ascending and the sum of the values under each.

    Parts are concatenated in the order given (ascending worker id at the
    barrier) and stably sorted by key, so each sum runs in that order —
    integer sums are exact in any order; the order is kept anyway."""
    merged = {}
    for name in sorted({name for part in parts for name in part}):
        keys = np.concatenate([part[name][0] for part in parts if name in part])
        values = np.concatenate([part[name][1] for part in parts if name in part])
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        # Where each run of equal keys starts (none in an empty column).
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1]))[: keys.size])
        merged[name] = (keys[starts], np.add.reduceat(values, starts))
    return merged


class Backend(ABC):
    """Transport strategy: where worker hosts live and how bytes reach them.

    :meth:`run` is a template method owning the whole superstep protocol —
    master compute/halt, combiner resolution, aggregate reduction, metrics
    assembly, wall-clock — and the helpers below it own the master half of
    every barrier (:meth:`_plan`, :meth:`_commit`, :meth:`_payload`), so a
    backend (``sim`` in-process, ``mp`` OS processes, ``rpc`` TCP workers)
    can only differ in *where* its
    :class:`~repro.distributed.worker.WorkerHost` instances run and *how*
    requests and replies move.

    Subclasses implement four hooks — :meth:`_open` /
    :meth:`_execute_superstep` / :meth:`_finish` carry the run,
    :meth:`_close` releases resources on every exit path — plus, for
    process-crossing transports, a channel for
    :func:`~repro.distributed.worker.serve`.  :meth:`_annotate_step` and
    :meth:`_annotate_job` let a backend attach physical measurements (wire
    bytes, barrier latency) to each superstep's and the job's metrics
    without touching the logical meters.  A backend instance drives one
    run at a time.

    Backend contract: :meth:`run` returns, per logical worker, what the
    program's ``collect_states`` made of that worker's final partition —
    bitwise-identical on every backend for a given seed; see
    ``docs/architecture.md`` ("bitwise-parity invariants").
    """

    name: str = "abstract"

    def run(self, engine, program, master, max_supersteps: int, combiner) -> "JobResult":
        """Execute the superstep loop for a loaded engine."""
        from .engine import JobResult

        combiner = resolve_combiner(combiner)
        num_workers = engine.cluster.num_workers
        metrics = JobMetrics(cluster=engine.cluster)
        start = time.perf_counter()
        halted = False
        broadcasts: dict = {}
        aggregates: dict = {}
        executed = 0

        try:
            self._open(engine, program, combiner)
            for superstep in range(max_supersteps):
                if master is not None:
                    broadcasts = master.compute(superstep, aggregates)
                    if broadcasts is None:
                        halted = True
                        break
                results = self._execute_superstep(superstep, broadcasts or {})
                aggregates = merge_aggregates([res.aggregates for res in results])
                step = assemble_superstep_metrics(
                    results, superstep, program.phase_name(superstep), num_workers
                )
                self._annotate_step(step)
                metrics.add(step)
                executed += 1
            collected = self._finish()
            self._annotate_job(metrics)
        finally:
            self._close()

        metrics.wall_seconds = time.perf_counter() - start
        return JobResult(
            states=[collected[wid] for wid in range(num_workers)],
            metrics=metrics,
            supersteps_run=executed,
            halted_by_master=halted,
        )

    # -- hooks -----------------------------------------------------------
    @abstractmethod
    def _open(self, engine, program, combiner) -> None:
        """Prepare a run: start/reach the hosts and ``init`` them."""

    @abstractmethod
    def _execute_superstep(self, superstep: int, broadcasts: dict) -> list[WorkerStepResult]:
        """Have every logical worker ``step`` once and :meth:`_commit` the
        barrier, so hops are delivered at ``superstep + 1``; returns the
        barrier reports."""

    @abstractmethod
    def _finish(self) -> dict:
        """Collect ``wid -> collect_states(partition)`` for every logical
        worker.  Called only when the loop completes cleanly."""

    def _close(self) -> None:
        """Release run resources (always called, including on errors)."""

    def _annotate_step(self, step) -> None:
        """Attach backend-specific measurements to a just-assembled
        :class:`~repro.distributed.metrics.SuperstepMetrics` (e.g. the RPC
        backend fills ``wire_bytes`` and ``round_trip_seconds`` from its
        sockets).  Default: no-op — the *logical* meters stay untouched so
        cross-backend parity holds."""

    def _annotate_job(self, metrics) -> None:
        """Attach what the backend measured outside any superstep to the
        finished job's :class:`~repro.distributed.metrics.JobMetrics` (the
        RPC backend: the wire bytes of the final collect).  Default: no-op."""

    # -- the master half every transport shares ----------------------------
    def _plan(self, engine, program, combiner) -> tuple[dict, list[tuple]]:
        """Describe a run the way ``WorkerHost.init`` takes it.

        Returns ``(shared, snapshots)``: the job-wide context — the program
        rides here, once per host — and one pristine ``(vids, None, [])``
        snapshot per logical worker (no state, nothing held: its partition
        is built by whichever host adopts it).  Also resets the per-run
        master state (:attr:`_inboxes`).
        """
        self._engine = engine
        self._num_workers = engine.cluster.num_workers
        #: per logical worker, the ``(source worker, hop)`` pairs to deliver
        #: at the next superstep.
        self._inboxes: list[list] = [[] for _ in range(self._num_workers)]
        shared = {
            "seed": engine.seed,
            "num_workers": self._num_workers,
            "combiner": combiner,
            "program": program,
            "graph": engine._graph,
            "worker_of": engine._worker_of_array,
        }
        snapshots = [(vids, None, []) for vids in engine._worker_vertices]
        return shared, snapshots

    def _commit(self, replies: dict[int, tuple]) -> list[WorkerStepResult]:
        """Barrier commit of ``wid -> (report, {dst: hop}, ...)`` replies.

        Hops are delivered as ``(source worker, hop)`` in ascending source
        order — the order that fixes every vertex's message sequence,
        hence the bitwise result — whatever order the replies arrived in;
        the source lets the receiving host slot in the hop its worker sent
        itself, which never reaches the master.  A hop is opaque here: live
        lists on ``sim``, once-pickled blobs on ``mp``/``rpc``.
        """
        inboxes: list[list] = [[] for _ in range(self._num_workers)]
        results = []
        for wid in range(self._num_workers):
            result, hops = replies[wid][:2]
            results.append(result)
            for dst, hop in hops.items():
                inboxes[dst].append((wid, hop))
        self._inboxes = inboxes
        return results

    @staticmethod
    def _payload(reply: tuple, who: str):
        """Payload of an ``("ok", payload)`` reply; a shipped ``("error",
        exc, traceback)`` is re-raised with the worker's traceback chained."""
        if reply[0] == "error":
            _, exc, tb = reply
            raise exc from RuntimeError(f"{who} failed:\n{tb}")
        return reply[1]


class SimulatedBackend(Backend):
    """In-process sequential execution of every worker (the classic mode):
    one :class:`~repro.distributed.worker.WorkerHost`, called directly."""

    name = "sim"

    def __init__(self):
        self._host = None

    def _open(self, engine, program, combiner) -> None:
        from .worker import WorkerHost

        shared, snapshots = self._plan(engine, program, combiner)
        self._host = WorkerHost()
        # One live program instance, shared with the caller — nothing is
        # copied or pickled.
        self._host.init(shared, dict(enumerate(snapshots)))

    def _execute_superstep(self, superstep: int, broadcasts: dict) -> list[WorkerStepResult]:
        return self._commit(
            self._host.step(superstep, broadcasts, dict(enumerate(self._inboxes)))
        )

    def _finish(self) -> dict:
        return self._host.collect()

    def _close(self) -> None:
        self._host = self._engine = None
        self._inboxes = []


@BACKENDS.register("sim")
def _make_sim() -> Backend:
    return SimulatedBackend()


@BACKENDS.register("mp", takes=("step_timeout",))
def _make_mp(**connection) -> Backend:
    from .backend_mp import MultiprocessBackend

    return MultiprocessBackend(**connection)


@BACKENDS.register("rpc", takes=("hosts", "connect_timeout", "step_timeout"))
def _make_rpc(**connection) -> Backend:
    from .backend_rpc import RpcBackend

    return RpcBackend(**connection)


def backend_names() -> list[str]:
    """Names accepted by :func:`resolve_backend` (and the CLI)."""
    return BACKENDS.names()


def resolve_backend(backend) -> Backend:
    """Turn ``None`` / a registered name / an instance into a :class:`Backend`.

    Names resolve through :data:`repro.api.registry.BACKENDS`, so a new
    substrate (e.g. an RPC backend) registered there is immediately
    addressable from job specs and the CLI.
    """
    if backend is None:
        return SimulatedBackend()
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, str) and backend in BACKENDS:
        return BACKENDS.get(backend)()
    raise ValueError(
        f"unknown backend {backend!r} (expected one of {backend_names()} "
        "or a Backend instance)"
    )
