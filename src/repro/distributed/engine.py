"""A Giraph-like vertex-centric execution engine (Section 3.2 substrate).

The engine executes *supersteps*: every active vertex runs a user-defined
compute function over the messages delivered to it, optionally sending
messages along edges and contributing to global aggregators; a
synchronization barrier ends the superstep and a master program runs
between barriers (computing, e.g., SHP's move probabilities).  Vertices are
distributed across workers by random placement, exactly as "Giraph
distributes vertices among machines in a Giraph cluster randomly"
(Section 3.3) — so per-worker load and communication metering reflect what
a real deployment would see.

Execution is delegated to a pluggable :class:`~repro.distributed.Backend`.
Worker behaviour has one implementation —
:class:`repro.distributed.worker.WorkerHost` — and a backend is the
transport that reaches it:

* :class:`~repro.distributed.SimulatedBackend` (default) calls the host
  in-process, sequentially, with full metering — fast to start, fully
  deterministic, ideal for tests and message-complexity studies.
* :class:`~repro.distributed.MultiprocessBackend` runs one host per OS
  process behind a pipe, shares immutable graph arrays via
  ``multiprocessing.shared_memory`` and routes once-pickled message hops —
  real parallel wall-clock on one machine.
* :class:`~repro.distributed.RpcBackend` runs hosts behind framed TCP
  sockets (localhost or other machines), checkpoints once per protocol
  cycle and, when a worker dies, re-homes it from that checkpoint,
  replays the supersteps since and retries the current one.

All three therefore run the *same* per-worker superstep code
(:func:`repro.distributed.backend.execute_worker_superstep_batch`) and are
bit-identical for a given seed: vertex placement comes from the engine seed,
and :meth:`BatchContext.random` draws are counter-based — a pure hash of
``(seed, superstep, vertex, draw index)`` — so they do not depend on which
worker holds a vertex or in what order workers execute.

The engine runs exactly one kind of program, the columnar
:class:`BatchVertexProgram`, and vertex state only ever exists as the
program's per-worker partition objects (structs of arrays): vertices are
the ids ``0..n-1``, ``create_partition`` builds a worker's columns from
what the program itself holds, ``collect_states`` hands the final columns
back.  (A per-vertex ``compute(ctx, vid, state, messages)`` reference
lives in ``tests/oracles/`` and runs through this same API.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .cluster import ClusterSpec
from .metrics import JobMetrics

__all__ = [
    "BatchContext",
    "BatchVertexProgram",
    "MasterProgram",
    "GiraphEngine",
    "JobResult",
    "counter_random_array",
]


class BatchVertexProgram(Protocol):
    """User code: one vectorized kernel per worker partition per superstep.

    A batch program owns a *partition object* per logical worker —
    typically a struct of numpy arrays over the worker's vertices — and
    executes each superstep as vectorized kernels over the whole partition,
    exchanging typed :class:`~repro.distributed.messages.MessageBatch`
    columns.  Every backend runs it through
    :func:`repro.distributed.backend.execute_worker_superstep_batch`.

    Programs must be picklable (``mp``/``rpc`` ship one copy per host, in
    the ``init`` request) and hold no per-worker state once
    ``create_partition`` returned: everything a superstep writes lives in
    the partition.  State goes in as whatever the program holds (e.g. an
    initial assignment array) and comes out as whatever ``collect_states``
    returns — columns in, columns out; the engine never sees a per-vertex
    Python object.

    A checkpointing transport (``rpc``) additionally reads ``phase_cycle``
    — the number of supersteps in one protocol cycle; it checkpoints after
    the last superstep of each cycle, after every superstep when the
    attribute is absent — and calls ``save_state`` / ``load_state``.
    """

    def phase_name(self, superstep: int) -> str:
        """Label for metrics grouping (e.g. SHP's four protocol phases)."""
        ...  # pragma: no cover - protocol

    def create_partition(self, worker_id: int, vids: np.ndarray, graph) -> object:
        """Build the worker-local struct-of-arrays state for the ascending
        vertex ids ``vids``; ``graph`` is the read-only graph the engine was
        loaded with (zero-copy shared memory / a re-mapped store off-process)."""
        ...  # pragma: no cover - protocol

    def compute_partition(
        self, ctx: "BatchContext", partition: object, inbox: list
    ) -> None:
        """Run one superstep over the whole partition (vectorized)."""
        ...  # pragma: no cover - protocol

    def collect_states(self, partition: object) -> object:
        """The partition's final state, as columns, for ``JobResult.states``."""
        ...  # pragma: no cover - protocol

    def partition_nbytes(self, partition: object) -> int:
        """Resident bytes of the partition (memory metering)."""
        ...  # pragma: no cover - protocol

    def save_state(self, partition: object) -> object:
        """The picklable part of ``partition`` a peer cannot rebuild with
        ``create_partition`` — what a checkpoint carries."""
        ...  # pragma: no cover - protocol

    def load_state(self, partition: object, state: object) -> None:
        """Resume a freshly created partition from ``save_state``'s value."""
        ...  # pragma: no cover - protocol


class MasterProgram(Protocol):
    """Code run on the master between barriers."""

    def compute(self, superstep: int, aggregates: dict) -> dict | None:
        """Return broadcast values for the next superstep, or ``None`` to halt.

        ``aggregates`` is the previous superstep's ``{name: (keys, values)}``:
        per aggregator the distinct int64 keys any worker reported,
        ascending, and the int64 sum of what was reported under each."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# Counter-based randomness (order-independent across backends)
# ----------------------------------------------------------------------
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_64 = 1.0 / float(1 << 64)


def counter_random_array(
    seed: int, superstep: int, vids: np.ndarray, draw: int = 0
) -> np.ndarray:
    """Uniform draws in [0, 1) from a splitmix64-style hash of the key.

    A pure function of ``(seed, superstep, vid, draw)`` per element: the
    same vertex gets the same stream no matter which worker runs it or in
    what order — the property that makes the backends bit-identical.
    (uint64 wraparound is the mod-2^64 arithmetic of the scalar reference
    in ``tests/oracles/per_vertex.py``, which ``test_engine`` pins this to.)
    """
    vids = np.asarray(vids)
    base = (
        seed * _GOLDEN
        + (superstep + 1) * _MIX1
        + (draw + 1) * 0xD6E8FEB86659FD93
    ) & _MASK64
    x = np.uint64(base) + (vids.astype(np.uint64) + np.uint64(1)) * np.uint64(_MIX2)
    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
    return x.astype(np.float64) * _INV_2_64


@dataclass
class BatchContext:
    """Per-superstep API handed to :class:`BatchVertexProgram` kernels.

    Sends are whole :class:`~repro.distributed.messages.MessageBatch`
    columns, aggregations are ``(keys, values)`` arrays, and randomness is drawn per
    vertex-id array from the counter-based stream.  Op accounting is
    explicit (``charge``) plus one op per sent message (and one per local
    vertex, added at the barrier).
    """

    superstep: int
    worker_id: int
    broadcasts: dict
    seed: int = 0
    _ops: float = 0.0
    _active: int = 0
    _transient_bytes: int = 0
    _outbox: list = field(default_factory=list, repr=False)
    _aggregates: list = field(default_factory=list, repr=False)

    def send_batch(self, batch) -> None:
        """Queue a typed message batch (delivered next superstep)."""
        if len(batch):
            self._outbox.append(batch)
            self._ops += len(batch)

    def aggregate(self, name: str, keys, values) -> None:
        """Add ``values[i]`` under ``keys[i]`` to the named global aggregator
        (int64 both; a scalar aggregator is one value under key 0)."""
        columns = (np.asarray(column, dtype=np.int64).ravel() for column in (keys, values))
        self._aggregates.append({name: tuple(columns)})

    def charge(self, ops: float) -> None:
        """Account ``ops`` units of compute work."""
        self._ops += ops

    def add_active(self, count: int) -> None:
        """Report ``count`` vertices as active this superstep."""
        self._active += int(count)

    def charge_transient(self, nbytes: int) -> None:
        """Report ``nbytes`` of transient kernel working buffers.

        Kernels report the footprint of the scratch arrays a call
        materializes (joins, entry expansions, candidate grids); the
        superstep keeps the per-worker **peak** across kernel calls, which
        surfaces in manifests as ``peak_transient_bytes`` alongside the
        resident ``memory_per_worker`` accounting.  The charge is a pure
        function of array sizes, so it is identical across backends.
        """
        self._transient_bytes = max(self._transient_bytes, int(nbytes))

    def random(self, vids: np.ndarray, draw: int = 0) -> np.ndarray:
        """Counter-based uniform draws for an array of vertex ids."""
        return counter_random_array(self.seed, self.superstep, vids, draw)


@dataclass
class JobResult:
    """Final vertex states plus execution metrics."""

    #: per logical worker (index = worker id), what the program's
    #: ``collect_states`` returned for that worker's partition.
    states: list
    metrics: JobMetrics
    supersteps_run: int
    halted_by_master: bool


class GiraphEngine:
    """A Giraph-like cluster executing vertex-centric programs.

    Parameters
    ----------
    cluster:
        Worker count and machine model (:class:`ClusterSpec`).
    seed:
        Controls random vertex placement and all :meth:`BatchContext.random`
        draws; identical seeds reproduce identical runs on *every* backend.
    backend:
        ``"sim"`` (default), ``"mp"``, ``"rpc"``, or a :class:`Backend`
        instance.
    """

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        seed: int = 0,
        backend: "str | object | None" = None,
    ):
        from .backend import resolve_backend

        self.cluster = cluster or ClusterSpec()
        self.seed = seed
        self.backend = resolve_backend(backend)
        self._rng = np.random.default_rng(seed)
        self._graph = None
        #: dense vid -> logical worker lookup.
        self._worker_of_array = np.empty(0, dtype=np.int64)
        #: per logical worker, its vertex ids (ascending).
        self._worker_vertices: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # Graph loading
    # ------------------------------------------------------------------
    def load(self, num_vertices: int, graph=None) -> None:
        """Place vertices ``0..num_vertices-1`` randomly on workers.

        ``graph`` optionally attaches a read-only :class:`BipartiteGraph`
        shared with every worker (zero-copy under the multiprocess backend);
        programs receive it in ``create_partition``.
        """
        self._graph = graph
        placement = self._rng.integers(0, self.cluster.num_workers, size=num_vertices)
        self._worker_of_array = placement
        # A stable sort by worker keeps every worker's ids ascending.
        counts = np.bincount(placement, minlength=self.cluster.num_workers)
        self._worker_vertices = np.split(
            np.argsort(placement, kind="stable"), np.cumsum(counts)[:-1]
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: BatchVertexProgram,
        master: MasterProgram | None = None,
        max_supersteps: int = 100,
        combiner=None,
    ) -> JobResult:
        """Execute supersteps until the master halts or the budget runs out.

        Per superstep: the master runs first (seeing the previous step's
        aggregates, returning broadcasts or ``None`` to halt), then every
        worker's partition kernel, then message delivery with metering.
        """
        return self.backend.run(self, program, master, max_supersteps, combiner)
