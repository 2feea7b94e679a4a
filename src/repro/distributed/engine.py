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
  sockets (localhost or other machines), checkpoints every barrier and
  retries a superstep when a worker dies.

All three therefore run the *same* per-worker superstep code
(:func:`repro.distributed.backend.execute_worker_superstep` and its
columnar twin) and are
bit-identical for a given seed: vertex placement comes from the engine seed,
and :meth:`VertexContext.random` draws are counter-based — a pure hash of
``(seed, superstep, vertex, draw index)`` — so they do not depend on the
order in which vertices happen to execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .cluster import ClusterSpec
from .metrics import JobMetrics

__all__ = [
    "VertexContext",
    "VertexProgram",
    "BatchContext",
    "BatchVertexProgram",
    "MasterProgram",
    "GiraphEngine",
    "JobResult",
    "counter_random",
    "counter_random_array",
]


class VertexProgram(Protocol):
    """User code run by every vertex each superstep.

    Programs must be picklable (the multiprocess backend ships one copy to
    every worker); per-instance mutable state therefore becomes
    *worker-local* state under multiprocess execution.  Programs that need
    the input graph should implement ``bind_graph(graph)`` instead of
    storing the graph in ``__init__`` — backends call it on each worker
    after attaching the shared (zero-copy) graph arrays.
    """

    def compute(self, ctx: "VertexContext", vertex_id: int, state: dict, messages: list) -> None:
        """Process ``messages``, mutate ``state``, send via ``ctx``."""
        ...  # pragma: no cover - protocol

    def phase_name(self, superstep: int) -> str:
        """Label for metrics grouping (e.g. SHP's four protocol phases)."""
        ...  # pragma: no cover - protocol


class BatchVertexProgram(Protocol):
    """Columnar twin of :class:`VertexProgram`: one kernel per partition.

    Instead of a Python ``compute()`` per vertex over dict state, a batch
    program owns a *partition object* per worker — typically a struct of
    numpy arrays over the worker's vertices — and executes each superstep as
    vectorized kernels over the whole partition, exchanging typed
    :class:`~repro.distributed.messages.MessageBatch` columns instead of
    per-message tuples.  Backends detect batch programs by the presence of
    ``compute_partition`` and route them through
    :func:`repro.distributed.backend.execute_worker_superstep_batch`.

    Contract mirrors the per-vertex path: programs must be picklable, the
    partition is worker-local (built inside the worker process under the
    multiprocess backend), and ``collect_states`` must fold the final
    columns back into the caller's per-vertex dicts *in place* so the
    engine's state contract holds on every backend.  Batch mode requires
    contiguous vertex ids (``0..n-1``) for array-based placement lookup.
    """

    def phase_name(self, superstep: int) -> str:
        """Label for metrics grouping (same as :class:`VertexProgram`)."""
        ...  # pragma: no cover - protocol

    def create_partition(
        self, worker_id: int, vids: list[int], states: dict[int, dict], graph
    ) -> object:
        """Build the worker-local struct-of-arrays state for ``vids``."""
        ...  # pragma: no cover - protocol

    def compute_partition(
        self, ctx: "BatchContext", partition: object, inbox: list
    ) -> None:
        """Run one superstep over the whole partition (vectorized)."""
        ...  # pragma: no cover - protocol

    def collect_states(self, partition: object, states: dict[int, dict]) -> None:
        """Write final column values back into the per-vertex dicts."""
        ...  # pragma: no cover - protocol

    def partition_nbytes(self, partition: object) -> int:
        """Resident bytes of the partition (memory metering)."""
        ...  # pragma: no cover - protocol


class MasterProgram(Protocol):
    """Code run on the master between barriers."""

    def compute(self, superstep: int, aggregates: dict) -> dict | None:
        """Return broadcast values for the next superstep, or ``None`` to halt."""
        ...  # pragma: no cover - protocol


# ----------------------------------------------------------------------
# Counter-based randomness (order-independent across backends)
# ----------------------------------------------------------------------
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_64 = 1.0 / float(1 << 64)


def counter_random(seed: int, superstep: int, vid: int, draw: int) -> float:
    """Uniform draw in [0, 1) from a splitmix64-style hash of the key.

    A pure function of ``(seed, superstep, vid, draw)``: the same vertex
    gets the same stream no matter which worker runs it or in what order —
    the property that makes simulated and multiprocess runs bit-identical.
    """
    x = (
        seed * _GOLDEN
        + (superstep + 1) * _MIX1
        + (vid + 1) * _MIX2
        + (draw + 1) * 0xD6E8FEB86659FD93
    ) & _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    x ^= x >> 31
    return x * _INV_2_64


def counter_random_array(
    seed: int, superstep: int, vids: np.ndarray, draw: int = 0
) -> np.ndarray:
    """Vectorized :func:`counter_random` over an array of vertex ids.

    Bit-identical to the scalar version (uint64 wraparound equals the
    explicit mod-2^64 masking), so columnar kernels draw exactly the coins
    the per-vertex path would.
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
class VertexContext:
    """Per-superstep API handed to vertex programs.

    Self-contained (no engine reference) so the identical context code runs
    inside worker processes: sends buffer into ``_outbox``, aggregations
    into ``_aggregates``; the backend drains both at the barrier.
    """

    superstep: int
    worker_id: int
    broadcasts: dict
    seed: int = 0
    _ops: int = 0
    _vid: int = field(default=-1, repr=False)
    _draws: int = field(default=0, repr=False)
    _outbox: list = field(default_factory=list, repr=False)
    _aggregates: dict = field(default_factory=dict, repr=False)

    def send(self, dst: int, payload: object) -> None:
        """Send ``payload`` to vertex ``dst`` (delivered next superstep)."""
        self._outbox.append((dst, payload))
        self._ops += 1

    def aggregate(self, name: str, key: object, value: float = 1.0) -> None:
        """Add ``value`` under ``key`` to the named global aggregator."""
        bucket = self._aggregates.setdefault(name, {})
        bucket[key] = bucket.get(key, 0.0) + value
        self._ops += 1

    def charge(self, ops: int) -> None:
        """Account ``ops`` units of vertex compute work."""
        self._ops += ops

    def random(self) -> float:
        """Deterministic uniform draw, keyed by (seed, superstep, vertex)."""
        value = counter_random(self.seed, self.superstep, self._vid, self._draws)
        self._draws += 1
        return value

    def _begin_vertex(self, vid: int) -> None:
        self._vid = vid
        self._draws = 0
        self._ops += 1


@dataclass
class BatchContext:
    """Per-superstep API handed to :class:`BatchVertexProgram` kernels.

    The columnar counterpart of :class:`VertexContext`: sends are whole
    :class:`~repro.distributed.messages.MessageBatch` columns, aggregations
    are bulk dict merges, and randomness is drawn per vertex-id array from
    the same counter-based stream as the per-vertex path.  Op accounting is
    explicit (``charge``) plus one op per sent message, mirroring
    ``VertexContext.send``; programs that track parity with a per-vertex
    twin charge the twin's per-vertex op counts themselves.
    """

    superstep: int
    worker_id: int
    broadcasts: dict
    seed: int = 0
    _ops: float = 0.0
    _active: int = 0
    _transient_bytes: int = 0
    _outbox: list = field(default_factory=list, repr=False)
    _aggregates: dict = field(default_factory=dict, repr=False)

    def send_batch(self, batch) -> None:
        """Queue a typed message batch (delivered next superstep)."""
        if len(batch):
            self._outbox.append(batch)
            self._ops += len(batch)

    def aggregate_items(self, name: str, items: dict) -> None:
        """Merge ``{key: value}`` sums into the named global aggregator."""
        bucket = self._aggregates.setdefault(name, {})
        for key, value in sorted(items.items()):
            bucket[key] = bucket.get(key, 0.0) + value

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

    states: dict[int, dict]
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
        Controls random vertex placement and all :meth:`VertexContext.random`
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
        self._states: dict[int, dict] = {}
        self._graph = None
        self._worker_of: dict[int, int] = {}
        #: dense vid -> worker lookup, available when vertex ids are the
        #: contiguous range 0..n-1 (required by batch programs).
        self._worker_of_array: np.ndarray | None = None
        self._worker_vertices: list[list[int]] = [[] for _ in range(self.cluster.num_workers)]

    # ------------------------------------------------------------------
    # Graph loading
    # ------------------------------------------------------------------
    def load(self, states: dict[int, dict], graph=None) -> None:
        """Install vertex states and place vertices randomly on workers.

        ``graph`` optionally attaches a read-only :class:`BipartiteGraph`
        shared with every worker (zero-copy under the multiprocess backend);
        programs receive it via ``bind_graph``.
        """
        self._states = states
        self._graph = graph
        ids = np.fromiter(states.keys(), dtype=np.int64)
        placement = self._rng.integers(0, self.cluster.num_workers, size=ids.size)
        self._worker_of = dict(zip(ids.tolist(), placement.tolist()))
        self._worker_of_array = None
        if ids.size and int(ids.min()) == 0 and int(ids.max()) == ids.size - 1:
            dense = np.empty(ids.size, dtype=np.int64)
            dense[ids] = placement
            self._worker_of_array = dense
        self._worker_vertices = [[] for _ in range(self.cluster.num_workers)]
        for vid, worker in self._worker_of.items():
            self._worker_vertices[worker].append(vid)
        for bucket_list in self._worker_vertices:
            bucket_list.sort()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        program: VertexProgram,
        master: MasterProgram | None = None,
        max_supersteps: int = 100,
        combiner=None,
    ) -> JobResult:
        """Execute supersteps until the master halts or the budget runs out.

        Per superstep: the master runs first (seeing the previous step's
        aggregates, returning broadcasts or ``None`` to halt), then every
        vertex's compute function, then message delivery with metering.
        """
        return self.backend.run(self, program, master, max_supersteps, combiner)
