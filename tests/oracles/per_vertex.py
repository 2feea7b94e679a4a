"""Run a per-vertex program through the engine's batch API.

The engine executes one kind of program — a columnar
:class:`~repro.distributed.BatchVertexProgram`.  :class:`PerVertexAdapter`
wraps any ``compute(ctx, vid, state, messages)`` program into one: the
partition is a ``{vid: state dict}``, messages travel in a
:class:`~repro.distributed.MessageBatch` with one object column, and
``ctx.random()`` is the scalar :func:`counter_random` below — the reference
:func:`repro.distributed.counter_random_array` must reproduce bit for bit.
Message *counts*, ops and activity are metered exactly as a per-vertex
engine would; message *bytes* are a flat 8 per message (the object
pointer) — byte meters are pinned by the columnar programs only.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.distributed import Combiner, MessageBatch


@dataclass(frozen=True)
class _ObjectSchema:
    """What a :class:`MessageBatch` reads of a schema, for one pickled
    object column metered at the pointer's 8 bytes.  A stand-in, not a
    ``MessageSchema``: that constructor refuses object dtypes, because a
    real wire column must size and decode the same on every host."""

    name: str = "per-vertex-object"
    fields: tuple = (("payload", "O"),)
    entry_fields: tuple = ()
    fixed_nbytes: int = 8
    entry_nbytes: int = 0


OBJECT_SCHEMA = _ObjectSchema()

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_64 = 1.0 / float(1 << 64)


def counter_random(seed: int, superstep: int, vid: int, draw: int) -> float:
    """Uniform draw in [0, 1) from a splitmix64-style hash of the key.

    A pure function of ``(seed, superstep, vid, draw)``: the same vertex
    gets the same stream no matter which worker runs it or in what order.
    The scalar reference for ``counter_random_array`` (moved out of
    ``repro.distributed.engine`` in PR 14 with its own copy of the
    constants, so a typo in either side shows up as a mismatch).
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


def sizeof_payload(payload: object) -> int:
    """Approximate serialized size of a Python payload (8 bytes per scalar);
    what the adapter reports as a dict partition's resident bytes."""
    if payload is None:
        return 1
    if isinstance(payload, (bool, int, float, np.integer, np.floating)):
        return 8
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, (tuple, list)):
        return 8 + sum(sizeof_payload(item) for item in payload)
    if isinstance(payload, dict):
        return 8 + sum(sizeof_payload(k) + sizeof_payload(v) for k, v in payload.items())
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    return 32  # conservative default for unknown objects


@dataclass
class VertexContext:
    """Per-superstep API handed to per-vertex programs."""

    superstep: int
    worker_id: int
    broadcasts: dict
    seed: int = 0
    #: scratch shared by the vertices of one logical worker (Giraph's
    #: WorkerContext); lives in the partition, so it is checkpointed.
    worker_state: dict = field(default_factory=dict)
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
        """Add ``value`` under ``key`` to the named global aggregator (an int
        key, or anything the program's ``aggregate_key`` maps to one)."""
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


def _object_batch(outbox: list) -> MessageBatch:
    """``[(dst, payload), ...]`` as one object-column batch, order kept."""
    payloads = np.fromiter((p for _, p in outbox), dtype=object, count=len(outbox))
    dst = np.array([d for d, _ in outbox], dtype=np.int64)
    return MessageBatch(OBJECT_SCHEMA, dst, {"payload": payloads})


def _pairs(batch: MessageBatch):
    return zip(batch.dst.tolist(), batch.cols["payload"].tolist())


@dataclass
class _DictPartition:
    states: dict  # vid -> state dict, ascending vid
    worker_state: dict  # VertexContext.worker_state of this logical worker
    graph: object  # the host's graph: rebuilt by create_partition, never shipped


class PerVertexAdapter:
    """A ``BatchVertexProgram`` that runs ``program.compute`` per vertex.

    ``states`` maps every vertex id ``0..n-1`` to its initial state dict;
    ``collect_states`` returns a worker's ``{vid: state}``.  The wrapped
    program's ``phase_cycle``, if it declares one, is the adapter's.
    """

    def __init__(self, program, states: dict):
        self.program = program
        self.states = states
        self._bound = None
        if hasattr(program, "phase_cycle"):
            self.phase_cycle = program.phase_cycle

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_bound": None}

    def phase_name(self, superstep: int) -> str:
        return self.program.phase_name(superstep)

    def create_partition(self, worker_id: int, vids: np.ndarray, graph) -> _DictPartition:
        return _DictPartition({v: self.states[v] for v in vids.tolist()}, {}, graph)

    def collect_states(self, partition: _DictPartition) -> dict:
        return partition.states

    def save_state(self, partition: _DictPartition) -> tuple:
        return partition.states, partition.worker_state

    def load_state(self, partition: _DictPartition, state: tuple) -> None:
        partition.states, partition.worker_state = state

    def partition_nbytes(self, partition: _DictPartition) -> int:
        return sum(
            64 + sum(sizeof_payload(value) for value in state.values())
            for state in partition.states.values()
        )

    def compute_partition(self, ctx, partition: _DictPartition, inbox: list) -> None:
        if partition.graph is not self._bound and hasattr(self.program, "bind_graph"):
            self.program.bind_graph(partition.graph)
            self._bound = partition.graph
        mailboxes: dict[int, list] = {}
        for batch in inbox:
            for dst, payload in _pairs(batch):
                mailboxes.setdefault(dst, []).append(payload)
        # The engine speaks arrays: int64-keyed aggregators out, whatever the
        # master broadcast in.  A per-vertex program keeps hashable keys and
        # dict broadcasts by declaring the two conversions.
        decode = getattr(self.program, "decode_broadcasts", lambda broadcasts: broadcasts)
        encode = getattr(self.program, "aggregate_key", lambda name, key, broadcasts: key)
        scalar = VertexContext(
            ctx.superstep, ctx.worker_id, decode(ctx.broadcasts), ctx.seed,
            partition.worker_state,
        )
        active = 0
        for vid, state in partition.states.items():
            msgs = mailboxes.get(vid, [])
            scalar._begin_vertex(vid)
            ops_before = scalar._ops
            self.program.compute(scalar, vid, state, msgs)
            # Active = received messages or did observable work (sent,
            # aggregated, charged); mutation-only computes charge(1).
            if msgs or scalar._ops > ops_before:
                active += 1
        ctx.add_active(active)
        for name, items in scalar._aggregates.items():
            keys = [encode(name, key, ctx.broadcasts) for key in items]
            ctx.aggregate(name, keys, list(items.values()))
        ctx.send_batch(_object_batch(scalar._outbox))
        # The engine adds one op per vertex and one per sent message; both
        # are already in the scalar count.
        ctx.charge(scalar._ops - len(partition.states) - len(scalar._outbox))


class PerVertexCombiner(Combiner):
    """Engine-side wrapper of a dict-side ``combine(payloads) -> payloads``
    reducer: groups an object batch per destination (first-seen order)."""

    def __init__(self, inner):
        self.inner = inner

    def combine_batch(self, batch: MessageBatch) -> list[MessageBatch]:
        grouped: dict[int, list] = {}
        for dst, payload in _pairs(batch):
            grouped.setdefault(dst, []).append(payload)
        return [
            _object_batch(
                [
                    (dst, payload)
                    for dst, payloads in grouped.items()
                    for payload in self.inner.combine(payloads)
                ]
            )
        ]


def run_per_vertex(engine, program, states: dict, graph=None, combiner=None, **run_kwargs):
    """Load ``len(states)`` vertices, run ``program`` through the adapter and
    return the :class:`JobResult` with ``states`` merged into one
    ``{vid: state}`` dict."""
    engine.load(len(states), graph=graph)
    if combiner is not None:
        combiner = PerVertexCombiner(combiner)
    result = engine.run(PerVertexAdapter(program, states), combiner=combiner, **run_kwargs)
    merged = {vid: state for part in result.states for vid, state in part.items()}
    return dataclasses.replace(result, states=dict(sorted(merged.items())))
