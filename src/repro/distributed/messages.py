"""Message payloads: typed batch schemas, columnar batches and combiners.

Giraph serializes messages between machines; the byte counts below mirror a
compact binary encoding so that the engine's communication metering matches
the paper's complexity accounting (Section 3.3: superstep 2 sends at most
``fanout(q)`` entries per edge).

Messages only ever travel as :class:`MessageBatch` columns typed by a
:class:`MessageSchema` — a fixed-dtype wire format: every message is a
struct of named numpy fields plus an optional variable-length entry
section, and its size is *exactly* the dtype byte widths.  "Exactly" is a
property of the constructor: a schema whose column declares a native-order
(``"f8"``, ``"int"``) or ``object`` dtype — one that would meter, or
pickle, differently per host — cannot be built, so a bad schema fails at
import of the module that declares it, on every backend and in every test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hypergraph.bipartite import ragged_positions
from ..storage.format import is_exact_dtype

__all__ = [
    "Combiner",
    "SumCombiner",
    "MessageSchema",
    "MessageBatch",
]


@dataclass(frozen=True)
class MessageSchema:
    """Fixed-dtype wire format for one message type.

    ``fields`` are the per-message scalar columns (name, numpy dtype str);
    ``entry_fields`` optionally describe a variable-length entry section —
    a message carries ``n`` entries, each a struct of the entry fields.

    A message's wire size is exactly ``fixed_nbytes + n * entry_nbytes``:
    sized by dtype, not by Python object structure.  Every dtype must be
    fixed-width and explicit-endian (or single-byte) — the store format's
    :func:`~repro.storage.format.is_exact_dtype` — or construction raises
    ``ValueError`` naming the column.
    """

    name: str
    fields: tuple[tuple[str, str], ...]
    entry_fields: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        for section in ("fields", "entry_fields"):
            for column, dtype in getattr(self, section):
                if not is_exact_dtype(dtype):
                    raise ValueError(
                        f"schema {self.name!r}: {section} column {column!r} declares "
                        f"dtype {dtype!r}; wire dtypes must be fixed-width and "
                        "explicit-endian (e.g. '<i8', '<f8') so a message meters "
                        "and decodes the same on every host"
                    )

    @property
    def fixed_nbytes(self) -> int:
        return sum(np.dtype(dt).itemsize for _, dt in self.fields)

    @property
    def entry_nbytes(self) -> int:
        return sum(np.dtype(dt).itemsize for _, dt in self.entry_fields)


class MessageBatch:
    """A typed batch of messages stored column-wise (struct of arrays).

    ``dst`` holds the destination vertex of every message; ``cols`` the
    fixed fields as parallel arrays.  Variable-length entry sections live in
    a shared *pool* (``entries``): message ``i`` owns the pool slice
    ``[entry_start[i], entry_start[i] + entry_len[i])``.  Slices may alias —
    many messages broadcasting the same row reference one copy — so a batch
    is replication-free in memory while still metering every logical message
    at its full dtype-exact size.
    """

    def __init__(
        self,
        schema: MessageSchema,
        dst: np.ndarray,
        cols: dict[str, np.ndarray] | None = None,
        entry_start: np.ndarray | None = None,
        entry_len: np.ndarray | None = None,
        entries: dict[str, np.ndarray] | None = None,
    ):
        self.schema = schema
        self.dst = np.asarray(dst, dtype=np.int64)
        self.cols = {name: np.asarray(col) for name, col in (cols or {}).items()}
        for name, col in self.cols.items():
            if col.shape != self.dst.shape:
                raise ValueError(
                    f"column {name!r} has shape {col.shape}, dst has {self.dst.shape}"
                )
        if (entry_start is None) != (entry_len is None):
            raise ValueError("entry_start and entry_len must be given together")
        self.entry_start = (
            None if entry_start is None else np.asarray(entry_start, dtype=np.int64)
        )
        self.entry_len = (
            None if entry_len is None else np.asarray(entry_len, dtype=np.int64)
        )
        for name, arr in (("entry_start", self.entry_start), ("entry_len", self.entry_len)):
            if arr is not None and arr.shape != self.dst.shape:
                raise ValueError(
                    f"{name} has shape {arr.shape}, dst has {self.dst.shape}"
                )
        self.entries = {
            name: np.asarray(col) for name, col in (entries or {}).items()
        }

    def __len__(self) -> int:
        return int(self.dst.size)

    # ------------------------------------------------------------------
    # Metering
    # ------------------------------------------------------------------
    def per_message_nbytes(self) -> np.ndarray:
        """Dtype-exact wire size of every message (float64, for bincounts)."""
        fixed = float(self.schema.fixed_nbytes)
        if self.entry_len is None:
            return np.full(len(self), fixed, dtype=np.float64)
        return fixed + float(self.schema.entry_nbytes) * self.entry_len.astype(
            np.float64
        )

    @property
    def nbytes(self) -> int:
        """Total logical wire bytes of the batch."""
        return int(self.per_message_nbytes().sum())

    # ------------------------------------------------------------------
    # Entry access
    # ------------------------------------------------------------------
    def entry_positions(self, msg_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Pool positions of the entries of the listed messages.

        Returns ``(positions, lengths)``: one contiguous block per message,
        in the order given — the ragged gather map for columnar kernels.
        """
        if self.entry_start is None:
            raise ValueError(f"schema {self.schema.name!r} has no entry section")
        msg_indices = np.asarray(msg_indices, dtype=np.int64)
        starts = self.entry_start[msg_indices]
        lengths = self.entry_len[msg_indices]
        return ragged_positions(starts, lengths), lengths

    # ------------------------------------------------------------------
    # Subsetting / routing
    # ------------------------------------------------------------------
    def select(self, indices: np.ndarray) -> "MessageBatch":
        """Row subset sharing this batch's entry pool (no entry copies)."""
        indices = np.asarray(indices, dtype=np.int64)
        return MessageBatch(
            self.schema,
            self.dst[indices],
            {name: col[indices] for name, col in self.cols.items()},
            entry_start=None if self.entry_start is None else self.entry_start[indices],
            entry_len=None if self.entry_len is None else self.entry_len[indices],
            entries=self.entries,
        )

    def split(self, groups: np.ndarray, num_groups: int) -> dict[int, "MessageBatch"]:
        """Partition messages by a per-message group id (e.g. dest worker)."""
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != self.dst.shape:
            raise ValueError("groups must align with dst")
        order = np.argsort(groups, kind="stable")
        sorted_groups = groups[order]
        out: dict[int, MessageBatch] = {}
        bounds = np.searchsorted(sorted_groups, np.arange(num_groups + 1))
        for g in range(num_groups):
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            if hi > lo:
                out[g] = self.select(order[lo:hi])
        return out

    def compact(self) -> "MessageBatch":
        """Rebuild the entry pool keeping only referenced rows.

        Aliased slices stay shared (one pool copy per distinct row), so a
        routed sub-batch ships only the rows its messages actually
        reference.  Slices must be whole rows: equal ``entry_start`` implies
        equal ``entry_len``.
        """
        if self.entry_start is None or not len(self):
            return self
        uniq_start, inverse = np.unique(self.entry_start, return_inverse=True)
        # A message may reference a prefix of a row; copy each distinct row
        # at the longest referenced length so every alias stays in bounds.
        uniq_len = np.zeros(uniq_start.size, dtype=np.int64)
        np.maximum.at(uniq_len, inverse, self.entry_len)
        positions = ragged_positions(uniq_start, uniq_len)
        new_start = np.concatenate(([0], np.cumsum(uniq_len)[:-1]))
        return MessageBatch(
            self.schema,
            self.dst,
            self.cols,
            entry_start=new_start[inverse],
            entry_len=self.entry_len,
            entries={name: col[positions] for name, col in self.entries.items()},
        )


class Combiner:
    """Optional per-destination message combiner (Giraph's Combiner API).

    When set on a job, messages addressed to the same destination vertex
    from the same worker are combined before transmission, reducing remote
    traffic — one of the built-in Giraph optimizations the paper highlights.

    Combining must be semantically transparent: for a given seed the final
    vertex states are bitwise identical with the combiner on or off (see
    ``docs/architecture.md``, "bitwise-parity invariants").
    """

    def combine_batch(self, batch: "MessageBatch") -> list["MessageBatch"]:
        """Reduce one outbound batch per destination vertex, with vectorized
        arithmetic, *before* routing; returns the batches to send instead."""
        raise NotImplementedError


class SumCombiner(Combiner):
    """Combine numeric messages by summing them: ``combine_batch``
    segment-sums every fixed column per destination vertex.  Batches with a
    variable-length entry section have no generic sum semantics and are
    rejected.
    """

    def combine_batch(self, batch: "MessageBatch") -> list["MessageBatch"]:
        """Sum every column per destination (one output message per dst)."""
        if batch.entry_start is not None or batch.schema.entry_fields:
            raise ValueError(
                f"SumCombiner cannot combine schema {batch.schema.name!r}: "
                "variable-length entry sections have no generic sum"
            )
        if len(batch) <= 1:
            return [batch]
        uniq_dst, inverse = np.unique(batch.dst, return_inverse=True)
        cols = {}
        for name, col in batch.cols.items():
            # Integer columns accumulate in their own dtype: the float64
            # scratch the float columns use would round sums past 2**53.
            exact = np.issubdtype(col.dtype, np.integer)
            sums = np.zeros(uniq_dst.size, dtype=col.dtype if exact else np.float64)
            np.add.at(sums, inverse, col)
            cols[name] = sums.astype(col.dtype, copy=False)
        return [MessageBatch(batch.schema, uniq_dst, cols)]
