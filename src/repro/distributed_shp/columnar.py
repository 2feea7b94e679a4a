"""Columnar (struct-of-arrays) execution of the 4-superstep SHP protocol.

:class:`SHPColumnarProgram` is the job's one
:class:`~repro.distributed.BatchVertexProgram`: each worker holds its
partition as numpy columns — ``bucket`` / ``target`` / ``gain`` / ``bin``
for data vertices, neighbor data in pair-compact :class:`SlotTable` rows for
query vertices — and executes every protocol phase as vectorized kernels over the whole
partition.  Messages travel as typed
:class:`~repro.distributed.MessageBatch` columns (schemas in
:mod:`repro.distributed_shp.schemas`).  State goes in as the initial
assignment array the program holds (query weights come from the graph) and
comes out of :meth:`SHPColumnarProgram.collect_states` as ``(data vertex
ids, buckets)`` columns.

The program is **bitwise-identical** for a given seed on every backend —
and to the per-vertex reference in ``tests/oracles/`` (``compute()`` per
vertex over dict state).  Four properties make the latter hold:

* randomness is counter-based (`counter_random_array` reproduces the scalar
  splitmix hash exactly), so S4 coin flips agree;
* gain terms come from tables built by the *same* scalar closures the
  reference calls (``_scalar_gain_fns``), and every floating-point
  accumulation runs in one canonical order — ascending query id per data
  vertex — via ``np.bincount``'s sequential left-to-right adds.  An Eq. 1
  term is evaluated once per cached *cell* — ``w · rem(n)``, ``w · (ins(n) −
  ins0)``: the product the reference forms per edge from the same
  operands, so gathering it per pin keeps every addend's bits; mode "2"
  also adds the sibling cell of a pin whose sibling side is empty, a
  ``w · (ins(0) − ins0) = ±0.0`` that changes no bit of a sum started at
  ``+0.0``;
* that per-vertex add order is preserved on any subset of rows (a
  vertex's terms never meet another's) and a cell's value is a function of
  its count alone, re-evaluated when the count is rewritten, so S3
  recomputes only *stale* data vertices — Giraph's activity rule,
  ``_stale_rows`` — and a vertex it skips holds, bit for bit, what a
  whole-partition pass would write;
* the aggregated histograms are integer-valued, so master decisions match.

Worker-local representation notes: a per-vertex execution would cache one
copy of a query's neighbor data per adjacent data vertex; the columnar
partition stores each cached query row once per worker (all copies are
identical), as slots of one table, and joins data vertices against it
through one level-static index per pin, which is both the memory win and
the vectorization enabler.  Message
metering still counts every logical (per-edge) message at its full schema
size, and S3's ops and activity meters price the per-vertex execution
(every vertex, every cached entry) whatever subset was recomputed;
``recomputed`` and ``charge_transient`` report what ran.
"""

from __future__ import annotations

import numpy as np

from ..core.config import SHPConfig
from ..core.histograms import GainBinning
from ..distributed.messages import MessageBatch
from ..hypergraph.bipartite import csr_row_positions, ragged_positions, sorted_unique
from .schemas import DELTA_SCHEMA, NDATA_SCHEMA

__all__ = ["SHPColumnarProgram", "SlotTable"]

_PHASES = ("S1-collect", "S2-neighbor-data", "S3-propose", "S4-move")


def _scalar_gain_fns(objective_name: str, p: float, splits_ahead: float):
    """Scalar removal-gain / insertion-cost closures (tabulated by
    :meth:`SHPColumnarProgram._tables`, called per edge by the reference)."""
    if objective_name == "cliquenet":
        return (lambda n: -(n - 1.0)), (lambda n: -float(n)), 0.0
    effective_p = 1.0 if objective_name == "fanout" else p
    q = 1.0 - effective_p / splits_ahead
    if q <= 0.0:
        return (
            (lambda n: 1.0 if n == 1 else 0.0),
            (lambda n: 1.0 if n == 0 else 0.0),
            1.0,
        )
    return (
        (lambda n: effective_p * q ** (n - 1)),
        (lambda n: effective_p * q**n),
        effective_p,
    )

#: Mode-"k" S3 keeps the dense ``nloc × level_k`` candidate grid up to this
#: many buckets; beyond it the sparse pair-compact aggregation
#: (:func:`repro.objectives.evaluate.compact_cell_sums`) takes over.  The
#: two are bitwise-equal per cell — the threshold trades allocation size
#: only, never bits (pinned by ``test_parallel_refine``'s k=16 parity).
DENSE_S3_MAX_LEVEL_K = 8


#: The ``_Partition`` fields a superstep writes: with the two slot tables'
#: keys and counts, a snapshot's whole state.  What is derived from them
#: (gain tables, cell values, the pin -> cell join) ``load_state`` rebuilds.
_MUTABLE = (
    "bucket", "target", "gain", "bin", "stale", "computed_under",
    "has_delta", "delta_old",
    "cache_qids", "cache_weight", "cache_len",
    "parity",
)
#: slot table -> its float value columns.
_TABLES = {"nd": 0, "cache": 2}


def _lookup(keys: np.ndarray, wanted: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each wanted key sits (or would go) in ascending ``keys``, and
    whether it is there."""
    at = np.searchsorted(keys, wanted)
    hit = at < keys.size
    hit[hit] = keys[at[hit]] == wanted[hit]
    return at, hit


class SlotTable:
    """Sparse ``(row, bucket) -> count`` table, pair-compact.

    One *slot* per occupied ``(row, bucket >> 1)``: ``keys`` (``row << 31 |
    bucket >> 1``, strictly ascending; rows are dense indices the owner
    assigns) and two counts per slot — a zero side is an absent bucket.
    A *cell* is one side of one slot, ``2 * slot + (bucket & 1)`` in the
    flat ``sides`` column, so a row's cells run in ascending bucket order.
    Slots only ever appear, by in-order insertion when a key is first seen
    (:meth:`cells`), which moves every later cell up: a holder of cell
    indices compares ``keys.size`` around the call.  ``values`` are float
    columns aligned with ``sides`` for the owner to fill (new cells: 0.0).
    """

    def __init__(self, keys=None, sides=None, value_columns: int = 0):
        self.keys = np.empty(0, dtype=np.int64) if keys is None else keys
        self.sides = np.zeros(2 * self.keys.size, dtype=np.int32) if sides is None else sides
        self.values = [np.zeros(self.sides.size) for _ in range(value_columns)]

    @property
    def nbytes(self) -> int:
        return sum(column.nbytes for column in (self.keys, self.sides, *self.values))

    def cells(self, rows: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """The cell of each ``(row, bucket)``; slots not yet in the table
        are inserted (zero counts and values) first."""
        wanted = (rows << 31) | (buckets >> 1)
        slot, hit = _lookup(self.keys, wanted)
        if not hit.all():
            new = sorted_unique(wanted[~hit])
            at = np.searchsorted(self.keys, new)
            self.keys = np.insert(self.keys, at, new)
            at = np.repeat(2 * at, 2)
            self.sides = np.insert(self.sides, at, 0)
            self.values = [np.insert(column, at, 0.0) for column in self.values]
            slot += np.searchsorted(new, wanted)
        return 2 * slot + (buckets & 1)

    def insert_rows(self, at: np.ndarray) -> None:
        """Renumber the rows for new ones taking the row numbers ``at``
        (ascending, as ``np.insert`` reads them)."""
        self.keys += np.searchsorted(at, self.keys >> 31, side="right") << 31

    def row_cells(self, rows: np.ndarray, num_rows: int) -> np.ndarray:
        """Every cell of the listed rows, one block per row."""
        slots = np.bincount(self.keys >> 31, minlength=num_rows)
        return ragged_positions(2 * (np.cumsum(slots) - slots)[rows], 2 * slots[rows])

    def bucket_of(self, cells: np.ndarray) -> np.ndarray:
        return ((self.keys[cells >> 1] & 0x7FFFFFFF) << 1) | (cells & 1)

    def entries(self, rows: np.ndarray, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
        """The listed rows (ascending) as sparse histograms: ``(entries per
        row, their cells)`` — each row's non-zero sides, ascending bucket."""
        row_of = self.keys >> 31
        listed = np.zeros(num_rows, dtype=bool)
        listed[rows] = True
        live = np.flatnonzero((self.sides.reshape(-1, 2) > 0) & listed[row_of][:, None])
        return np.bincount(row_of[live >> 1], minlength=num_rows)[rows], live


class _Partition:
    """One worker's struct-of-arrays state (built by ``create_partition``)."""

    def __init__(self):
        # Data-vertex columns (aligned with ``dvids``).
        self.dvids = np.empty(0, dtype=np.int64)
        self.bucket = np.empty(0, dtype=np.int64)
        self.target = np.empty(0, dtype=np.int64)
        self.gain = np.empty(0, dtype=np.float64)
        self.bin = np.empty(0, dtype=np.int64)
        # Activity: ``gain`` / ``target`` / ``bin`` are out of date and the
        # next S3 recomputes them (set by S4 on movers, by a level descent
        # on everyone, by S3 itself on whoever received neighbor data).
        self.stale = np.empty(0, dtype=bool)
        # The ``(splits_ahead, level_k)`` broadcast the gain columns were
        # computed under (None: never computed).
        self.computed_under: tuple[float, int] | None = None
        self.has_delta = np.empty(0, dtype=bool)
        self.delta_old = np.empty(0, dtype=np.int64)  # -1: first announcement
        # Local data -> adjacent query (engine ids, ascending per row).
        self.d_adj_indptr = np.zeros(1, dtype=np.int64)
        self.d_adj_q = np.empty(0, dtype=np.int64)
        # Query-vertex columns (aligned with ``qvids``).
        self.qvids = np.empty(0, dtype=np.int64)
        self.q_weight = np.empty(0, dtype=np.float64)
        self.q_adj_indptr = np.zeros(1, dtype=np.int64)
        self.q_adj_d = np.empty(0, dtype=np.int64)
        # Neighbor data n_i(q) of the local queries (row: index into
        # ``qvids``): S2 scatters bucket deltas in, reads broadcasts out.
        self.nd = SlotTable(value_columns=_TABLES["nd"])
        # The latest neighbor data each adjacent query broadcast, one row
        # per query per worker (row: index into ``cache_qids``), not one
        # per adjacent vertex; ``cache_len``: entries of the row as sent.
        # ``cache.values`` are Eq. 1's weighted terms per cell: [0] the
        # removal gain of a vertex on that side, [1] the insertion cost,
        # net of ``ins0``, of one moving onto it.
        self.cache_qids = np.empty(0, dtype=np.int64)
        self.cache_weight = np.empty(0, dtype=np.float64)
        self.cache_len = np.empty(0, dtype=np.int32)
        self.cache = SlotTable(value_columns=_TABLES["cache"])
        # The level-static half of the S3 join, derived by ``_join``
        # whenever a row (mode "2": or a slot) is inserted.  Per local pin
        # (aligned with ``d_adj_q``) where its reader starts — mode "2":
        # the even cell of its own (query, sibling pair) slot, mode "k":
        # the query's row — or -1 while the query has not broadcast; the
        # transpose row -> local vertices (who is stale when the row is
        # re-broadcast); per vertex the summed weights of its cached rows.
        self.pin_cell = np.empty(0, dtype=np.int32)
        self.row_ptr = np.zeros(1, dtype=np.int64)
        self.row_vertex = np.empty(0, dtype=np.int32)
        self.weight_sum = np.empty(0, dtype=np.float64)
        # Level-descent alternation state: per bucket, which child the
        # next descending vertex of this worker takes.
        self.parity: dict[int, int] = {}
        # Tabulated gain functions, keyed by the splits_ahead broadcast.
        self.max_count = 1
        self._table_splits: float | None = None
        self._rem_table: np.ndarray | None = None
        self._ins_table: np.ndarray | None = None
        self._ins0 = 0.0

    def nbytes(self) -> int:
        total = 0
        for value in self.__dict__.values():
            if isinstance(value, (np.ndarray, SlotTable)):
                total += value.nbytes  # reprolint: disable=REP002 -- integer byte sizes: int sums are order-exact
        return total


class SHPColumnarProgram:
    """Vectorized batch program for distributed SHP (modes ``"2"``/``"k"``)."""

    def __init__(
        self,
        num_data: int,
        config: SHPConfig,
        binning: GainBinning,
        mode: str,
        initial: np.ndarray,
    ):
        self.num_data = num_data
        self.config = config
        self.binning = binning
        self.mode = mode
        #: starting bucket of every data vertex (what partitions are built from).
        self.initial = initial

    #: supersteps per protocol cycle (S1-S4): where a checkpointing
    #: transport cuts — after S4, which sends nothing.
    phase_cycle = len(_PHASES)

    def phase_name(self, superstep: int) -> str:
        return _PHASES[superstep % 4]

    # ------------------------------------------------------------------
    # Partition lifecycle
    # ------------------------------------------------------------------
    def create_partition(self, worker_id: int, vids: np.ndarray, graph) -> _Partition:
        if graph is None:
            raise ValueError("columnar SHP requires the engine to be loaded with a graph")
        part = _Partition()
        is_data = vids < self.num_data
        dvids = vids[is_data]
        qvids = vids[~is_data]
        part.dvids = dvids
        part.qvids = qvids
        part.max_count = (
            int(graph.query_degrees.max()) if graph.num_queries else 1
        ) or 1

        # Every data vertex starts by announcing its initial bucket.
        n = dvids.size
        part.bucket = self.initial[dvids].astype(np.int64)
        part.target = np.full(n, -1, dtype=np.int64)
        part.gain = np.zeros(n, dtype=np.float64)
        part.bin = np.zeros(n, dtype=np.int64)
        part.stale = np.ones(n, dtype=bool)
        part.has_delta = np.ones(n, dtype=bool)
        part.delta_old = np.full(n, -1, dtype=np.int64)

        positions, lengths = csr_row_positions(graph.d_indptr, dvids)
        part.d_adj_indptr = np.concatenate(([0], np.cumsum(lengths)))
        adj_q = graph.d_indices[positions].astype(np.int64) + self.num_data
        # Canonical ascending-query order per row: the order every
        # floating-point accumulation uses.
        row_of = np.repeat(np.arange(n, dtype=np.int64), lengths)
        order = np.lexsort((adj_q, row_of))
        part.d_adj_q = adj_q[order]

        queries = qvids - self.num_data
        part.q_weight = graph.query_weights_or_unit()[queries]
        q_positions, q_lengths = csr_row_positions(graph.q_indptr, queries)
        part.q_adj_indptr = np.concatenate(([0], np.cumsum(q_lengths)))
        part.q_adj_d = graph.q_indices[q_positions].astype(np.int64)
        self._join(part)
        return part

    def collect_states(self, part: _Partition) -> tuple[np.ndarray, np.ndarray]:
        """``(data vertex ids, their final buckets)`` of one partition."""
        return part.dvids, part.bucket

    def save_state(self, part: _Partition) -> dict:
        """What a peer cannot rebuild: the columns the kernels write and the
        slot tables' keys and counts.  The static CSR comes back from
        ``create_partition``; the gain tables, the cell values and the
        pin -> cell join from ``load_state``."""
        state = {name: getattr(part, name) for name in _MUTABLE}
        for name in _TABLES:
            table = getattr(part, name)
            state[name + "_keys"], state[name + "_sides"] = table.keys, table.sides
        return state

    def load_state(self, part: _Partition, state: dict) -> None:
        """Resume a freshly created partition from :meth:`save_state`.

        Everything derived is rebuilt here, not on first use, so a
        re-homed partition is byte for byte as large as the one it
        replaces (``partition_nbytes`` feeds ``memory_per_worker``).
        """
        for name in _MUTABLE:
            setattr(part, name, state[name])
        for name, columns in _TABLES.items():
            setattr(part, name, SlotTable(state[name + "_keys"], state[name + "_sides"], columns))
        if part.computed_under is not None:
            self._tables(part, part.computed_under[0])
            self._revalue(part)
        self._join(part)

    def partition_nbytes(self, part: _Partition) -> int:
        return part.nbytes()

    # ------------------------------------------------------------------
    # Superstep dispatch
    # ------------------------------------------------------------------
    def compute_partition(self, ctx, part: _Partition, inbox: list) -> None:
        phase = ctx.superstep % 4
        if phase == 0:
            self._s1_collect(ctx, part)
        elif phase == 1:
            self._s2_neighbor_data(ctx, part, inbox)
        elif phase == 2:
            self._s3_propose(ctx, part, inbox)
        else:
            self._s4_move(ctx, part)

    # ------------------------------------------------------------------
    # S1: data vertices announce bucket deltas to adjacent queries
    # ------------------------------------------------------------------
    def _s1_collect(self, ctx, part: _Partition) -> None:
        if ctx.broadcasts.get("advance"):
            self._advance(part, ctx.superstep)
        senders = np.flatnonzero(part.has_delta)
        if senders.size == 0:
            return
        positions, lengths = csr_row_positions(part.d_adj_indptr, senders)
        if positions.size:
            dst = part.d_adj_q[positions]
            old = np.repeat(part.delta_old[senders], lengths).astype(np.int32)
            new = np.repeat(part.bucket[senders], lengths).astype(np.int32)
            ctx.send_batch(MessageBatch(DELTA_SCHEMA, dst, {"old": old, "new": new}))
        # Ops: one send per edge (counted by send_batch) plus the degree
        # of every sender — what a per-vertex execution would charge.
        ctx.charge(float(lengths.sum()))
        ctx.add_active(int(np.count_nonzero(lengths)))
        part.has_delta[senders] = False

    def _advance(self, part: _Partition, superstep: int) -> None:
        """Descend one bisection level, alternating children per bucket.

        Worker-local parity, as if vertices were visited in ascending vid
        order: each (worker, bucket) key keeps a persistent 0/1 counter,
        first touch defaults to ``superstep % 2`` — the split starts
        balanced to within ±(workers/2) instead of binomial drift.
        """
        n = part.dvids.size
        if n:
            order = np.argsort(part.bucket, kind="stable")
            sb = part.bucket[order]
            seg_first = np.empty(n, dtype=bool)
            seg_first[0] = True
            seg_first[1:] = sb[1:] != sb[:-1]
            seg_idx = np.flatnonzero(seg_first)
            seg_ids = np.cumsum(seg_first) - 1
            pos_in_seg = np.arange(n, dtype=np.int64) - seg_idx[seg_ids]
            seg_buckets = sb[seg_idx]
            seg_len = np.diff(np.append(seg_idx, n))
            default = superstep % 2
            offsets = np.fromiter(
                (part.parity.get(int(b), default) for b in seg_buckets),
                dtype=np.int64,
                count=seg_buckets.size,
            )
            for b, off, ln in zip(
                seg_buckets.tolist(), offsets.tolist(), seg_len.tolist()
            ):
                part.parity[b] = int((off + ln) % 2)
            child_sorted = (offsets[seg_ids] + pos_in_seg) % 2
            child = np.empty(n, dtype=np.int64)
            child[order] = child_sorted
            part.bucket = 2 * part.bucket + child
            part.delta_old = np.full(n, -1, dtype=np.int64)
            part.has_delta = np.ones(n, dtype=bool)
            part.stale = np.ones(n, dtype=bool)
        # New level: cached neighbor data is stale (the queries' own
        # table goes with the ``reset`` broadcast of the S2 that follows).
        part.cache_qids = np.empty(0, dtype=np.int64)
        part.cache_weight = np.empty(0, dtype=np.float64)
        part.cache_len = np.empty(0, dtype=np.int32)
        part.cache = SlotTable(value_columns=_TABLES["cache"])
        self._join(part)

    # ------------------------------------------------------------------
    # S2: queries fold deltas into n_i(q), dirty queries broadcast it
    # ------------------------------------------------------------------
    def _s2_neighbor_data(self, ctx, part: _Partition, inbox: list) -> None:
        nq = part.qvids.size
        reset = bool(ctx.broadcasts.get("reset"))
        if reset:
            part.nd = SlotTable(value_columns=_TABLES["nd"])
        # An inbound message is a few signed adds into its query's row: +1
        # on a raw delta's new bucket and -1 on its old one (none on a
        # level's first announcement), or a combined message's (bucket,
        # net) entries (ShpDeltaCombiner) — integer sums, exact in any
        # order.  A zero-entry message adds nothing but still marks its
        # query dirty: identical activity semantics to raw deltas.
        has_msg = np.zeros(nq, dtype=bool)
        adds: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for batch in inbox:
            ql = np.searchsorted(part.qvids, batch.dst)
            has_msg[ql] = True
            if batch.schema.name == DELTA_SCHEMA.name:
                old = batch.cols["old"]
                dec = old >= 0
                adds.append((ql, batch.cols["new"], np.ones(ql.size, dtype=np.int32)))
                adds.append((ql[dec], old[dec], np.full(int(dec.sum()), -1, dtype=np.int32)))
            else:
                positions, lens = batch.entry_positions(np.arange(len(batch), dtype=np.int64))
                adds.append(
                    (np.repeat(ql, lens), batch.entries["bucket"][positions],
                     batch.entries["net"][positions])
                )
        if adds:
            rows, buckets, signed = (np.concatenate(column) for column in zip(*adds))
            cells = part.nd.cells(rows, buckets)
            np.add.at(part.nd.sides, cells, signed)
            # Transient-buffer meter: the scatter's operands are this
            # kernel's allocation peak (released on return).
            ctx.charge_transient(rows.nbytes + buckets.nbytes + signed.nbytes + cells.nbytes)

        dirty = has_msg | reset
        send_q = np.flatnonzero(dirty)
        if send_q.size:
            positions, lengths = csr_row_positions(part.q_adj_indptr, send_q)
            row_len, cells = part.nd.entries(send_q, nq)
            if positions.size:
                batch = MessageBatch(
                    NDATA_SCHEMA,
                    part.q_adj_d[positions],
                    {
                        "query": np.repeat(part.qvids[send_q], lengths),
                        "weight": np.repeat(part.q_weight[send_q], lengths),
                    },
                    entry_start=np.repeat(np.cumsum(row_len) - row_len, lengths),
                    entry_len=np.repeat(row_len, lengths),
                    entries={
                        "bucket": part.nd.bucket_of(cells).astype(np.int32),
                        "count": part.nd.sides[cells],
                    },
                )
                ctx.send_batch(batch)
            ctx.charge(float((lengths * np.maximum(1, row_len)).sum()))
        deg = np.diff(part.q_adj_indptr)
        ctx.add_active(int(np.count_nonzero(has_msg | (dirty & (deg > 0)))))

    # ------------------------------------------------------------------
    # S3: data vertices recompute gains from cached neighbor data
    # ------------------------------------------------------------------
    def _s3_propose(self, ctx, part: _Partition, inbox: list) -> None:
        nloc = part.dvids.size
        cfg = self.config
        splits = float(ctx.broadcasts.get("splits_ahead", 1.0))
        retabulated = part._table_splits != splits
        ins0 = self._tables(part, splits)[2]
        if retabulated:
            self._revalue(part)
        received = self._receive(part, inbox)
        if nloc == 0:
            return
        level_k = int(ctx.broadcasts.get("level_k", cfg.k))
        rows = self._stale_rows(part, received, (splits, level_k))
        nrows = rows.size

        # Join the stale data vertices with the worker's query cache:
        # their pins through the adjacency CSR (rows already ascending in
        # query id), each pin's cells through the level-static join.
        # ``edge_d`` indexes ``rows``, not the partition.
        pins, degree = csr_row_positions(part.d_adj_indptr, rows)
        edge_d = np.repeat(np.arange(nrows, dtype=np.int64), degree)
        at = part.pin_cell[pins]
        if at.size and at.min() < 0:
            found = at >= 0
            edge_d, at = edge_d[found], at[found]
        bucket = part.bucket[rows]
        # One table, two readers.  Either sums with bincount, which adds
        # sequentially in input order — (data vertex, ascending query id),
        # the canonical order — so the float sums are bitwise reproducible
        # (and equal to a sorted per-vertex fold) on any subset of rows.
        read = self._gather_pairs if self.mode == "2" else self._walk_rows
        rsum, best_bucket, best_adjust, scratch = read(part, bucket, edge_d, at, level_k)
        # Transient-buffer meter: the join scratch is the kernel's
        # allocation high-water mark (freed before the superstep returns).
        ctx.charge_transient(pins.nbytes + edge_d.nbytes + at.nbytes + scratch)

        gain = rsum - (part.weight_sum[rows] * ins0 + best_adjust)
        if cfg.move_penalty > 0.0:
            gain = gain - cfg.move_penalty
        part.target[rows] = best_bucket
        part.gain[rows] = gain
        part.bin[rows] = self.binning.bin_of(gain)
        ctx.aggregate("recomputed", 0, nrows)

        cells = self.binning.cell_keys(part.bucket, part.target, part.bin, level_k)
        ctx.aggregate("hist", *np.unique(cells, return_counts=True))
        ctx.aggregate("sizes", np.arange(level_k), np.bincount(part.bucket, minlength=level_k))
        # Ops are a *logical* meter: they price the per-vertex execution
        # (every data vertex folds every cached entry of every adjacent
        # query, then makes 2 aggregate calls), whatever subset ran here —
        # cache row lengths times the local pins naming each row.
        entries = (part.cache_len * np.diff(part.row_ptr)).sum()
        ctx.charge(float(entries) + 2.0 * nloc)
        ctx.add_active(nloc)

    @staticmethod
    def _gather_pairs(part: _Partition, bucket, edge_d, at, level_k: int):
        """Mode-"2" reader: ``(removal sums, targets, insertion adjusts,
        scratch bytes)`` of the rows being computed.

        Level-fused composite labels: a bucket id at a synchronous descent
        level encodes the ``(group, side)`` pair as ``2·group + side``, so
        the only legal destination is the sibling column ``bucket ^ 1`` of
        the vertex's own group — the other side of the pin's own slot, and
        a gain is an index gather, two value gathers and two segment sums.
        """
        removal, insertion = part.cache.values
        cell = at + (bucket & 1)[edge_d]
        rsum = np.bincount(edge_d, weights=removal[cell], minlength=bucket.size)
        adjust = np.bincount(edge_d, weights=insertion[cell ^ 1], minlength=bucket.size)
        return rsum, bucket ^ 1, adjust, 3 * cell.nbytes

    def _walk_rows(self, part: _Partition, bucket, edge_d, at, level_k: int):
        """Mode-"k" reader, same returns: every bucket is a candidate, so
        each pin walks the non-zero cells of its whole row."""
        table = part.cache
        cached = part.cache_qids.size
        row_len, live = table.entries(np.arange(cached), cached)
        lengths = row_len[at]
        walk = live[ragged_positions((np.cumsum(row_len) - row_len)[at], lengths)]
        ent_pin = np.repeat(np.arange(at.size, dtype=np.int64), lengths)
        ent_d = np.repeat(edge_d, lengths)
        ent_b = table.bucket_of(walk)
        own = ent_b == bucket[ent_d]
        here = np.flatnonzero(own)
        count_here = np.ones(at.size, dtype=np.int64)
        count_here[ent_pin[here]] = table.sides[walk[here]]
        rsum = np.bincount(
            edge_d, weights=part.cache_weight[at] * part._rem_table[count_here],
            minlength=bucket.size,
        )
        other = np.flatnonzero(~own)
        grid = ent_d[other] * level_k + ent_b[other]
        terms = table.values[1][walk[other]]
        scratch = live.nbytes + 5 * walk.nbytes + own.nbytes + 2 * at.nbytes + 3 * grid.nbytes
        if level_k <= DENSE_S3_MAX_LEVEL_K:
            # Dense grid: float64 sums + bool present, rows × level_k each.
            scratch += bucket.size * level_k * 9
            select = self._select_dense
        else:
            select = self._select_sparse
        return rsum, *select(bucket, level_k, grid, terms), scratch

    @staticmethod
    def _stale_rows(part: _Partition, received, broadcast: tuple) -> np.ndarray:
        """Giraph's activity rule for S3: the local data vertices (ascending
        row indices) whose proposal must be recomputed; clears the flags.

        A gain is a function of the vertex's bucket, the cached rows of its
        adjacent queries and the ``(splits_ahead, level_k)`` broadcast, so
        a vertex is stale iff it moved (S4 and the level descent set the
        flag; never-computed vertices start with it), it received neighbor
        data this superstep (S2 sends a row to *all* of its data neighbors:
        the local vertices of the ``received`` cache rows), or the
        broadcast is not the one its gain was computed under (then
        everyone).  Anyone else would recompute the value it already
        holds, bit for bit.
        """
        if len(received):
            part.stale[part.row_vertex[csr_row_positions(part.row_ptr, received)[0]]] = True
        if part.computed_under != broadcast:
            part.stale[:] = True
            part.computed_under = broadcast
        rows = np.flatnonzero(part.stale)
        part.stale[:] = False
        return rows

    @staticmethod
    def _select_dense(bucket: np.ndarray, level_k: int, cells, terms):
        """Mode-"k" destination pick over the dense candidate grid of the
        rows being computed (``bucket``: their current buckets)."""
        n = bucket.size
        sums = np.bincount(cells, weights=terms, minlength=n * level_k)
        sums = sums.reshape(n, level_k)
        present = np.zeros(n * level_k, dtype=bool)
        present[cells] = True
        present = present.reshape(n, level_k)
        rows = np.arange(n)
        candidates = np.where(present, sums, np.inf)
        candidates[rows, bucket] = np.inf
        minval = candidates.min(axis=1)
        fallback = (bucket + 1) % level_k
        fallback_adj = np.where(present[rows, fallback], sums[rows, fallback], 0.0)
        use_min = minval < 0.0
        best_bucket = np.where(use_min, candidates.argmin(axis=1), fallback)
        best_adjust = np.where(
            use_min, np.where(np.isfinite(minval), minval, 0.0), fallback_adj
        )
        return best_bucket, best_adjust

    @staticmethod
    def _select_sparse(bucket: np.ndarray, level_k: int, cells, terms):
        """Mode-"k" destination pick over occupied cells only (large k).

        Bitwise-equal to :meth:`_select_dense`: per-cell sums come from the
        pair-compact contract (same sequential add order), the per-row
        minimum is an order-insensitive exact selection, and ties resolve
        to the lowest bucket — exactly ``argmin``'s first-hit scan.
        """
        from ..objectives.evaluate import compact_cell_sums

        n = bucket.size
        occupied, cell_sums = compact_cell_sums(cells, terms)
        rows_u = occupied // level_k
        b_u = occupied % level_k
        cand = b_u != bucket[rows_u]  # dense path masks the own column
        c_rows = rows_u[cand]
        c_b = b_u[cand]
        c_sums = cell_sums[cand]
        minval = np.full(n, np.inf)
        np.minimum.at(minval, c_rows, c_sums)
        is_min = c_sums == minval[c_rows]
        best_b = np.full(n, level_k, dtype=np.int64)
        np.minimum.at(best_b, c_rows[is_min], c_b[is_min])
        fallback = (bucket + 1) % level_k
        fb_idx, fb_present = _lookup(occupied, np.arange(n, dtype=np.int64) * level_k + fallback)
        fallback_adj = np.zeros(n, dtype=np.float64)
        fallback_adj[fb_present] = cell_sums[fb_idx[fb_present]]
        use_min = minval < 0.0
        best_bucket = np.where(use_min, best_b, fallback)
        best_adjust = np.where(
            use_min, np.where(np.isfinite(minval), minval, 0.0), fallback_adj
        )
        return best_bucket, best_adjust

    def _receive(self, part: _Partition, inbox: list) -> np.ndarray:
        """Scatter inbound S2 broadcasts into the worker's query-row cache;
        returns the ``cache_qids`` rows that were (re-)written.

        Every adjacent data vertex receives the same row, so it is read
        once per row, off the first of its messages: S2 emits a row's
        messages back to back and routing keeps their order, and each
        query appears in at most one inbound batch (its owner worker sends
        once).  The row's cells are zeroed and its non-zero sides written;
        their values are the only ones that can have changed.
        """
        heads = []
        for batch in inbox:
            query = batch.cols["query"]
            if query.size:
                first = np.flatnonzero(np.concatenate(([True], query[1:] != query[:-1])))
                positions, lens = batch.entry_positions(first)
                heads.append((
                    query[first], batch.cols["weight"][first], lens,
                    batch.entries["bucket"][positions], batch.entries["count"][positions],
                ))
        if not heads:
            return np.empty(0, dtype=np.int64)
        qids, weights, lens, buckets, counts = (np.concatenate(column) for column in zip(*heads))
        row, known = _lookup(part.cache_qids, qids)
        # A query broadcasting for the first time this level — in practice
        # the level's first cycle only — takes a new row, and in mode "2"
        # new slots (a query's pin count inside a sibling pair is invariant
        # while a level runs); either moves what the join points at.
        rejoin = not known.all()
        if rejoin:
            new = np.sort(qids[~known])
            at = np.searchsorted(part.cache_qids, new)
            part.cache_qids = np.insert(part.cache_qids, at, new)
            part.cache_weight = np.insert(part.cache_weight, at, 0.0)
            part.cache_len = np.insert(part.cache_len, at, 0)
            part.cache.insert_rows(at)
            row = np.searchsorted(part.cache_qids, qids)
        part.cache_weight[row] = weights
        part.cache_len[row] = lens
        table = part.cache
        slots = table.keys.size
        written = table.cells(np.repeat(row, lens), buckets)
        rejoin |= self.mode == "2" and table.keys.size != slots
        cells = table.row_cells(row, part.cache_qids.size)
        table.sides[cells] = 0
        table.sides[written] = counts
        self._revalue(part, cells)
        if rejoin:
            self._join(part)
        return row

    @staticmethod
    def _revalue(part: _Partition, cells=None) -> None:
        """Evaluate Eq. 1's two terms for the listed cache cells (default:
        all) from the current gain tables.  An own side that reads 0 is
        priced as the vertex alone, like a bucket missing from the row."""
        table = part.cache
        if cells is None:
            cells = np.arange(table.sides.size)
        n = table.sides[cells]
        weight = part.cache_weight[table.keys[cells >> 1] >> 31]
        removal, insertion = table.values
        removal[cells] = weight * part._rem_table[np.maximum(n, 1)]
        insertion[cells] = weight * (part._ins_table[n] - part._ins0)

    def _join(self, part: _Partition) -> None:
        """Resolve every local pin to where its S3 reader starts, transpose
        pin -> cached row into row -> local vertices, and sum each
        vertex's cached query weights (pin order: the canonical fold)."""
        nloc, nrows = part.dvids.size, part.cache_qids.size
        row, found = _lookup(part.cache_qids, part.d_adj_q)
        vertex = np.repeat(np.arange(nloc, dtype=np.int32), np.diff(part.d_adj_indptr))
        f_row, f_vertex = row[found], vertex[found]
        part.weight_sum = np.bincount(
            f_vertex, weights=part.cache_weight[f_row], minlength=nloc
        )
        part.row_ptr = np.concatenate(([0], np.cumsum(np.bincount(f_row, minlength=nrows))))
        part.row_vertex = f_vertex[np.argsort(f_row, kind="stable")]
        start = np.where(found, row, -1)
        if self.mode == "2":  # a pin of a row not cached looks up a negative key
            slot, found = _lookup(part.cache.keys, (start << 31) | (part.bucket[vertex] >> 1))
            start = np.where(found, 2 * slot, -1)
        part.pin_cell = start.astype(np.int32)

    def _tables(self, part: _Partition, splits: float):
        """Gain tables built from the *scalar* closures (bitwise-shared)."""
        if part._table_splits != splits:
            rem, ins, ins0 = _scalar_gain_fns(self.config.objective, self.config.p, splits)
            top = part.max_count
            part._rem_table = np.array(
                [0.0] + [rem(n) for n in range(1, top + 1)], dtype=np.float64
            )
            part._ins_table = np.array(
                [ins(n) for n in range(0, top + 1)], dtype=np.float64
            )
            part._ins0 = float(ins0)
            part._table_splits = splits
        return part._rem_table, part._ins_table, part._ins0

    # ------------------------------------------------------------------
    # S4: coin-flip moves under the master's per-bin probabilities
    # ------------------------------------------------------------------
    def _s4_move(self, ctx, part: _Partition) -> None:
        keys, values = ctx.broadcasts["probs"]
        if keys.size == 0 or part.dvids.size == 0:
            return
        level_k = int(ctx.broadcasts.get("level_k", self.config.k))
        valid = part.target >= 0
        encoded = self.binning.cell_keys(part.bucket, part.target, part.bin, level_k)
        idx, found = _lookup(keys, encoded)
        cand = np.flatnonzero(found & valid)
        if cand.size == 0:
            return
        probability = values[idx[cand]]
        draws = ctx.random(part.dvids[cand], 0)
        movers = cand[draws < probability]
        if movers.size == 0:
            return
        old = part.bucket[movers].copy()
        part.bucket[movers] = part.target[movers]
        part.delta_old[movers] = old
        part.has_delta[movers] = True
        part.stale[movers] = True
        ctx.aggregate("moved", 0, movers.size)
        ctx.charge(float(movers.size))
        ctx.add_active(int(movers.size))
