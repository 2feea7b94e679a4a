"""Columnar (struct-of-arrays) execution of the 4-superstep SHP protocol.

:class:`SHPColumnarProgram` is the job's one
:class:`~repro.distributed.BatchVertexProgram`: each worker holds its
partition as numpy columns — ``bucket`` / ``target`` / ``gain`` / ``bin``
for data vertices, CSR-backed sparse neighbor data for query vertices — and
executes every protocol phase as vectorized kernels over the whole
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
  vertex — via ``np.bincount``'s sequential left-to-right adds;
* that per-vertex add order is preserved on any subset of rows (a
  vertex's terms never meet another's), so S3 recomputes only *stale*
  data vertices — Giraph's activity rule, ``_stale_rows`` — and a vertex
  it skips holds, bit for bit, what a whole-partition pass would write;
* the aggregated histograms are integer-valued, so master decisions match.

Worker-local representation notes: a per-vertex execution would cache one
copy of a query's neighbor data per adjacent data vertex; the columnar
partition stores each cached query row once per worker (all copies are
identical) and joins data vertices against it through the adjacency CSR,
which is both the memory win and the vectorization enabler.  Message
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
from ..hypergraph.bipartite import csr_row_positions, ragged_positions
from .schemas import DELTA_SCHEMA, NDATA_SCHEMA, NET_DELTA_SCHEMA

__all__ = ["SHPColumnarProgram"]

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


#: The ``_Partition`` fields a superstep writes — a snapshot's whole state.
#: What is derived from them (the gain tables, the pin -> cache-row join)
#: is rebuilt by ``load_state``.
_MUTABLE = (
    "bucket", "target", "gain", "bin", "stale", "computed_under",
    "has_delta", "delta_old",
    "nd_indptr", "nd_bucket", "nd_count",
    "cache_qids", "cache_weight", "cache_indptr", "cache_bucket", "cache_count",
    "parity",
)


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
        # Sparse neighbor data n_i(q) per local query: CSR rows sorted by
        # bucket id (rebuilt, never mutated, so in-flight batches that
        # alias the arrays stay valid).
        self.nd_indptr = np.zeros(1, dtype=np.int64)
        self.nd_bucket = np.empty(0, dtype=np.int64)
        self.nd_count = np.empty(0, dtype=np.int64)
        # Worker-shared cache of the latest neighbor data each adjacent
        # query broadcast (one row per query, not one per adjacent vertex).
        self.cache_qids = np.empty(0, dtype=np.int64)
        self.cache_weight = np.empty(0, dtype=np.float64)
        self.cache_indptr = np.zeros(1, dtype=np.int64)
        self.cache_bucket = np.empty(0, dtype=np.int64)
        self.cache_count = np.empty(0, dtype=np.int64)
        # The level-static half of the S3 join, derived from ``cache_qids``
        # by ``_join`` whenever the set of cached queries changes: per
        # local pin (aligned with ``d_adj_q``) its cache row, -1 while the
        # query has not broadcast; per cache row the local pins naming it.
        self.pin_row = np.empty(0, dtype=np.int32)
        self.row_refs = np.empty(0, dtype=np.int32)
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
            if isinstance(value, np.ndarray):
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
        part.nd_indptr = np.zeros(qvids.size + 1, dtype=np.int64)
        self._join(part)
        return part

    def collect_states(self, part: _Partition) -> tuple[np.ndarray, np.ndarray]:
        """``(data vertex ids, their final buckets)`` of one partition."""
        return part.dvids, part.bucket

    def save_state(self, part: _Partition) -> dict:
        """What a peer cannot rebuild: the columns the kernels write.  The
        static CSR comes back from ``create_partition``; the gain tables
        and the pin -> cache-row join from ``load_state``."""
        return {name: getattr(part, name) for name in _MUTABLE}

    def load_state(self, part: _Partition, state: dict) -> None:
        """Resume a freshly created partition from :meth:`save_state`.

        Everything derived is rebuilt here, not on first use, so a
        re-homed partition is byte for byte as large as the one it
        replaces (``partition_nbytes`` feeds ``memory_per_worker``).
        """
        for name in _MUTABLE:
            setattr(part, name, state[name])
        if part.computed_under is not None:
            self._tables(part, part.computed_under[0])
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
        # New level: cached neighbor data is stale.
        part.cache_qids = np.empty(0, dtype=np.int64)
        part.cache_weight = np.empty(0, dtype=np.float64)
        part.cache_indptr = np.zeros(1, dtype=np.int64)
        part.cache_bucket = np.empty(0, dtype=np.int64)
        part.cache_count = np.empty(0, dtype=np.int64)
        self._join(part)

    # ------------------------------------------------------------------
    # S2: queries fold deltas into n_i(q), dirty queries broadcast it
    # ------------------------------------------------------------------
    def _s2_neighbor_data(self, ctx, part: _Partition, inbox: list) -> None:
        nq = part.qvids.size
        reset = bool(ctx.broadcasts.get("reset"))
        deltas = [b for b in inbox if b.schema.name == DELTA_SCHEMA.name]
        nets = [b for b in inbox if b.schema.name == NET_DELTA_SCHEMA.name]
        if deltas:
            dst = np.concatenate([b.dst for b in deltas])
            d_old = np.concatenate([b.cols["old"] for b in deltas]).astype(np.int64)
            d_new = np.concatenate([b.cols["new"] for b in deltas]).astype(np.int64)
        else:
            dst = np.empty(0, dtype=np.int64)
            d_old = np.empty(0, dtype=np.int64)
            d_new = np.empty(0, dtype=np.int64)
        ql = np.searchsorted(part.qvids, dst)
        has_msg = np.zeros(nq, dtype=bool)
        if ql.size:
            has_msg[ql] = True
        # Combined net adjustments (ShpDeltaCombiner): gather their ragged
        # (bucket, net) entries into the same summed rebuild below.  A
        # zero-entry message contributes no entries but still marks its
        # query dirty — identical activity semantics to raw deltas.
        net_rows: list[np.ndarray] = []
        net_buckets: list[np.ndarray] = []
        net_counts: list[np.ndarray] = []
        for b in nets:
            nql = np.searchsorted(part.qvids, b.dst)
            has_msg[nql] = True
            positions, lens = b.entry_positions(np.arange(len(b), dtype=np.int64))
            if positions.size:
                net_rows.append(np.repeat(nql, lens))
                net_buckets.append(b.entries["bucket"][positions].astype(np.int64))
                net_counts.append(b.entries["net"][positions].astype(np.int64))

        # Rebuild the neighbor-data CSR: existing entries (dropped wholesale
        # on reset) plus +1/-1 delta entries, summed per (query, bucket).
        # Sum-combining is equivalent to a sequential increment/decrement
        # per delta because counts never go transiently negative
        # for a bucket that survives (each data vertex contributes one
        # delta per cycle and was already counted before moving out).
        rows_parts = []
        bucket_parts = []
        count_parts = []
        if not reset and part.nd_bucket.size:
            rows_parts.append(
                np.repeat(np.arange(nq, dtype=np.int64), np.diff(part.nd_indptr))
            )
            bucket_parts.append(part.nd_bucket)
            count_parts.append(part.nd_count)
        if ql.size:
            rows_parts.append(ql)
            bucket_parts.append(d_new)
            count_parts.append(np.ones(ql.size, dtype=np.int64))
            dec = d_old >= 0
            if dec.any():
                rows_parts.append(ql[dec])
                bucket_parts.append(d_old[dec])
                count_parts.append(np.full(int(dec.sum()), -1, dtype=np.int64))
        if net_rows:
            rows_parts.extend(net_rows)
            bucket_parts.extend(net_buckets)
            count_parts.extend(net_counts)
        if rows_parts:
            all_q = np.concatenate(rows_parts)
            all_b = np.concatenate(bucket_parts)
            all_c = np.concatenate(count_parts)
            order = np.lexsort((all_b, all_q))
            aq, ab, ac = all_q[order], all_b[order], all_c[order]
            first = np.empty(aq.size, dtype=bool)
            first[0] = True
            first[1:] = (aq[1:] != aq[:-1]) | (ab[1:] != ab[:-1])
            starts = np.flatnonzero(first)
            sums = np.add.reduceat(ac, starts)
            keep = sums > 0
            kq, kb, kc = aq[starts][keep], ab[starts][keep], sums[keep]
            # Transient-buffer meter: the concatenated rebuild scratch is
            # this kernel's allocation peak (released on return).
            ctx.charge_transient(
                3 * all_q.nbytes + order.nbytes + first.nbytes + sums.nbytes
            )
        else:
            kq = np.empty(0, dtype=np.int64)
            kb = np.empty(0, dtype=np.int64)
            kc = np.empty(0, dtype=np.int64)
        part.nd_bucket = kb
        part.nd_count = kc
        part.nd_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(kq, minlength=nq)))
        )

        dirty = has_msg | reset
        send_q = np.flatnonzero(dirty)
        if send_q.size:
            positions, lengths = csr_row_positions(part.q_adj_indptr, send_q)
            row_start = part.nd_indptr[send_q]
            row_len = part.nd_indptr[send_q + 1] - row_start
            if positions.size:
                batch = MessageBatch(
                    NDATA_SCHEMA,
                    part.q_adj_d[positions],
                    {
                        "query": np.repeat(part.qvids[send_q], lengths),
                        "weight": np.repeat(part.q_weight[send_q], lengths),
                    },
                    entry_start=np.repeat(row_start, lengths),
                    entry_len=np.repeat(row_len, lengths),
                    entries={
                        "bucket": part.nd_bucket.astype(np.int32),
                        "count": part.nd_count.astype(np.int32),
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
        self._update_cache(part, inbox)
        nloc = part.dvids.size
        if nloc == 0:
            return
        cfg = self.config
        splits = float(ctx.broadcasts.get("splits_ahead", 1.0))
        rem_t, ins_t, ins0 = self._tables(part, splits)
        level_k = int(ctx.broadcasts.get("level_k", cfg.k))
        rows = self._stale_rows(part, inbox, (splits, level_k))
        nrows = rows.size

        # Join the stale data vertices with the worker's query cache:
        # their pins through the adjacency CSR (rows already ascending in
        # query id), each pin's cache row through the level-static join.
        # ``edge_d`` indexes ``rows``, not the partition.
        pins, degree = csr_row_positions(part.d_adj_indptr, rows)
        edge_d = np.repeat(np.arange(nrows, dtype=np.int64), degree)
        crow = part.pin_row[pins]
        found = crow >= 0
        f_d = edge_d[found]
        f_row = crow[found]
        w_e = part.cache_weight[f_row]
        row_len = part.cache_indptr[f_row + 1] - part.cache_indptr[f_row]
        positions = ragged_positions(part.cache_indptr[f_row], row_len)
        ent_edge = np.repeat(np.arange(f_d.size, dtype=np.int64), row_len)
        ent_b = part.cache_bucket[positions]
        ent_c = part.cache_count[positions]

        bucket = part.bucket[rows]
        bucket_e = bucket[f_d]
        match = ent_b == bucket_e[ent_edge]
        count_here = np.ones(f_d.size, dtype=np.int64)
        count_here[ent_edge[match]] = ent_c[match]

        # bincount accumulates sequentially in input order — (data vertex,
        # ascending query id), the canonical order — so the float sums are
        # bitwise reproducible (and equal to a sorted per-vertex fold) on
        # any subset of rows: a vertex's terms never meet another's.
        rsum = np.bincount(f_d, weights=w_e * rem_t[count_here], minlength=nrows)
        weight_sum = np.bincount(f_d, weights=w_e, minlength=nrows)

        other = ~match
        # Transient-buffer meter: the join scratch above is the kernel's
        # allocation high-water mark (freed before the superstep returns);
        # selection-path scratch is added per branch below.
        join_bytes = (
            pins.nbytes
            + edge_d.nbytes
            + crow.nbytes
            + f_d.nbytes
            + f_row.nbytes
            + w_e.nbytes
            + row_len.nbytes
            + positions.nbytes
            + ent_edge.nbytes
            + ent_b.nbytes
            + ent_c.nbytes
            + count_here.nbytes
        )
        if self.mode == "2":
            # Level-fused composite labels: a bucket id at a synchronous
            # descent level encodes the ``(group, side)`` pair as
            # ``2·group + side``, so the only legal destination is the
            # sibling column ``bucket ^ 1`` of the vertex's own group.
            # Aggregating *only* sibling entries keeps memory at O(occupied
            # pairs) — the dense ``rows × level_k`` grid never exists —
            # and is bitwise-equal to the dense column: the filtered
            # subsequence preserves the (data vertex, ascending query) add
            # order.
            sib = other & (ent_b == (bucket_e ^ 1)[ent_edge])
            rows_sib = f_d[ent_edge[sib]]
            terms = w_e[ent_edge[sib]] * (ins_t[ent_c[sib]] - ins0)
            adjust = np.bincount(rows_sib, weights=terms, minlength=nrows)
            occupied = np.bincount(rows_sib, minlength=nrows) > 0
            best_bucket = bucket ^ 1
            best_adjust = np.where(occupied, adjust, 0.0)
            select_bytes = (
                sib.nbytes + rows_sib.nbytes + terms.nbytes + adjust.nbytes
            )
        else:
            cells = f_d[ent_edge[other]] * level_k + ent_b[other]
            terms = w_e[ent_edge[other]] * (ins_t[ent_c[other]] - ins0)
            select_bytes = cells.nbytes + terms.nbytes
            if level_k <= DENSE_S3_MAX_LEVEL_K:
                # Dense grid: float64 sums + bool present, rows × level_k each.
                select_bytes += nrows * level_k * 9
                best_bucket, best_adjust = self._select_dense(
                    bucket, level_k, cells, terms
                )
            else:
                best_bucket, best_adjust = self._select_sparse(
                    bucket, level_k, cells, terms
                )
        ctx.charge_transient(join_bytes + select_bytes)

        gain = rsum - (weight_sum * ins0 + best_adjust)
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
        entries = (np.diff(part.cache_indptr) * part.row_refs).sum()
        ctx.charge(float(entries) + 2.0 * nloc)
        ctx.add_active(nloc)

    @staticmethod
    def _stale_rows(part: _Partition, inbox: list, broadcast: tuple) -> np.ndarray:
        """Giraph's activity rule for S3: the local data vertices (ascending
        row indices) whose proposal must be recomputed; clears the flags.

        A gain is a function of the vertex's bucket, the cached rows of its
        adjacent queries and the ``(splits_ahead, level_k)`` broadcast, so
        a vertex is stale iff it moved (S4 and the level descent set the
        flag; never-computed vertices start with it), it received neighbor
        data this superstep (the inbox's ``dst`` name exactly the local
        vertices adjacent to a re-broadcast query), or the broadcast is not
        the one its gain was computed under (then everyone).  Anyone else
        would recompute the value it already holds, bit for bit.
        """
        for batch in inbox:
            part.stale[np.searchsorted(part.dvids, batch.dst)] = True
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
        fb_cells = np.arange(n, dtype=np.int64) * level_k + fallback
        fallback_adj = np.zeros(n, dtype=np.float64)
        if occupied.size:
            fb_idx = np.minimum(
                np.searchsorted(occupied, fb_cells), occupied.size - 1
            )
            fb_present = occupied[fb_idx] == fb_cells
            fallback_adj = np.where(fb_present, cell_sums[fb_idx], 0.0)
        use_min = minval < 0.0
        best_bucket = np.where(use_min, best_b, fallback)
        best_adjust = np.where(
            use_min, np.where(np.isfinite(minval), minval, 0.0), fallback_adj
        )
        return best_bucket, best_adjust

    def _update_cache(self, part: _Partition, inbox: list) -> None:
        """Fold inbound S2 broadcasts into the worker's query-row cache.

        Every adjacent data vertex receives the same row, so one copy per
        query per worker suffices; each query appears in at most one
        inbound batch (its owner worker sends once).
        """
        if not inbox:
            return
        qid_parts, w_parts, len_parts, b_parts, c_parts = [], [], [], [], []
        for batch in inbox:
            q = batch.cols["query"]
            if not q.size:
                continue
            uq, first_idx = np.unique(q, return_index=True)
            positions, lens = batch.entry_positions(first_idx)
            qid_parts.append(uq)
            w_parts.append(batch.cols["weight"][first_idx])
            len_parts.append(lens)
            b_parts.append(batch.entries["bucket"][positions].astype(np.int64))
            c_parts.append(batch.entries["count"][positions].astype(np.int64))
        if not qid_parts:
            return
        new_qids = np.concatenate(qid_parts)
        new_w = np.concatenate(w_parts)
        new_len = np.concatenate(len_parts)
        new_b = np.concatenate(b_parts)
        new_c = np.concatenate(c_parts)
        new_start = np.concatenate(([0], np.cumsum(new_len)[:-1]))

        keep = ~np.isin(part.cache_qids, new_qids, assume_unique=True)
        old_start = part.cache_indptr[:-1][keep]
        old_len = np.diff(part.cache_indptr)[keep]
        pool_b = np.concatenate([part.cache_bucket, new_b])
        pool_c = np.concatenate([part.cache_count, new_c])
        qids = np.concatenate([part.cache_qids[keep], new_qids])
        weights = np.concatenate([part.cache_weight[keep], new_w])
        starts = np.concatenate([old_start, new_start + part.cache_bucket.size])
        lens = np.concatenate([old_len, new_len])

        order = np.argsort(qids, kind="stable")
        starts, lens = starts[order], lens[order]
        positions = ragged_positions(starts, lens)
        # Rows were replaced one for one unless a query broadcast for the
        # first time this level — in practice the level's first cycle only.
        rejoin = qids.size != part.cache_qids.size
        part.cache_qids = qids[order]
        part.cache_weight = weights[order]
        part.cache_indptr = np.concatenate(([0], np.cumsum(lens)))
        part.cache_bucket = pool_b[positions]
        part.cache_count = pool_c[positions]
        if rejoin:
            self._join(part)

    @staticmethod
    def _join(part: _Partition) -> None:
        """Resolve every local pin to its cache row (the level-static half
        of the S3 join) and count the pins naming each row."""
        nrows = part.cache_qids.size
        crow = np.searchsorted(part.cache_qids, part.d_adj_q)
        found = crow < nrows
        found[found] = part.cache_qids[crow[found]] == part.d_adj_q[found]
        part.pin_row = np.where(found, crow, -1).astype(np.int32)
        part.row_refs = np.bincount(crow[found], minlength=nrows).astype(np.int32)

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
        idx = np.minimum(np.searchsorted(keys, encoded), keys.size - 1)
        found = (keys[idx] == encoded) & valid
        cand = np.flatnonzero(found)
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
