"""The slot tables' reference: rebuild them from scratch.

``SHPColumnarProgram`` keeps neighbor data in two
:class:`~repro.distributed_shp.columnar.SlotTable` s that it only ever
*updates* — S2 scatters signed deltas into the queries' table, S3 rewrites
the rows it received in the worker's cache and re-evaluates the Eq. 1
values of the cells it touched.  :class:`RebuiltTablesProgram` is the same
program, checking around every S2 and S3 that what was maintained
incrementally equals what a from-scratch build gives:

* the queries' table against a histogram of the data vertices' *current*
  buckets (read from every partition of the job — ``sim`` only);
* the cache against the rows last received, kept here one message at a
  time in a plain dict, every cell's two values against the scalar
  closures, and the level-static join (pin -> cell, row -> vertices,
  per-vertex weight sums) against per-pin Python loops.

Counts, dtypes and float bits are compared exactly.  Driven in lockstep by
``tests/test_s3_activity.py``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.distributed_shp import SHPColumnarProgram
from repro.distributed_shp.columnar import _scalar_gain_fns


def table_rows(table, num_rows: int) -> list[dict[int, int]]:
    """A slot table as ``[{bucket: count}]``, non-zero sides only; asserts
    the structural invariants on the way."""
    assert table.keys.dtype == np.int64 and table.sides.dtype == np.int32
    assert np.all(np.diff(table.keys) > 0), "keys must stay strictly ascending"
    assert table.sides.size == 2 * table.keys.size and (table.sides >= 0).all()
    assert all(column.shape == table.sides.shape for column in table.values)
    rows: list[dict[int, int]] = [{} for _ in range(num_rows)]
    for slot, key in enumerate(table.keys.tolist()):
        for side in (0, 1):
            if table.sides[2 * slot + side]:
                rows[key >> 31][2 * (key & 0x7FFFFFFF) + side] = int(table.sides[2 * slot + side])
    return rows


class RebuiltTablesProgram(SHPColumnarProgram):
    """``SHPColumnarProgram`` that audits its slot tables around S2 and S3."""

    def __init__(self, *args):
        super().__init__(*args)
        self.partitions: list = []
        #: id(partition) -> {query id: (weight, {bucket: count})}, this level.
        self.received: dict[int, dict] = {}
        self.checks = 0

    def create_partition(self, worker_id, vids, graph):
        part = super().create_partition(worker_id, vids, graph)
        self.partitions.append(part)
        return part

    def _advance(self, part, superstep) -> None:
        super()._advance(part, superstep)
        self.received[id(part)] = {}

    def _s2_neighbor_data(self, ctx, part, inbox) -> None:
        self.check_cache(part)
        super()._s2_neighbor_data(ctx, part, inbox)
        self.check_neighbor_data(part)

    def _s3_propose(self, ctx, part, inbox) -> None:
        self.check_neighbor_data(part)
        rows = self.received.setdefault(id(part), {})
        for batch in inbox:
            for i in range(len(batch)):
                start, length = int(batch.entry_start[i]), int(batch.entry_len[i])
                rows[int(batch.cols["query"][i])] = (
                    float(batch.cols["weight"][i]),
                    dict(zip(
                        batch.entries["bucket"][start:start + length].tolist(),
                        batch.entries["count"][start:start + length].tolist(),
                    )),
                )
        super()._s3_propose(ctx, part, inbox)
        self.check_cache(part)

    # ------------------------------------------------------------------
    def check_neighbor_data(self, part) -> None:
        """``part.nd`` == the histogram of every local query's pins over the
        data vertices' current buckets."""
        bucket_of = {}
        for other in self.partitions:
            bucket_of.update(zip(other.dvids.tolist(), other.bucket.tolist()))
        expected = [
            dict(Counter(bucket_of[d] for d in part.q_adj_d[lo:hi].tolist()))
            for lo, hi in zip(part.q_adj_indptr[:-1].tolist(), part.q_adj_indptr[1:].tolist())
        ]
        assert table_rows(part.nd, part.qvids.size) == expected
        self.checks += 1

    def check_cache(self, part) -> None:
        """``part.cache``, its values and the join == a build from the rows
        last received."""
        rows = self.received.get(id(part), {})
        qids = sorted(rows)
        assert part.cache_qids.tolist() == qids
        assert part.cache_weight.tolist() == [rows[q][0] for q in qids]
        assert part.cache_len.tolist() == [len(rows[q][1]) for q in qids]
        assert part.cache_len.dtype == np.int32
        table = part.cache
        assert table_rows(table, len(qids)) == [
            {b: c for b, c in rows[q][1].items() if c} for q in qids
        ]

        if part.computed_under is not None:
            rem, ins, ins0 = _scalar_gain_fns(
                self.config.objective, self.config.p, part.computed_under[0]
            )
            weight = np.repeat(part.cache_weight[table.keys >> 31], 2)
            n = table.sides.tolist()
            removal = weight * np.array([rem(max(c, 1)) for c in n], dtype=np.float64)
            insertion = weight * (np.array([ins(c) for c in n], dtype=np.float64) - float(ins0))
            assert table.values[0].tobytes() == removal.tobytes()
            assert table.values[1].tobytes() == insertion.tobytes()

        row_of = {q: row for row, q in enumerate(qids)}
        slot_of = {key: slot for slot, key in enumerate(table.keys.tolist())}
        pin_cell, weight_sum = [], np.zeros(part.dvids.size, dtype=np.float64)
        vertices: list[list[int]] = [[] for _ in qids]
        for v in range(part.dvids.size):
            for pin in range(int(part.d_adj_indptr[v]), int(part.d_adj_indptr[v + 1])):
                row = row_of.get(int(part.d_adj_q[pin]))
                if row is None:
                    pin_cell.append(-1)
                    continue
                vertices[row].append(v)
                weight_sum[v] += part.cache_weight[row]  # pin order: the canonical fold
                if self.mode == "2":
                    slot = slot_of.get((row << 31) | (int(part.bucket[v]) >> 1))
                    pin_cell.append(-1 if slot is None else 2 * slot)
                else:
                    pin_cell.append(row)
        assert part.pin_cell.dtype == part.row_vertex.dtype == np.int32
        assert part.pin_cell.tolist() == pin_cell
        assert part.weight_sum.tobytes() == weight_sum.tobytes()
        assert np.diff(part.row_ptr).tolist() == [len(vs) for vs in vertices]
        for row, expected in enumerate(vertices):
            got = part.row_vertex[part.row_ptr[row]:part.row_ptr[row + 1]]
            assert sorted(got.tolist()) == expected
        self.checks += 1
