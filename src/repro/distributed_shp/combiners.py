"""Message combiners for the 4-superstep SHP protocol.

:class:`ShpDeltaCombiner` implements the Giraph-style combiner the paper
lists among its messaging optimizations, specialized to the S1 collect
phase: all ``(old, new)`` bucket deltas one worker sends to the same query
vertex collapse into a single *net* per-bucket adjustment message
(:data:`~repro.distributed_shp.schemas.NET_DELTA_SCHEMA`).

Correctness rests on the fold being a sum: a query's neighbor data
``n_i(q)`` changes by ``+1`` on the new bucket and ``-1`` on the old bucket
of every mover, so the order of arrival never matters and the per-bucket
*net* carries exactly the same information as the raw delta stream.  A
worker whose movers cancel out entirely still sends one zero-entry
(0-byte) message, because receiving *something* is what marks the query
dirty — with the combiner on or off, for any seed, on every backend, the
final assignment is bitwise identical (``tests/test_golden_grid.py`` and
the oracle differential next to it pin this).

Wire win: a raw delta costs 8 bytes, a net entry costs 8 bytes, so
combining is applied per destination only when it yields strictly fewer
entries than raw messages (``E < m``) — combined traffic is never larger,
and shrinks dramatically when many movers share few buckets (mode "2" has
at most 2 live buckets per level).
"""

from __future__ import annotations

import numpy as np

from ..distributed.messages import Combiner, MessageBatch
from .schemas import DELTA_SCHEMA, NET_DELTA_SCHEMA

__all__ = ["ShpDeltaCombiner"]


class ShpDeltaCombiner(Combiner):
    """Collapse S1 bucket deltas into per-bucket net adjustments.

    :meth:`combine_batch` folds one destination's raw ``(old, new)`` deltas
    into a single net-delta message (buckets ascending, zero nets dropped)
    whenever that is strictly smaller, over whole
    :class:`~repro.distributed.MessageBatch` columns with a
    lexsort/reduceat segment sum.  Non-delta traffic (the S2 neighbor-data
    broadcasts) passes through untouched.
    """

    def combine_batch(self, batch: MessageBatch) -> list[MessageBatch]:
        if batch.schema.name != DELTA_SCHEMA.name or len(batch) <= 1:
            return [batch]
        n = len(batch)
        dst = batch.dst
        old = batch.cols["old"].astype(np.int64)
        new = batch.cols["new"].astype(np.int64)

        uniq_dst, dst_inv, m_per = np.unique(
            dst, return_inverse=True, return_counts=True
        )
        # Net per (destination, bucket): +1 on each mover's new bucket,
        # -1 on its old one (old < 0 encodes "first announcement").
        dec = old >= 0
        rows = np.concatenate([dst_inv, dst_inv[dec]])
        buckets = np.concatenate([new, old[dec]])
        signs = np.concatenate(
            [
                np.ones(n, dtype=np.int64),
                np.full(int(dec.sum()), -1, dtype=np.int64),
            ]
        )
        order = np.lexsort((buckets, rows))
        rq, rb, rs = rows[order], buckets[order], signs[order]
        first = np.empty(rq.size, dtype=bool)
        first[0] = True
        first[1:] = (rq[1:] != rq[:-1]) | (rb[1:] != rb[:-1])
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(rs, starts)
        keep = sums != 0
        gq, gb, gn = rq[starts][keep], rb[starts][keep], sums[keep]

        # Combine a destination only when strictly fewer net entries than
        # raw messages (E < m): combined traffic is never larger.
        entries_per = np.bincount(gq, minlength=uniq_dst.size)
        do_combine = entries_per < m_per

        out: list[MessageBatch] = []
        raw_mask = ~do_combine[dst_inv]
        if raw_mask.any():
            out.append(batch.select(np.flatnonzero(raw_mask)))
        cdst = np.flatnonzero(do_combine)
        if cdst.size:
            in_combined = do_combine[gq]
            eq = gq[in_combined]
            lens = np.bincount(eq, minlength=uniq_dst.size)[cdst]
            out.append(
                MessageBatch(
                    NET_DELTA_SCHEMA,
                    uniq_dst[cdst],
                    {},
                    entry_start=np.concatenate(([0], np.cumsum(lens)[:-1])),
                    entry_len=lens,
                    # Already grouped ascending (dst, bucket) by the lexsort.
                    entries={
                        "bucket": gb[in_combined].astype(np.int32),
                        "net": gn[in_combined].astype(np.int32),
                    },
                )
            )
        return out if out else [batch.select(np.empty(0, dtype=np.int64))]
