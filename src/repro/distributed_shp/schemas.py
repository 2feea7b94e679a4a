"""Typed wire schemas for the 4-superstep SHP protocol.

The job's kernels build :class:`~repro.distributed.MessageBatch` columns
directly from these schemas, and the engine meters every message at the
schema's dtype-exact size — one definition for what travels and what is
counted.
"""

from __future__ import annotations

from ..distributed.messages import MessageSchema

__all__ = ["DELTA_SCHEMA", "NDATA_SCHEMA", "NET_DELTA_SCHEMA"]


#: S1 collect — a data vertex tells its queries it moved ``old -> new``
#: (``old`` is -1 on the first announcement of a level).
DELTA_SCHEMA = MessageSchema(
    "shp-delta",
    fields=(("old", "<i4"), ("new", "<i4")),
)

#: S2 neighbor data — a query broadcasts its sparse bucket histogram
#: ``n_i(q)`` to adjacent data vertices: a fixed header (query id, traffic
#: weight) plus one (bucket, count) entry per nonzero bucket.
NDATA_SCHEMA = MessageSchema(
    "shp-ndata",
    fields=(("query", "<i8"), ("weight", "<f8")),
    entry_fields=(("bucket", "<i4"), ("count", "<i4")),
)

#: Combined S1 collect — what :class:`~repro.distributed_shp.combiners.
#: ShpDeltaCombiner` sends per (source worker, query) instead of raw
#: deltas: the *net* per-bucket count adjustments of that worker's movers,
#: one (bucket, net) entry per bucket whose net change is nonzero.  A
#: zero-entry payload is legal and 0 bytes — it still marks the query
#: dirty, preserving combiner-off activity semantics bitwise.
NET_DELTA_SCHEMA = MessageSchema(
    "shp-net-delta",
    fields=(),
    entry_fields=(("bucket", "<i4"), ("net", "<i4")),
)
