"""Sharded in-memory key-value store (the Fig. 4b substrate).

Models the paper's experiment: "the data is stored in a memory-based,
key-value store, and there is one data record per user", sharded over a
set of servers by a partition assignment.  The store tracks per-server
request/record counters so experiments can report load and the CPU-proxy
metrics behind the paper's "CPU utilization also decreased by over 50%"
observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ShardedKVStore"]


@dataclass
class ShardedKVStore:
    """Records distributed over ``num_servers`` by an assignment array."""

    num_servers: int
    assignment: np.ndarray  # record id -> server id
    requests_per_server: np.ndarray = field(init=False)
    records_per_server: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.size:
            if self.assignment.min() < 0:
                # Negative ids would pass a max()-only check and silently
                # corrupt the load counters via negative indexing.
                raise ValueError("assignment contains negative server ids")
            if self.assignment.max() >= self.num_servers:
                raise ValueError("assignment references a server beyond num_servers")
        self.requests_per_server = np.zeros(self.num_servers, dtype=np.int64)
        self.records_per_server = np.zeros(self.num_servers, dtype=np.int64)

    @property
    def num_records(self) -> int:
        return int(self.assignment.size)

    def server_of(self, keys: np.ndarray) -> np.ndarray:
        return self.assignment[np.asarray(keys, dtype=np.int64)]

    def plan_multiget_batch(
        self, keys: np.ndarray, query_of_key: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group a whole batch of multi-gets in one vectorized pass.

        ``keys`` concatenates every query's key list; ``query_of_key`` maps
        each entry to its query slot.  One sort + segmented reduction yields
        the per-(slot, server) requests: returns ``(req_query, req_server,
        req_records)`` arrays, one entry per request, grouped by query slot
        with servers ascending inside a slot.  Also advances the per-server
        load counters (one request per (slot, server) hit, plus the record
        counts), modeling the storage tier's work.
        """
        servers = self.server_of(keys)
        query_of_key = np.asarray(query_of_key, dtype=np.int64)
        # Fuse (slot, server) into one sortable key: a value sort beats a
        # two-key lexsort and no permutation array is ever materialized.
        key = np.sort(query_of_key * self.num_servers + servers)
        first = np.ones(key.size, dtype=bool)
        first[1:] = key[1:] != key[:-1]
        req_start = np.flatnonzero(first)
        req_key = key[req_start]
        req_query = req_key // self.num_servers
        req_server = req_key % self.num_servers
        req_records = np.diff(np.concatenate((req_start, [key.size])))
        self.requests_per_server += np.bincount(req_server, minlength=self.num_servers)
        self.records_per_server += np.bincount(
            req_server, weights=req_records, minlength=self.num_servers
        ).astype(np.int64)
        return req_query, req_server, req_records

    def load_imbalance(self) -> float:
        """Max/mean ratio of records stored per server (placement skew)."""
        stored = np.bincount(self.assignment, minlength=self.num_servers)
        mean = stored.mean()
        return float(stored.max() / mean) if mean > 0 else 0.0

    def reset_counters(self) -> None:
        self.requests_per_server[:] = 0
        self.records_per_server[:] = 0
