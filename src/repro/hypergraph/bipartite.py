"""Bipartite query-data graph: the input representation used by SHP.

The paper (Section 1) models a hypergraph as an undirected bipartite graph
``G = (Q ∪ D, E)`` with *query* vertices ``Q`` (one per hyperedge) and *data*
vertices ``D`` (the hypergraph vertices).  Every query vertex is adjacent to
the data vertices its hyperedge spans.  All partitioning algorithms in this
package operate on :class:`BipartiteGraph`.

The structure is stored in CSR form in both directions:

* query -> data:  ``q_indptr`` / ``q_indices``
* data -> query:  ``d_indptr`` / ``d_indices``

plus two convenience per-edge arrays (``q_of_edge`` aligned with
``q_indices``; ``d_of_edge`` aligned with ``d_indices``) that the vectorized
gain kernels rely on.  Arrays are immutable by convention: algorithms never
mutate a graph, they produce assignments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BipartiteGraph",
    "GraphValidationError",
    "csr_row_positions",
    "plan_row_ranges",
    "ragged_positions",
    "sorted_unique",
]


def ragged_positions(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` blocks, one per row.

    The single shared implementation of the ragged gather map: every block
    arithmetic (CSR row subsets, message-batch entry pools, columnar cache
    joins) routes through here so the offsets stay bit-identical everywhere.
    """
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    block_start = np.concatenate(([0], np.cumsum(lengths)[:-1]))
    return np.repeat(starts - block_start, lengths) + np.arange(total, dtype=np.int64)


def csr_row_positions(
    indptr: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions and lengths of the CSR slots of the listed rows.

    Returns ``(positions, lengths)`` where ``positions`` concatenates
    ``arange(indptr[r], indptr[r + 1])`` for every ``r`` in ``rows`` (one
    block per row, in list order) and ``lengths`` are the per-row block
    sizes.  This is the shared gather map behind the subset gain kernels,
    incremental count maintenance, and the fused engine's scatter paths —
    touching only a row subset's slots instead of scanning the whole array.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    return ragged_positions(starts, lengths), lengths


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array (what ``np.unique`` returns).

    The single definition of canonical edge order: ``from_edges`` and the
    out-of-core converter both dedupe composite ``q * num_data + d`` keys
    through it, so their outputs cannot drift.  One sort plus an
    adjacent-difference mask — numpy's ``np.unique`` hashes instead, ~40×
    slower on edge-scale keys — and keys that already are strictly
    increasing (a canonical graph being re-read) are returned as they came,
    without a sort or a copy.
    """
    keys = np.asarray(keys)
    if keys.size < 2 or bool((keys[1:] > keys[:-1]).all()):
        return keys
    if -(2**31) <= keys.min() and keys.max() < 2**31:
        # Half the bytes sort in half the time.
        ordered = np.sort(keys.astype(np.int32)).astype(keys.dtype)
    else:
        ordered = np.sort(keys)
    distinct = np.empty(ordered.size, dtype=bool)
    distinct[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=distinct[1:])
    return ordered[distinct]


def plan_row_ranges(indptr: np.ndarray, cap: int) -> np.ndarray:
    """Contiguous row-range boundaries with ≤ ``cap`` CSR slots per range.

    A single row longer than ``cap`` gets a range of its own (degree-bounded,
    the best any contiguous plan can do).  Shared by the converter's bucket
    plan and the text writers' chunking.
    """
    n = indptr.size - 1
    bounds = [0]
    while bounds[-1] < n:
        start = bounds[-1]
        nxt = int(np.searchsorted(indptr, indptr[start] + cap, side="right")) - 1
        bounds.append(min(max(nxt, start + 1), n))
    return np.asarray(bounds, dtype=np.int64)


class GraphValidationError(ValueError):
    """Raised when a graph fails structural validation."""


def _build_csr(src: np.ndarray, dst: np.ndarray, num_src: int) -> tuple[np.ndarray, np.ndarray]:
    """Build a CSR adjacency (indptr, indices) from parallel edge arrays."""
    counts = np.bincount(src, minlength=num_src)
    indptr = np.empty(num_src + 1, dtype=np.int64)
    indptr[0] = 0
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(src, kind="stable")
    indices = np.ascontiguousarray(dst[order])
    return indptr, indices


def _expand_indptr(indptr: np.ndarray) -> np.ndarray:
    """Return, for each CSR slot, the row it belongs to (repeat by degree)."""
    degrees = np.diff(indptr)
    return np.repeat(np.arange(len(degrees), dtype=np.int64), degrees)


@dataclass
class BipartiteGraph:
    """An immutable bipartite query-data graph.

    Parameters
    ----------
    num_queries, num_data:
        Vertex counts on each side.
    q_indptr, q_indices:
        CSR adjacency from queries to data vertices.
    d_indptr, d_indices:
        CSR adjacency from data vertices to queries.
    data_weights:
        Optional per-data-vertex weights, shape ``(num_data,)`` or
        ``(num_data, dims)`` for multi-dimensional balance (paper Section 5).
        ``None`` means unit weights.
    query_weights:
        Optional per-query weights, shape ``(num_queries,)``.  A production
        extension of the paper's model: weighting queries by traffic
        frequency makes every objective the *traffic-weighted* expectation
        (hot queries influence the partition more).  ``None`` = uniform.
    name:
        Optional human-readable dataset name (used by benchmark tables).
    """

    num_queries: int
    num_data: int
    q_indptr: np.ndarray
    q_indices: np.ndarray
    d_indptr: np.ndarray
    d_indices: np.ndarray
    data_weights: np.ndarray | None = None
    query_weights: np.ndarray | None = None
    name: str = ""
    _q_of_edge: np.ndarray | None = field(default=None, repr=False)
    _d_of_edge: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        queries: Sequence[int] | np.ndarray,
        data: Sequence[int] | np.ndarray,
        num_queries: int | None = None,
        num_data: int | None = None,
        data_weights: np.ndarray | None = None,
        query_weights: np.ndarray | None = None,
        name: str = "",
        dedupe: bool = True,
    ) -> "BipartiteGraph":
        """Build a graph from parallel ``(query, data)`` edge arrays.

        Duplicate edges are removed by default: a hyperedge contains a vertex
        at most once, and duplicate (q, d) pairs would double-count in the
        ``n_i(q)`` neighbor statistics.
        """
        q = np.asarray(queries, dtype=np.int64)
        d = np.asarray(data, dtype=np.int64)
        if q.shape != d.shape:
            raise GraphValidationError(
                f"edge arrays must have identical shape, got {q.shape} vs {d.shape}"
            )
        if q.size and (q.min() < 0 or d.min() < 0):
            raise GraphValidationError("vertex ids must be non-negative")
        nq = int(num_queries) if num_queries is not None else (int(q.max()) + 1 if q.size else 0)
        nd = int(num_data) if num_data is not None else (int(d.max()) + 1 if d.size else 0)
        if q.size and (q.max() >= nq or d.max() >= nd):
            raise GraphValidationError("edge endpoint out of declared vertex range")
        if dedupe and q.size:
            unique_key = sorted_unique(q * nd + d)
            q = unique_key // nd
            d = unique_key % nd
        q_indptr, q_indices = _build_csr(q, d, nq)
        d_indptr, d_indices = _build_csr(d, q, nd)
        return cls(
            num_queries=nq,
            num_data=nd,
            q_indptr=q_indptr,
            q_indices=q_indices,
            d_indptr=d_indptr,
            d_indices=d_indices,
            data_weights=data_weights,
            query_weights=query_weights,
            name=name,
        )

    @classmethod
    def from_hyperedges(
        cls,
        hyperedges: Iterable[Sequence[int]],
        num_data: int | None = None,
        data_weights: np.ndarray | None = None,
        query_weights: np.ndarray | None = None,
        name: str = "",
    ) -> "BipartiteGraph":
        """Build a graph from an iterable of hyperedges (vertex-id lists)."""
        qs: list[np.ndarray] = []
        ds: list[np.ndarray] = []
        for qid, pins in enumerate(hyperedges):
            pins_arr = np.asarray(list(pins), dtype=np.int64)
            qs.append(np.full(pins_arr.size, qid, dtype=np.int64))
            ds.append(pins_arr)
        if qs:
            q = np.concatenate(qs)
            d = np.concatenate(ds)
        else:
            q = np.empty(0, dtype=np.int64)
            d = np.empty(0, dtype=np.int64)
        return cls.from_edges(
            q, d, num_queries=len(qs), num_data=num_data, data_weights=data_weights,
            query_weights=query_weights, name=name,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Total number of (query, data) incidences, i.e. sum of pin counts."""
        return int(self.q_indices.size)

    @property
    def query_degrees(self) -> np.ndarray:
        return np.diff(self.q_indptr)

    @property
    def data_degrees(self) -> np.ndarray:
        return np.diff(self.d_indptr)

    @property
    def q_of_edge(self) -> np.ndarray:
        """Query id of every edge, aligned with ``q_indices``."""
        if self._q_of_edge is None:
            object.__setattr__(self, "_q_of_edge", _expand_indptr(self.q_indptr))
        return self._q_of_edge

    @property
    def d_of_edge(self) -> np.ndarray:
        """Data id of every edge, aligned with ``d_indices``."""
        if self._d_of_edge is None:
            object.__setattr__(self, "_d_of_edge", _expand_indptr(self.d_indptr))
        return self._d_of_edge

    def query_neighbors(self, q: int) -> np.ndarray:
        """Data vertices adjacent to query ``q``."""
        return self.q_indices[self.q_indptr[q] : self.q_indptr[q + 1]]

    def data_neighbors(self, v: int) -> np.ndarray:
        """Query vertices adjacent to data vertex ``v``."""
        return self.d_indices[self.d_indptr[v] : self.d_indptr[v + 1]]

    def query_weights_or_unit(self) -> np.ndarray:
        """Per-query weights (uniform 1.0 when unweighted)."""
        if self.query_weights is None:
            return np.ones(self.num_queries, dtype=np.float64)
        return np.asarray(self.query_weights, dtype=np.float64)

    def weights_or_unit(self) -> np.ndarray:
        """Primary-dimension data weights (unit weights when unweighted)."""
        if self.data_weights is None:
            return np.ones(self.num_data, dtype=np.float64)
        w = np.asarray(self.data_weights, dtype=np.float64)
        return w[:, 0] if w.ndim == 2 else w

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the two CSR directions are structurally consistent."""
        if self.q_indptr[0] != 0 or self.d_indptr[0] != 0:
            raise GraphValidationError("indptr must start at 0")
        if self.q_indptr[-1] != self.q_indices.size:
            raise GraphValidationError("query indptr does not cover q_indices")
        if self.d_indptr[-1] != self.d_indices.size:
            raise GraphValidationError("data indptr does not cover d_indices")
        if self.q_indices.size != self.d_indices.size:
            raise GraphValidationError("edge counts disagree between directions")
        if np.any(np.diff(self.q_indptr) < 0) or np.any(np.diff(self.d_indptr) < 0):
            raise GraphValidationError("indptr must be non-decreasing")
        if self.q_indices.size:
            if self.q_indices.max() >= self.num_data or self.q_indices.min() < 0:
                raise GraphValidationError("q_indices out of range")
            if self.d_indices.max() >= self.num_queries or self.d_indices.min() < 0:
                raise GraphValidationError("d_indices out of range")
        # Direction symmetry: multiset of edges must match.
        lhs = np.sort(self.q_of_edge * self.num_data + self.q_indices)
        rhs = np.sort(self.d_indices * self.num_data + self.d_of_edge)
        if not np.array_equal(lhs, rhs):
            raise GraphValidationError("query->data and data->query adjacency disagree")
        if self.data_weights is not None and len(self.data_weights) != self.num_data:
            raise GraphValidationError("data_weights length mismatch")
        if self.query_weights is not None and len(self.query_weights) != self.num_queries:
            raise GraphValidationError("query_weights length mismatch")

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def remove_small_queries(self, min_degree: int = 2) -> "BipartiteGraph":
        """Drop queries with degree below ``min_degree``.

        The paper removes isolated and degree-one queries in all experiments
        (Section 4.1): such hyperedges have fanout exactly one under every
        partition, so they never contribute to optimization.
        """
        keep = self.query_degrees >= min_degree
        if keep.all():
            return self
        keep_edges = keep[self.q_of_edge]
        new_q_ids = np.cumsum(keep) - 1
        q = new_q_ids[self.q_of_edge[keep_edges]]
        d = self.q_indices[keep_edges]
        kept_weights = None
        if self.query_weights is not None:
            kept_weights = np.asarray(self.query_weights)[keep]
        return BipartiteGraph.from_edges(
            q,
            d,
            num_queries=int(keep.sum()),
            num_data=self.num_data,
            data_weights=self.data_weights,
            query_weights=kept_weights,
            name=self.name,
            dedupe=False,
        )

    def induced_subgraph(self, data_ids: np.ndarray, min_query_degree: int = 2) -> tuple[
        "BipartiteGraph", np.ndarray
    ]:
        """Subgraph induced by a subset of data vertices.

        Used by recursive bisection (paper Section 3.3): each recursion step
        operates on the graph induced by ``Q ∪ V_i``.  Queries whose degree
        within the subset falls below ``min_query_degree`` are dropped, since
        they cannot influence a bisection of the subset.

        Returns ``(subgraph, data_ids)`` where ``data_ids[i]`` is the original
        id of local data vertex ``i``.

        ``data_ids`` must not contain duplicates: the original-to-local id map
        is positional, so a repeated id would silently shadow earlier slots and
        corrupt the subgraph's adjacency.
        """
        data_ids = np.asarray(data_ids, dtype=np.int64)
        if sorted_unique(data_ids).size != data_ids.size:
            raise GraphValidationError(
                "induced_subgraph requires unique data_ids: duplicates would "
                "overwrite earlier local_of slots and corrupt the id mapping"
            )
        in_subset = np.zeros(self.num_data, dtype=bool)
        in_subset[data_ids] = True
        local_of = np.full(self.num_data, -1, dtype=np.int64)
        local_of[data_ids] = np.arange(data_ids.size, dtype=np.int64)
        keep_edges = in_subset[self.q_indices]
        q = self.q_of_edge[keep_edges]
        d = local_of[self.q_indices[keep_edges]]
        # Compact query ids and drop low-degree queries.
        q_deg = np.bincount(q, minlength=self.num_queries)
        keep_q = q_deg >= min_query_degree
        keep2 = keep_q[q]
        q = q[keep2]
        d = d[keep2]
        new_q_ids = np.cumsum(keep_q) - 1
        q = new_q_ids[q]
        sub_weights = None
        if self.data_weights is not None:
            sub_weights = np.asarray(self.data_weights)[data_ids]
        sub_query_weights = None
        if self.query_weights is not None:
            sub_query_weights = np.asarray(self.query_weights)[keep_q]
        sub = BipartiteGraph.from_edges(
            q,
            d,
            num_queries=int(keep_q.sum()),
            num_data=int(data_ids.size),
            data_weights=sub_weights,
            query_weights=sub_query_weights,
            name=self.name,
            dedupe=False,
        )
        return sub, data_ids

    def edge_subsample(self, fraction: float, seed: int = 0) -> "BipartiteGraph":
        """Keep each (query, data) incidence independently with ``fraction``.

        This is the random-graph-ensemble construction behind probabilistic
        fanout (Section 3.1): removing edges independently with probability
        ``1 - fraction`` produces a member of the ensemble whose expected
        fanout p-fanout computes exactly.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        keep = rng.random(self.num_edges) < fraction
        return BipartiteGraph.from_edges(
            self.q_of_edge[keep],
            self.q_indices[keep],
            num_queries=self.num_queries,
            num_data=self.num_data,
            data_weights=self.data_weights,
            query_weights=self.query_weights,
            name=f"{self.name}~{fraction}",
            dedupe=False,
        )

    def clique_net_edges(
        self, max_pairs_per_query: int | None = None, seed: int = 0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand hyperedges into weighted clique edges over data vertices.

        Implements the clique-net model (Section 3.1 and Lemma 2): the weight
        of pair ``(u, v)`` is the number of queries adjacent to both.  For a
        query of degree ``r`` this creates ``r(r-1)/2`` pairs, so callers may
        cap the expansion per query (``max_pairs_per_query``) via sampling,
        mirroring the edge-sampling strategy of prior literature the paper
        references [4, 5, 10].

        Returns ``(u, v, w)`` arrays with ``u < v``.
        """
        rng = np.random.default_rng(seed)
        us: list[np.ndarray] = []
        vs: list[np.ndarray] = []
        for qid in range(self.num_queries):
            pins = self.query_neighbors(qid)
            r = pins.size
            if r < 2:
                continue
            total = r * (r - 1) // 2
            if max_pairs_per_query is not None and total > max_pairs_per_query:
                a = rng.integers(0, r, size=max_pairs_per_query)
                b = rng.integers(0, r - 1, size=max_pairs_per_query)
                b = np.where(b >= a, b + 1, b)
                pu, pv = pins[a], pins[b]
            else:
                iu, iv = np.triu_indices(r, k=1)
                pu, pv = pins[iu], pins[iv]
            lo = np.minimum(pu, pv)
            hi = np.maximum(pu, pv)
            us.append(lo)
            vs.append(hi)
        if not us:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), np.empty(0, dtype=np.float64)
        u = np.concatenate(us)
        v = np.concatenate(vs)
        key = u * self.num_data + v
        unique_key, weights = np.unique(key, return_counts=True)
        return (
            unique_key // self.num_data,
            unique_key % self.num_data,
            weights.astype(np.float64),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def memory_footprint_bytes(self) -> int:
        """Approximate resident size of the CSR arrays."""
        total = 0
        for arr in (self.q_indptr, self.q_indices, self.d_indptr, self.d_indices):
            total += arr.nbytes
        if self.data_weights is not None:
            total += np.asarray(self.data_weights).nbytes
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BipartiteGraph(name={self.name!r}, |Q|={self.num_queries}, "
            f"|D|={self.num_data}, |E|={self.num_edges})"
        )
