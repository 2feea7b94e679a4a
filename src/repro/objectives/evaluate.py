"""Partition quality evaluation: fanout, p-fanout, SOED, cut, imbalance.

These are *metrics* (reported in every experiment table), distinct from the
optimization objectives: SOED and hyperedge cut are not separable per bucket
so SHP optimizes them through a p-fanout surrogate, but we always report
them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hypergraph.bipartite import BipartiteGraph, GraphValidationError

__all__ = [
    "bucket_counts",
    "compact_cell_sums",
    "objective_value",
    "average_fanout",
    "average_pfanout",
    "soed",
    "hyperedge_cut",
    "weighted_edge_cut",
    "imbalance",
    "PartitionQuality",
    "evaluate_partition",
]


def bucket_counts(graph: BipartiteGraph, assignment: np.ndarray, k: int) -> np.ndarray:
    """Dense |Q| × k matrix of ``n_i(q)`` neighbor counts.

    This is the "query neighbor data" of the paper's superstep 1, computed
    with one vectorized bincount over composite (query, bucket) keys.
    """
    assignment = np.asarray(assignment)
    if assignment.shape[0] != graph.num_data:
        raise ValueError("assignment length must equal num_data")
    key = graph.q_of_edge * np.int64(k) + assignment[graph.q_indices].astype(np.int64)
    flat = np.bincount(key, minlength=graph.num_queries * k)
    return flat.reshape(graph.num_queries, k).astype(np.int32)


def compact_cell_sums(
    cells: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sparse per-cell float sums: the pair-compact aggregation contract.

    Returns ``(occupied_cells, sums)`` with ``occupied_cells`` ascending —
    the sparse equivalent of ``np.bincount(cells, weights).reshape(...)``
    for composite ``row · k + column`` keys, with memory bounded by the
    number of *occupied* cells instead of the dense ``rows × k`` grid.
    Distributed S3 gain aggregation uses this for large ``level_k``
    (:mod:`repro.distributed_shp.columnar`).

    Bitwise contract: each cell's sum equals the dense bincount's bit for
    bit.  The stable sort keeps equal cells in input order and the
    bincount over compacted ids adds each cell's entries sequentially
    left-to-right — exactly the accumulation order of the dense path
    (and of the dict path's sorted-neighbor iteration).
    """
    if cells.size == 0:
        return cells.astype(np.int64), np.zeros(0, dtype=np.float64)
    order = np.argsort(cells, kind="stable")
    sorted_cells = cells[order]
    first = np.empty(sorted_cells.size, dtype=bool)
    first[0] = True
    first[1:] = sorted_cells[1:] != sorted_cells[:-1]
    compact = np.cumsum(first) - 1
    sums = np.bincount(compact, weights=weights[order])
    return sorted_cells[first].astype(np.int64), sums


def _weighted_row_mean(per_query: np.ndarray, graph: BipartiteGraph) -> float:
    """Mean over queries, traffic-weighted when the graph carries weights."""
    if graph.query_weights is None:
        return float(per_query.mean()) if per_query.size else 0.0
    weights = graph.query_weights_or_unit()
    total = float(weights.sum())
    return float((per_query * weights).sum() / total) if total > 0 else 0.0


def objective_value(
    objective, counts: np.ndarray, query_weights: np.ndarray | None = None
) -> float:
    """Per-query (optionally traffic-weighted) mean of Σ_i f(n_i(q))."""
    if counts.size == 0:
        return 0.0
    per_query = objective.contribution(counts).sum(axis=1)
    if query_weights is None:
        return float(per_query.mean())
    total = float(np.sum(query_weights))
    return float((per_query * query_weights).sum() / total) if total > 0 else 0.0


def average_fanout(
    graph: BipartiteGraph, assignment: np.ndarray, k: int, counts: np.ndarray | None = None
) -> float:
    """Average query fanout: mean number of distinct buckets touched.

    Traffic-weighted when the graph carries ``query_weights``.
    """
    if graph.num_queries == 0:
        return 0.0
    if counts is None:
        counts = bucket_counts(graph, assignment, k)
    return _weighted_row_mean((counts > 0).sum(axis=1).astype(np.float64), graph)


def average_pfanout(
    graph: BipartiteGraph,
    assignment: np.ndarray,
    k: int,
    p: float = 0.5,
    counts: np.ndarray | None = None,
) -> float:
    """Average probabilistic fanout at probability ``p``."""
    if graph.num_queries == 0:
        return 0.0
    if counts is None:
        counts = bucket_counts(graph, assignment, k)
    if p >= 1.0:
        return average_fanout(graph, assignment, k, counts=counts)
    per_query = (1.0 - np.power(1.0 - p, counts)).sum(axis=1)
    return _weighted_row_mean(per_query, graph)


def soed(
    graph: BipartiteGraph, assignment: np.ndarray, k: int, counts: np.ndarray | None = None
) -> float:
    """Sum of external degrees, normalized per query.

    SOED(q) = fanout(q) + [fanout(q) > 1]; equivalently the communication
    volume plus the hyperedge cut (paper footnote 2).
    """
    if graph.num_queries == 0:
        return 0.0
    if counts is None:
        counts = bucket_counts(graph, assignment, k)
    fanouts = (counts > 0).sum(axis=1)
    return _weighted_row_mean((fanouts + (fanouts > 1)).astype(np.float64), graph)


def hyperedge_cut(
    graph: BipartiteGraph, assignment: np.ndarray, k: int, counts: np.ndarray | None = None
) -> float:
    """Fraction of queries spanning more than one bucket."""
    if graph.num_queries == 0:
        return 0.0
    if counts is None:
        counts = bucket_counts(graph, assignment, k)
    fanouts = (counts > 0).sum(axis=1)
    return _weighted_row_mean((fanouts > 1).astype(np.float64), graph)


def weighted_edge_cut(
    graph: BipartiteGraph, assignment: np.ndarray, k: int, counts: np.ndarray | None = None
) -> float:
    """Clique-net weighted edge cut: co-queried data pairs split apart.

    Traffic-weighted when the graph carries ``query_weights``: each query's
    split-pair count is scaled by its weight, consistent with every other
    metric (an unweighted graph reproduces the plain pair count).
    """
    if counts is None:
        counts = bucket_counts(graph, assignment, k)
    c = counts.astype(np.float64)
    deg = c.sum(axis=1)
    per_query = 0.5 * (deg * (deg - 1.0)) - 0.5 * (c * (c - 1.0)).sum(axis=1)
    if graph.query_weights is None:
        return float(per_query.sum())
    return float((per_query * graph.query_weights_or_unit()).sum())


def imbalance(
    assignment: np.ndarray, k: int, weights: np.ndarray | None = None
) -> float:
    """Relative imbalance: ``max_i w(V_i) / (w(D)/k) − 1`` (0 = perfect)."""
    assignment = np.asarray(assignment)
    if weights is None:
        sizes = np.bincount(assignment, minlength=k).astype(np.float64)
    else:
        sizes = np.bincount(assignment, weights=np.asarray(weights, dtype=np.float64), minlength=k)
    total = sizes.sum()
    if total == 0:
        return 0.0
    return float(sizes.max() / (total / k) - 1.0)


@dataclass(frozen=True)
class PartitionQuality:
    """All standard metrics for one partition, as reported in Section 4."""

    k: int
    fanout: float
    pfanout_05: float
    soed: float
    hyperedge_cut: float
    weighted_edge_cut: float
    imbalance: float

    def row(self) -> dict[str, object]:
        return {
            "k": self.k,
            "fanout": round(self.fanout, 4),
            "p-fanout(0.5)": round(self.pfanout_05, 4),
            "SOED": round(self.soed, 4),
            "cut": round(self.hyperedge_cut, 4),
            "edge-cut": round(self.weighted_edge_cut, 1),
            "imbalance": round(self.imbalance, 4),
        }


def evaluate_partition(
    graph: BipartiteGraph, assignment: np.ndarray, k: int
) -> PartitionQuality:
    """Evaluate every standard metric at once (counts computed once).

    Raises :class:`~repro.hypergraph.GraphValidationError` when any bucket
    id falls outside ``[0, k)`` — such an id would silently scramble the
    composite-key bincount in :func:`bucket_counts` (entries spill into a
    neighboring query's row) and every metric derived from it.
    """
    assignment = np.asarray(assignment)
    if k < 1:
        raise GraphValidationError(f"k must be at least 1, got {k}")
    if assignment.size:
        low = int(assignment.min())
        high = int(assignment.max())
        if low < 0 or high >= k:
            bad = low if low < 0 else high
            raise GraphValidationError(
                f"assignment contains bucket id {bad} outside [0, {k})"
            )
    counts = bucket_counts(graph, assignment, k)
    return PartitionQuality(
        k=k,
        fanout=average_fanout(graph, assignment, k, counts=counts),
        pfanout_05=average_pfanout(graph, assignment, k, p=0.5, counts=counts),
        soed=soed(graph, assignment, k, counts=counts),
        hyperedge_cut=hyperedge_cut(graph, assignment, k, counts=counts),
        weighted_edge_cut=weighted_edge_cut(graph, assignment, k, counts=counts),
        imbalance=imbalance(assignment, k, weights=None if graph.data_weights is None else graph.weights_or_unit()),
    )
