"""Reference kernels of one fused SHP-2 level, over the *dense* layout.

The production engine (:mod:`repro.core.level_fuse`) keeps the level's
``n_i(q)`` statistics pair-compact and evaluates gains in a group-sorted
rank space.  These two functions are the same mathematics over the plain
``|Q| × L`` counts matrix ``bucket_counts(graph, labels, L)`` with
``labels = 2 · group + side``: readable, layout-free, and what the unit
tests pin the production kernels against.  Moved out of ``src/`` in PR 14
(no ``src/`` function ever called them).
"""

from __future__ import annotations

import numpy as np

from repro.core.gains import gain_tables, segment_sums
from repro.hypergraph.bipartite import BipartiteGraph, csr_row_positions
from repro.objectives.base import SeparableObjective

__all__ = ["sibling_move_gains", "update_bucket_counts"]


def sibling_move_gains(
    graph: BipartiteGraph,
    labels: np.ndarray,
    counts: np.ndarray,
    objective: SeparableObjective,
    vertex_ids: np.ndarray,
    sibling: np.ndarray | None = None,
    edge_indptr: np.ndarray | None = None,
    edge_queries: np.ndarray | None = None,
    edge_vertices: np.ndarray | None = None,
    tables: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Gain of moving each listed vertex to its sibling virtual bucket.

    The level-fused SHP-2 engine restricts every vertex's move to the other
    side of its own bisection, so the |D| × L gain matrix collapses to one
    scalar per vertex:

        gain(v) = Σ_{q∈N(v)} w_q · (removal_gain(n_cur(q)) − insertion_cost(n_sib(q)))

    computed with per-edge gathers from the grouped ``counts`` matrix — cost
    ``O(Σ deg(v))`` and no dense |D| × L intermediate.  ``labels`` is the
    composite per-vertex virtual-bucket id; ``sibling`` defaults to
    ``labels ^ 1`` (paired even/odd columns).  Returns gains aligned with
    ``vertex_ids``.

    ``edge_indptr``/``edge_queries`` optionally substitute a *pruned* copy of
    the data→query CSR (same vertex indexing, fewer edges): the fused engine
    drops edges whose query has fewer than two pins inside the vertex's group
    pair, the level-static analogue of ``induced_subgraph``'s
    ``min_query_degree``.  Such a query contributes ``f(1) − f(0)`` to both
    the removal sum and the sibling insertion cost (``ScaledPFanout``
    linearizes to ``p`` at 0 for any ``t``), so its net gain is exactly zero
    for every shipped objective and the pruned result equals the full one; a
    future objective whose sibling columns disagree at n ∈ {0, 1} would
    break this equivalence.

    ``tables`` pre-supplies :func:`~repro.core.gains.gain_tables` output (reused across the
    iterations of a level when the objective is fixed).  ``edge_vertices``
    optionally pre-supplies the per-edge vertex ids of the (pruned) CSR,
    saving a repeat-expansion on the dense-active-set fast path.
    """
    vertex_ids = np.asarray(vertex_ids, dtype=np.int64)
    labels = np.asarray(labels)
    if vertex_ids.size == 0:
        return np.empty(0, dtype=np.float64)
    if edge_indptr is None:
        edge_indptr = graph.d_indptr
        edge_queries = graph.d_indices
    if tables is None:
        tables = gain_tables(objective, int(counts.max()), counts.shape[1])
    removal_table, insertion_table = tables
    num_vertices = edge_indptr.size - 1

    if 2 * vertex_ids.size >= num_vertices:
        # Dense active set: evaluate every edge once and segment-sum with
        # reduceat — no per-subset gather maps or variable-length repeats.
        total = int(edge_queries.size)
        if total == 0:
            return np.zeros(vertex_ids.size, dtype=np.float64)
        if edge_vertices is None:
            edge_vertices = np.repeat(
                np.arange(num_vertices, dtype=np.int64), np.diff(edge_indptr)
            )
        q_edge = edge_queries
        cur_edge = labels[edge_vertices]
        if sibling is None:
            sib_edge = cur_edge ^ 1
        else:
            sib_edge = np.asarray(sibling)[edge_vertices]
        value = (
            removal_table[counts[q_edge, cur_edge], cur_edge]
            - insertion_table[counts[q_edge, sib_edge], sib_edge]
        )
        if graph.query_weights is not None:
            value = value * np.asarray(graph.query_weights, dtype=np.float64)[q_edge]
        return segment_sums(value, edge_indptr[:-1], np.diff(edge_indptr))[vertex_ids]

    # Sparse active set: gather only the listed vertices' edges.
    positions, degrees = csr_row_positions(edge_indptr, vertex_ids)
    if positions.size == 0:
        return np.zeros(vertex_ids.size, dtype=np.float64)
    q_edge = edge_queries[positions]
    cur_edge = np.repeat(labels[vertex_ids], degrees)
    if sibling is None:
        sib_edge = cur_edge ^ 1
    else:
        sib_edge = np.repeat(np.asarray(sibling)[vertex_ids], degrees)
    value = (
        removal_table[counts[q_edge, cur_edge], cur_edge]
        - insertion_table[counts[q_edge, sib_edge], sib_edge]
    )
    if graph.query_weights is not None:
        value = value * np.asarray(graph.query_weights, dtype=np.float64)[q_edge]
    segment_starts = np.concatenate(([0], np.cumsum(degrees)[:-1]))
    return segment_sums(value, segment_starts, degrees)


def update_bucket_counts(
    counts: np.ndarray,
    graph: BipartiteGraph,
    moved_ids: np.ndarray,
    old_labels: np.ndarray,
    new_labels: np.ndarray,
    edge_indptr: np.ndarray | None = None,
    edge_queries: np.ndarray | None = None,
    return_queries: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """In-place incremental maintenance of a (grouped) counts matrix.

    After moving ``moved_ids[i]`` from ``old_labels[i]`` to ``new_labels[i]``,
    every incident query's count shifts one unit between the two columns.
    Scattering only the moved vertices' edges costs ``O(Σ deg(moved))``
    instead of the full ``O(|E|)`` rebuild.  This is the reference count
    maintenance for the dense ``bucket_counts(graph, labels, L)`` layout; the
    fused engine applies the same rule to its pair-compact specialization.

    ``edge_indptr``/``edge_queries`` optionally substitute a pruned data→query
    CSR (see :func:`sibling_move_gains`): entries of pruned
    queries then go stale in a way no reader observes — a pruned query has a
    single pin in the pair, both of whose columns are only read through
    pruned edges, and its per-query column *sum* (what level tracking reads)
    is side-invariant.

    With ``return_queries=True`` additionally returns the sorted unique
    query ids whose counts changed — the dirty set a caller can use to
    invalidate cached gains.
    """
    moved_ids = np.asarray(moved_ids, dtype=np.int64)
    empty_q = np.empty(0, dtype=np.int64)
    if moved_ids.size == 0:
        return (counts, empty_q) if return_queries else counts
    if edge_indptr is None:
        edge_indptr = graph.d_indptr
        edge_queries = graph.d_indices
    positions, degrees = csr_row_positions(edge_indptr, moved_ids)
    if positions.size == 0:
        return (counts, empty_q) if return_queries else counts
    q_edge = edge_queries[positions]
    np.subtract.at(counts, (q_edge, np.repeat(old_labels, degrees)), 1)
    np.add.at(counts, (q_edge, np.repeat(new_labels, degrees)), 1)
    if return_queries:
        touched = np.zeros(graph.num_queries, dtype=bool)
        touched[q_edge] = True
        return counts, np.flatnonzero(touched)
    return counts
