"""Vectorized move-gain computation (Eq. 1 generalized to any objective).

For data vertex ``v`` in bucket ``i``, the gain (objective *reduction*) of
moving to bucket ``j`` is

    gain_j(v) = Σ_{q∈N(v)} removal_gain(n_i(q)) − insertion_cost(n_j(q))
              = Rsum(v) − Acost(v, j)

``Rsum`` depends only on v's current bucket (one gather over the data→query
edges plus a segment sum); ``Acost`` is a sparse-matrix product
``Adj_{D×Q} @ insertion_cost(counts)`` computed in row blocks so peak memory
stays bounded regardless of |D| · k.  This mirrors the distributed plan: the
``counts`` matrix is the query "neighbor data" of superstep 1, and ``Acost``
aggregation is superstep 2's neighbor-data scatter.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..hypergraph.bipartite import BipartiteGraph
from ..objectives.base import SeparableObjective

__all__ = [
    "data_query_matrix",
    "move_gains_dense",
    "best_moves",
    "count_column_grids",
    "gain_tables",
    "segment_sums",
]

_DQ_CACHE_ATTR = "_cached_dq_matrix"


def data_query_matrix(graph: BipartiteGraph) -> sparse.csr_matrix:
    """|D| × |Q| sparse incidence matrix (cached on the graph instance).

    :class:`BipartiteGraph` arrays are immutable *by convention* — algorithms
    never write into them — but nothing stops a caller from rebinding
    ``graph.d_indptr``/``graph.d_indices`` to different arrays (e.g. when
    re-using a graph object as a container).  The cache therefore stores the
    exact array objects it was built from and revalidates with ``is`` (the
    stored references also keep those ids alive, so identity cannot be
    recycled): rebinding invalidates the cached matrix instead of silently
    serving gains for the old topology.  In-place element writes remain
    undetectable and are outside the contract.
    """
    cached = getattr(graph, _DQ_CACHE_ATTR, None)
    if cached is not None:
        indptr, indices, num_data, num_queries, matrix = cached
        if (
            indptr is graph.d_indptr
            and indices is graph.d_indices
            and num_data == graph.num_data
            and num_queries == graph.num_queries
        ):
            return matrix
    matrix = sparse.csr_matrix(
        (
            np.ones(graph.d_indices.size, dtype=np.float64),
            graph.d_indices.astype(np.int64),
            graph.d_indptr.astype(np.int64),
        ),
        shape=(graph.num_data, graph.num_queries),
    )
    object.__setattr__(
        graph,
        _DQ_CACHE_ATTR,
        (graph.d_indptr, graph.d_indices, graph.num_data, graph.num_queries, matrix),
    )
    return matrix


def _removal_sums(
    graph: BipartiteGraph,
    assignment: np.ndarray,
    removal_matrix: np.ndarray,
    query_weights: np.ndarray | None,
) -> np.ndarray:
    """Σ_{q∈N(v)} w_q · removal_gain(n_{b(v)}(q)) for every data vertex v."""
    bucket_of_edge = assignment[graph.d_of_edge]
    rem_edge = removal_matrix[graph.d_indices, bucket_of_edge]
    if query_weights is not None:
        rem_edge = rem_edge * query_weights[graph.d_indices]
    csum = np.concatenate(([0.0], np.cumsum(rem_edge)))
    return csum[graph.d_indptr[1:]] - csum[graph.d_indptr[:-1]]


def move_gains_dense(
    graph: BipartiteGraph,
    assignment: np.ndarray,
    counts: np.ndarray,
    objective: SeparableObjective,
) -> np.ndarray:
    """Full |D| × k gain matrix (testing / small graphs only).

    ``gains[v, assignment[v]]`` is set to 0 (staying is not a move).
    """
    weights = (
        None if graph.query_weights is None else graph.query_weights_or_unit()
    )
    insertion = objective.insertion_cost(counts)
    removal = objective.removal_gain(counts)
    if weights is not None:
        insertion = insertion * weights[:, None]
    rsum = _removal_sums(graph, assignment, removal, weights)
    acost = data_query_matrix(graph) @ insertion
    gains = rsum[:, None] - acost
    gains[np.arange(graph.num_data), assignment] = 0.0
    return gains


def best_moves(
    graph: BipartiteGraph,
    assignment: np.ndarray,
    counts: np.ndarray,
    objective: SeparableObjective,
    block_rows: int = 16384,
) -> tuple[np.ndarray, np.ndarray]:
    """Best target bucket and its gain for every data vertex.

    Returns ``(gain, target)`` arrays of shape (|D|,).  The own bucket is
    excluded from the argmax.  Row-blocked so peak memory is
    ``O(block_rows · k + |Q| · k)``.
    """
    num_data = graph.num_data
    weights = (
        None if graph.query_weights is None else graph.query_weights_or_unit()
    )
    insertion = objective.insertion_cost(counts)
    removal = objective.removal_gain(counts)
    if weights is not None:
        insertion = insertion * weights[:, None]
    rsum = _removal_sums(graph, assignment, removal, weights)
    adj = data_query_matrix(graph)

    best_gain = np.empty(num_data, dtype=np.float64)
    best_target = np.empty(num_data, dtype=np.int32)
    for start in range(0, num_data, block_rows):
        stop = min(start + block_rows, num_data)
        acost = adj[start:stop] @ insertion
        gains = rsum[start:stop, None] - acost
        rows = np.arange(stop - start)
        gains[rows, assignment[start:stop]] = -np.inf
        targets = np.argmax(gains, axis=1)
        best_target[start:stop] = targets.astype(np.int32)
        best_gain[start:stop] = gains[rows, targets]
    return best_gain, best_target


def segment_sums(
    value: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Per-segment sums of ``value`` for segments ``[starts[i], starts[i] + lengths[i])``.

    ``np.add.reduceat`` over the non-empty segments only: clipping an
    empty trailing segment's start into range would instead split the last
    non-empty segment and silently drop its final element's contribution.
    Empty segments sum to 0.
    """
    sums = np.zeros(lengths.size, dtype=np.float64)
    if value.size == 0:
        return sums
    nonempty = lengths > 0
    if nonempty.all():
        return np.add.reduceat(value, starts)
    sums[nonempty] = np.add.reduceat(value, starts[nonempty])
    return sums


def count_column_grids(max_count: int, num_labels: int) -> tuple[np.ndarray, np.ndarray]:
    """``(count, column)`` index grids of shape ``(max_count + 1, num_labels)``.

    Separable objectives are functions of the small integer ``n_i(q)`` and
    (at most) the bucket column, so a kernel can replace per-edge
    transcendental evaluation with gathers from a table evaluated once on
    these grids — valid for any :class:`SeparableObjective`.
    """
    shape = (max_count + 1, num_labels)
    counts = np.broadcast_to(np.arange(max_count + 1, dtype=np.int64)[:, None], shape)
    columns = np.broadcast_to(np.arange(num_labels, dtype=np.int64)[None, :], shape)
    return counts, columns


def gain_tables(
    objective: SeparableObjective, max_count: int, num_labels: int
) -> tuple[np.ndarray, np.ndarray]:
    """Tabulated ``(removal_gain, insertion_cost)`` over (count, column)."""
    grids = count_column_grids(max_count, num_labels)
    removal = np.ascontiguousarray(objective.removal_gain(*grids))
    insertion = np.ascontiguousarray(objective.insertion_cost(*grids))
    return removal, insertion
