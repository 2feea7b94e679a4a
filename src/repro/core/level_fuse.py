"""Level-fused SHP-2: every bisection of a recursion level in one pass.

The paper's production variant runs *all* bucket-pair subproblems of a
recursion level concurrently in a single Giraph job (Sections 3.3-3.4).
Mirroring the recursion literally instead — one ``induced_subgraph`` copy
plus one refinement loop per group — means 127 sequential subproblem
setups at ``k = 128``, each scanning the full edge array to carve out its
subgraph; that path lives on only as the test oracle
(``tests/oracles/shp2_loop.py``).

This module is the in-process analogue of the paper's level-synchronous
plan.  Each vertex's state is a composite virtual-bucket label
``2 · group + side``, and one recursion level needs exactly one grouped
counts pass, one gain kernel, and one matcher invocation per iteration:

* **counts** — the ``n_i(q)`` statistics of all ``2G`` virtual buckets are
  held *pair-compact*: one slot per occupied (query, group) pair storing
  the even-side count next to the (level-invariant) pair total, so a
  single adjacent gather yields both ``n_cur`` and ``n_sib = total −
  n_cur``, applying a move is one ``±1`` scatter, and memory is bounded by
  ``O(|E|)`` regardless of ``|Q| · G``.  All hot loops run in a
  group-sorted *rank space*, so each group touches only its own slot
  range, keeping the working set cache-friendly the same way a per-group
  subgraph's small counts matrix would be.  The general dense layout is
  ``bucket_counts(graph, labels, 2G)``.
* **gains** — every vertex may only move to the sibling column of its own
  pair, so the |D| × 2G gain matrix collapses to a scalar per vertex,
  computed from tabulated objective values
  (:func:`~repro.core.gains.gain_tables`); the readable dense-layout
  reference of this kernel is ``tests/oracles/level_kernels.py``.  Gains are
  cached across iterations and recomputed only for vertices that share a
  query *and group* with a mover — a vertex's gain depends solely on its
  queries' counts in its own column pair.
* **matching** — the matchers' ``decide_paired`` fast path aggregates
  histogram cells in the dense ``source label × bin`` space; because
  sibling pairs are disjoint, best-first matching and ε-extras allocation
  decompose per group exactly as separate per-group calls would.

Two level-static structures make deep levels cheap: *edge pruning* drops
every edge whose query has fewer than two pins inside the vertex's group
pair (the pin count per pair is invariant while the level runs, and a
single-pin query nets exactly zero gain — the fused analogue of
``induced_subgraph``'s ``min_query_degree``), and objective/fanout
tracking is maintained by exact per-slot *deltas* at each iteration's
touched (query, group) slots, so tracking costs ``O(moved neighborhood)``
per iteration instead of ``O(|Q| · L)``.

Against the per-group oracle, which draws identical initial sides per seed
(the driver initializes before refining), the matcher RNG stream diverges —
one stream per level here versus one per group there — so assignments
agree statistically (equal balance, fanout parity pinned by
``tests/test_level_fuse.py``) rather than bitwise, except on levels with a
single refinable group (k ≤ 3), where the streams coincide and the parity
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..hypergraph.bipartite import (
    BipartiteGraph,
    csr_row_positions,
    ragged_positions,
    sorted_unique,
)
from .config import SHPConfig
from .gains import gain_tables, segment_sums
from .parallel_refine import (
    PARALLEL_MIN_RANKS,
    ParallelGainPool,
    block_pair_gains,
    split_ranks_by_edges,
)
from .partition import child_capacities
from .refinement import build_matcher, build_objective, enforce_weighted_caps
from .result import IterationStats

__all__ = ["LevelGroup", "refine_level_fused"]


@dataclass
class LevelGroup:
    """One bisection subproblem of a recursion level.

    ``data_ids`` are the group's vertices (original ids), ``side`` their
    current 0/1 child labels (warm-started or random, provided by the
    driver), and ``left_span``/``right_span`` the number of final buckets
    each child still owns.
    """

    data_ids: np.ndarray
    side: np.ndarray
    left_span: int
    right_span: int
    #: filled by :func:`refine_level_fused`: final 0/1 side per vertex.
    final_side: np.ndarray | None = field(default=None, repr=False)


class _LevelTracker:
    """Incremental per-level objective/fanout tracking by exact pair deltas.

    Level value = (weighted) mean over queries of ``Σ_col f(n_col(q))`` over
    the level's ``2G`` columns.  The total splits into a *static* part
    (each single-pin pair contributes the side-invariant ``f(1)``) and a
    live part, seeded once from the kept edges via the identity
    ``Σ_col f(n) = Σ_edges f(n(edge)) / n(edge)`` and then advanced with
    exact table deltas at each iteration's touched (query, group) slots.
    """

    def __init__(self, objective, num_labels, max_count, norm):
        n_grid = np.broadcast_to(
            np.arange(max_count + 1, dtype=np.int64)[:, None],
            (max_count + 1, num_labels),
        )
        col_grid = np.broadcast_to(
            np.arange(num_labels, dtype=np.int64)[None, :],
            (max_count + 1, num_labels),
        )
        self.table = np.ascontiguousarray(objective.contribution_at(n_grid, col_grid))
        self.inverse_n = 1.0 / np.maximum(np.arange(max_count + 1), 1)
        self.norm = norm
        self.value_total = 0.0
        self.nonzero_total = 0.0

    def seed(self, n, cols, weights, static_value, static_nonzero):
        contributions = self.table[n, cols] * self.inverse_n[n]
        inverse = self.inverse_n[n]
        if weights is None:
            self.value_total = float(contributions.sum()) + static_value
            self.nonzero_total = float(inverse.sum()) + static_nonzero
        else:
            self.value_total = float((contributions * weights).sum()) + static_value
            self.nonzero_total = float((inverse * weights).sum()) + static_nonzero

    def apply_deltas(self, even_before, even_after, totals, cols_even, weights):
        t = self.table
        value_delta = (
            t[even_after, cols_even]
            - t[even_before, cols_even]
            + t[totals - even_after, cols_even + 1]
            - t[totals - even_before, cols_even + 1]
        )
        nonzero_delta = (
            (even_after > 0).astype(np.float64)
            - (even_before > 0)
            + (totals > even_after)
            - (totals > even_before)
        )
        if weights is None:
            self.value_total += float(value_delta.sum())
            self.nonzero_total += float(nonzero_delta.sum())
        else:
            self.value_total += float((value_delta * weights).sum())
            self.nonzero_total += float((nonzero_delta * weights).sum())

    def metrics(self):
        return self.value_total / self.norm, self.nonzero_total / self.norm


def refine_level_fused(
    graph: BipartiteGraph,
    config: SHPConfig,
    groups: list[LevelGroup],
    eps_eff: float,
    rng: np.random.Generator,
    pool: ParallelGainPool | None = None,
) -> tuple[list[IterationStats], bool]:
    """Refine every bisection of one recursion level simultaneously.

    Mutates each :class:`LevelGroup` in ``groups``, filling ``final_side``.
    Returns ``(per-iteration stats, converged)`` where ``converged`` means
    every refinable group's moved fraction dropped below the threshold
    within the iteration budget.

    When ``pool`` is given (``refine_workers > 1``), the gain kernel runs
    block-parallel in the pool's worker processes over a shared-memory
    segment published per level; everything order-sensitive (matcher RNG,
    move application) stays on the master, so assignments and objective
    trajectories are bitwise-identical to the serial path per seed — see
    :mod:`repro.core.parallel_refine` for the merge argument.
    """
    history: list[IterationStats] = []
    for group in groups:
        group.final_side = np.asarray(group.side, dtype=np.int32)
    # Groups too small to refine keep their initial sides; they never
    # enter the rank space.
    refinable = [g for g in groups if g.data_ids.size > 2]
    if not refinable or graph.num_queries == 0:
        return history, True

    num_data = graph.num_data
    num_queries = graph.num_queries
    num_groups = len(refinable)
    num_labels = 2 * num_groups
    data_weights = None if graph.data_weights is None else graph.weights_or_unit()
    total_weight = (
        float(num_data) if data_weights is None else float(data_weights.sum())
    )
    per_leaf_target = total_weight / config.k

    # Rank space: the refinable groups' vertices concatenated group-major.
    # Rank r maps to vertex ordered_vertices[r]; each group is a contiguous
    # rank block, so group-local work stays contiguous in every hot array.
    ordered_vertices = np.concatenate([g.data_ids for g in refinable])
    n_ranks = ordered_vertices.size
    group_sizes = np.array([g.data_ids.size for g in refinable], dtype=np.int64)
    block_bounds = np.concatenate(([0], np.cumsum(group_sizes)))
    rank_group = np.repeat(np.arange(num_groups, dtype=np.int64), group_sizes)
    rank_side = np.concatenate(
        [np.asarray(g.final_side, dtype=np.int64) for g in refinable]
    )
    rank_labels = 2 * rank_group + rank_side
    rank_weights = None if data_weights is None else data_weights[ordered_vertices]
    rank_of_vertex = np.full(num_data, -1, dtype=np.int64)
    rank_of_vertex[ordered_vertices] = np.arange(n_ranks, dtype=np.int64)

    caps = np.zeros(num_labels, dtype=np.float64)
    splits = np.ones(num_labels, dtype=np.float64)
    for g, group in enumerate(refinable):
        splits[2 * g] = group.left_span
        splits[2 * g + 1] = group.right_span
        spans = np.array([group.left_span, group.right_span], dtype=np.float64)
        if data_weights is None:
            group_total: float = float(group.data_ids.size)
            granularity = None
        else:
            w_group = data_weights[group.data_ids]
            group_total = float(w_group.sum())
            granularity = float(w_group.max())
        caps[2 * g : 2 * g + 2] = child_capacities(
            spans, eps_eff, per_leaf_target, group_total, granularity=granularity
        )

    objective = build_objective(
        config, splits_ahead=splits if config.use_final_pfanout else None
    )
    matcher = build_matcher(config)
    track = config.track_metrics

    # Pair-compact, group-major counts.  A *slot* is an occupied
    # (query, group) pair; one argsort of the valid incidences by raw slot
    # key yields the compact slot ids, the per-slot pin totals, the pruning
    # mask, and the slot→ranks dirty index in a single pass, so memory stays
    # O(|E|) instead of the dense O(|Q| · G) slot space.  Each slot stores
    # the even-side count next to its level-invariant pin total, so one
    # adjacent gather yields both sides.
    d_vertex = graph.d_of_edge
    d_query = graph.d_indices
    edge_rank = rank_of_vertex[d_vertex]
    valid_idx = np.flatnonzero(edge_rank >= 0)
    v_rank = edge_rank[valid_idx]
    v_query = d_query[valid_idx]
    v_slot_raw = rank_group[v_rank] * num_queries + v_query
    valid_order = np.argsort(v_slot_raw, kind="stable")
    sorted_raw = v_slot_raw[valid_order]
    slot_first = (
        np.concatenate(([True], sorted_raw[1:] != sorted_raw[:-1]))
        if sorted_raw.size
        else np.empty(0, dtype=bool)
    )
    slot_of_sorted = np.cumsum(slot_first) - 1
    num_slots = int(slot_of_sorted[-1]) + 1 if sorted_raw.size else 0
    slot_ids = sorted_raw[slot_first]
    v_slot = np.empty(v_rank.size, dtype=np.int64)
    v_slot[valid_order] = slot_of_sorted
    slot_total = np.bincount(v_slot, minlength=num_slots)
    v_even = rank_labels[v_rank] % 2 == 0
    pair_counts = np.empty((num_slots, 2), dtype=np.int32)
    pair_counts[:, 0] = np.bincount(v_slot[v_even], minlength=num_slots)
    pair_counts[:, 1] = slot_total
    pc = pair_counts.ravel()
    slot_col_even = 2 * (slot_ids // num_queries)
    slot_query = slot_ids % num_queries

    # Level-static edge pruning — the fused analogue of induced_subgraph's
    # min_query_degree drop: a query's pin count inside a group *pair* is
    # invariant while the level runs (moves only flip sides), and a
    # single-pin query nets exactly zero gain, so its edges need never be
    # gathered.  Kept edges are materialized group-major (rank order).
    keep_v = slot_total[v_slot] >= 2
    kept_rank_unordered = v_rank[keep_v]
    rank_degrees = np.bincount(kept_rank_unordered, minlength=n_ranks)
    rank_indptr = np.concatenate(([0], np.cumsum(rank_degrees)))
    rank_order = np.argsort(kept_rank_unordered, kind="stable")
    gm_slot = v_slot[keep_v][rank_order]
    gm_slot2 = 2 * gm_slot
    gm_col_even = np.repeat(2 * rank_group, rank_degrees)
    gm_qw = None
    if graph.query_weights is not None:
        gm_qw = np.asarray(graph.query_weights, dtype=np.float64)[
            v_query[keep_v][rank_order]
        ]
    # Kept edges in slot order (a filtered view of the valid-edge sort):
    # dirty-gain invalidation resolves a touched slot to its member ranks
    # with two binary searches.
    keep_sorted = keep_v[valid_order]
    slot_sorted_keys = slot_of_sorted[keep_sorted]
    slot_sorted_ranks = v_rank[valid_order][keep_sorted]

    max_count = int(graph.query_degrees.max())
    removal_table, insertion_table = gain_tables(objective, max_count, num_labels)

    def pair_gains(ranks):
        """Sibling-move gain for the listed ranks (group-major gathers).

        Layout-specialized twin of the dense-layout reference kernel in
        ``tests/oracles/level_kernels.py``: identical table values per kept
        edge.  ``test_fused_gains_match_reference`` pins the two — bitwise
        for the unweighted current-level objective, to rounding (≤ 1e-12)
        otherwise, because the reference also sums the pruned single-pin
        edges, whose net contribution is a rounding-level non-zero rather
        than an exact 0.0.  The full-set fast path skips the position
        gather; subsets delegate to the shared
        :func:`~repro.core.parallel_refine.block_pair_gains` kernel the
        pool workers run, and per-rank values are bitwise-equal on both
        paths (each rank's segment has identical contents either way —
        pinned by ``test_parallel_refine``).
        """
        if ranks.size != n_ranks:
            return block_pair_gains(
                ranks, rank_indptr, rank_side, pc, gm_slot2, gm_col_even,
                gm_qw, removal_table, insertion_table,
            )
        lengths = rank_degrees
        starts = rank_indptr[:-1]
        side_edge = np.repeat(rank_side, lengths)
        even = pc[gm_slot2]
        total = pc[gm_slot2 + 1]
        n_cur = np.where(side_edge == 0, even, total - even)
        n_sib = total - n_cur
        col_cur = gm_col_even + side_edge
        value = removal_table[n_cur, col_cur] - insertion_table[n_sib, col_cur ^ 1]
        if gm_qw is not None:
            value = value * gm_qw
        return segment_sums(value, starts, lengths)

    tracker = None
    if track in ("objective", "full"):
        norm = (
            float(max(1, num_queries))
            if graph.query_weights is None
            else max(float(np.asarray(graph.query_weights, np.float64).sum()), 1e-300)
        )
        tracker = _LevelTracker(objective, num_labels, max_count, norm)
        f1 = float(tracker.table[1, 0])
        if graph.query_weights is None:
            singles = float((~keep_v).sum())
            static_value = f1 * singles
            static_nonzero = singles
        else:
            w_singles = float(
                np.asarray(graph.query_weights, np.float64)[v_query[~keep_v]].sum()
            )
            static_value = f1 * w_singles
            static_nonzero = w_singles
        side_all = np.repeat(rank_side, rank_degrees)
        even = pc[gm_slot2]
        total = pc[gm_slot2 + 1]
        n_all = np.where(side_all == 0, even, total - even)
        tracker.seed(
            n_all, gm_col_even + side_all, gm_qw, static_value, static_nonzero,
        )

    active = np.ones(num_groups, dtype=bool)
    active_ranks = np.arange(n_ranks, dtype=np.int64)
    rank_active = np.ones(n_ranks, dtype=bool)
    gain_cache = np.zeros(n_ranks, dtype=np.float64)
    recompute = active_ranks

    # Block-parallel gains: publish the level's kernel arrays to the pool
    # workers and rebind the mutable run state (counts, sides, gain cache,
    # work buffer) to writeable views into the shared segment, so the
    # master's in-place move updates are visible at every gains barrier.
    # Levels below the dispatch threshold stay serial — same bits either
    # way, the segment would be pure overhead.
    shared = None
    work_buf = None
    if pool is not None and n_ranks >= PARALLEL_MIN_RANKS:
        level_arrays = {
            "rank_indptr": rank_indptr,
            "gm_slot2": gm_slot2,
            "gm_col_even": gm_col_even,
            "removal_table": removal_table,
            "insertion_table": insertion_table,
            "pc": pc,
            "rank_side": rank_side,
            "gain_cache": gain_cache,
            "work_buf": np.zeros(n_ranks, dtype=np.int64),
        }
        if gm_qw is not None:
            level_arrays["gm_qw"] = gm_qw
        shared = pool.publish_level(level_arrays, has_qw=gm_qw is not None)
        pc = shared["pc"]
        rank_side = shared["rank_side"]
        gain_cache = shared["gain_cache"]
        work_buf = shared["work_buf"]
    sizes = np.bincount(rank_labels, weights=rank_weights, minlength=num_labels)
    if data_weights is None:
        sizes = sizes.astype(np.int64)
    slot_weights = (
        None
        if graph.query_weights is None
        else np.asarray(graph.query_weights, dtype=np.float64)
    )
    for iteration in range(1, config.iterations_per_bisection + 1):
        if recompute.size:
            if work_buf is not None and recompute.size >= PARALLEL_MIN_RANKS:
                # Ascending-block dispatch: the sorted dirty set goes into
                # the shared work buffer, each worker evaluates one
                # contiguous edge-balanced block and scatters into its own
                # disjoint slice of gain_cache — the deterministic merge.
                work_buf[: recompute.size] = recompute
                pool.compute_gains(
                    split_ranks_by_edges(recompute, rank_indptr, pool.num_workers)
                )
            else:
                gain_cache[recompute] = pair_gains(recompute)
        gain = gain_cache[active_ranks]
        if config.move_penalty > 0.0:
            gain = gain - config.move_penalty
        src = rank_labels[active_ranks]
        decision = matcher.decide_paired(src, gain, num_labels, sizes, caps, rng)
        move = decision.move
        if data_weights is not None:
            move = enforce_weighted_caps(
                move, src, src ^ 1, gain, rank_weights[active_ranks], sizes, caps
            )
        moved_ranks = active_ranks[move]
        old_labels = rank_labels[moved_ranks]
        new_labels = old_labels ^ 1
        rank_labels[moved_ranks] = new_labels
        rank_side[moved_ranks] ^= 1

        # Apply moves: one ±1 scatter on the even slots, incremental sizes,
        # exact tracking deltas at the touched (query, group) slots.
        moved_positions, moved_lengths = csr_row_positions(rank_indptr, moved_ranks)
        touched_slots = np.empty(0, dtype=np.int64)
        if moved_positions.size:
            touched_slots = sorted_unique(gm_slot[moved_positions])
            even_before = pc[2 * touched_slots].copy()
            delta = np.repeat(1 - 2 * (new_labels & 1), moved_lengths)
            np.add.at(pc, gm_slot2[moved_positions], delta.astype(np.int32))
        if moved_ranks.size:
            moved_weights = None if rank_weights is None else rank_weights[moved_ranks]
            outflow = np.bincount(old_labels, weights=moved_weights, minlength=num_labels)
            inflow = np.bincount(new_labels, weights=moved_weights, minlength=num_labels)
            if data_weights is None:
                sizes = sizes - outflow.astype(np.int64) + inflow.astype(np.int64)
            else:
                sizes = sizes - outflow + inflow
        if tracker is not None and touched_slots.size:
            tracker.apply_deltas(
                even_before,
                pc[2 * touched_slots],
                pc[2 * touched_slots + 1],
                slot_col_even[touched_slots],
                None if slot_weights is None
                else slot_weights[slot_query[touched_slots]],
            )

        moved = int(moved_ranks.size)
        active_total = int(active_ranks.size)
        fraction = moved / active_total if active_total else 0.0
        value = None
        fanout_value = None
        if tracker is not None:
            value, level_fanout = tracker.metrics()
            if track == "full":
                fanout_value = level_fanout
        history.append(
            IterationStats(
                iteration=iteration,
                moved=moved,
                moved_fraction=fraction,
                objective_value=value,
                fanout=fanout_value,
            )
        )

        # Per-group convergence: a bisection whose own moved fraction drops
        # below the threshold stops proposing (its vertices freeze at their
        # current side).
        moved_per_group = np.bincount(rank_group[moved_ranks], minlength=num_groups)
        settled = active & (moved_per_group / group_sizes < config.convergence_fraction)
        if settled.any():
            active &= ~settled
            if not active.any():
                break
            starts = block_bounds[:-1][active]
            active_ranks = ragged_positions(starts, block_bounds[1:][active] - starts)
            rank_active[:] = False
            rank_active[active_ranks] = True

        # Invalidate cached gains around this iteration's moves: exactly the
        # still-active ranks sharing a touched (query, group) slot — a
        # vertex's gain only reads its queries' counts in its own pair, so
        # neighbors through other groups stay clean.
        recompute = np.empty(0, dtype=np.int64)
        if touched_slots.size:
            range_start = np.searchsorted(slot_sorted_keys, touched_slots, side="left")
            range_end = np.searchsorted(
                slot_sorted_keys, touched_slots + 1, side="left"
            )
            members = slot_sorted_ranks[ragged_positions(range_start, range_end - range_start)]
            dirty = np.zeros(n_ranks, dtype=bool)
            dirty[members] = True
            dirty &= rank_active
            recompute = np.flatnonzero(dirty)

    if shared is not None:
        # Drop every master view into the level segment before the pool
        # unlinks it (live exported buffers keep the mapping alive);
        # rank_side survives as a copy for the final_side extraction.
        rank_side = rank_side.copy()
        pc = gain_cache = work_buf = shared = None
        pool.drop_level()

    for g, group in enumerate(refinable):
        group.final_side = rank_side[block_bounds[g] : block_bounds[g + 1]].astype(
            np.int32
        )
    return history, not active.any()
