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
  ``bucket_counts(graph, labels, 2G)``.  Slots are numbered — ascending
  (group, query) — by one sort of the level's pins, which come straight off
  the refinable vertices' rows; the sort need not be stable, because
  everything read from it is per key and the pins of one slot only ever
  name the ranks to mark dirty (:func:`_slot_order`).
* **gains** — every vertex may only move to the sibling column of its own
  pair, so the |D| × 2G gain matrix collapses to a scalar per vertex, and
  that scalar is a *sum of slot values*.  The Eq. 1 term
  ``removal_gain(n_cur(q)) − insertion_cost(n_sib(q))`` is a function of
  the query's counts in the pair alone — what §3.1's query vertex sends to
  all of its data neighbors in superstep 2 — so it is evaluated once per
  (slot, side) from tabulated objective values
  (:func:`~repro.core.gains.gain_tables`, as tall as the level's largest
  slot) into ``slot_value``, and a kept pin is one int, ``2 · slot +
  side``, that indexes it: a gain is one index gather, one value gather
  and one segmented sum.  A move updates exactly what it changed — a
  ``±1`` on its slots' even counts, a flip of the low bit of its own pins'
  indices, and, after the scatter, fresh values for the touched slots —
  and only vertices that share a query *and group* with a mover re-sum
  (a vertex's gain depends solely on its queries' counts in its own
  column pair).  The same addends in the same order as the readable
  per-pin dense-layout reference, ``tests/oracles/level_kernels.py``,
  which ``tests/test_level_fuse.py`` holds the kernel to bitwise at every
  iteration.
* **matching** — one ``decide_paired`` call per iteration for the whole
  level (the matcher's sibling front-end: cells keyed ``label × bin``);
  sibling pairs are disjoint, so best-first matching and ε-extras
  allocation decompose per group exactly as per-group calls would.

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
from .gains import count_column_grids, gain_tables, segment_sums
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
        grids = count_column_grids(max_count, num_labels)
        self.table = np.ascontiguousarray(objective.contribution(*grids))
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


def _slot_order(slot_keys: np.ndarray) -> np.ndarray:
    """A permutation that sorts the valid pins by raw slot key.

    Need not be stable.  Everything read off it is per key — the compact
    slot ids, pin totals, even counts and each pin's slot — and the pins
    of one slot, in whatever order, only name the ranks to mark dirty
    (``dirty[members] = True``).  A stable sort of these int64 keys costs
    ~4x the default one; ``test_slot_sort_need_not_be_stable`` reverses
    the pins inside every slot and finds no bit changed.
    """
    return np.argsort(slot_keys)


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
    # (query, group) pair.  The valid pins come straight off the refinable
    # vertices' rows — rank-major, each row in its own order — and one sort
    # of them by raw slot key yields the compact slot ids (ascending
    # (group, query)), the per-slot pin totals, the pruning mask and the
    # slot→ranks dirty index, so memory stays O(|E|) instead of the dense
    # O(|Q| · G) slot space.  Each slot stores the even-side count next to
    # its level-invariant pin total, so one adjacent gather yields both
    # sides.
    pin_positions, pin_degrees = csr_row_positions(graph.d_indptr, ordered_vertices)
    v_query = np.asarray(graph.d_indices[pin_positions], dtype=np.int64)
    v_rank = np.repeat(np.arange(n_ranks, dtype=np.int64), pin_degrees)
    v_side = np.repeat(rank_side, pin_degrees)
    v_slot_raw = np.repeat(rank_group * num_queries, pin_degrees) + v_query
    slot_order = _slot_order(v_slot_raw)
    sorted_raw = v_slot_raw[slot_order]
    slot_first = np.empty(sorted_raw.size, dtype=bool)
    slot_first[:1] = True
    np.not_equal(sorted_raw[1:], sorted_raw[:-1], out=slot_first[1:])
    slot_ids = sorted_raw[slot_first]
    num_slots = slot_ids.size
    v_slot = np.empty(v_rank.size, dtype=np.int64)
    v_slot[slot_order] = np.cumsum(slot_first) - 1
    slot_total = np.bincount(v_slot, minlength=num_slots)
    pair_counts = np.empty((num_slots, 2), dtype=np.int32)
    pair_counts[:, 0] = np.bincount(v_slot[v_side == 0], minlength=num_slots)
    pair_counts[:, 1] = slot_total
    pc = pair_counts.ravel()
    slot_col_even = 2 * (slot_ids // num_queries)
    slot_qw = None
    if graph.query_weights is not None:
        query_weights = np.asarray(graph.query_weights, dtype=np.float64)
        slot_qw = query_weights[slot_ids % num_queries]

    # Level-static edge pruning — the fused analogue of induced_subgraph's
    # min_query_degree drop: a query's pin count inside a group *pair* is
    # invariant while the level runs (moves only flip sides), and a
    # single-pin query nets exactly zero gain, so its edges need never be
    # gathered.  A kept pin is one int, ``2 · slot + side``: the index of
    # the Eq. 1 term it adds to its vertex's gain (``slot_value`` below).
    slot_kept = slot_total >= 2
    keep_v = slot_kept[v_slot]
    rank_degrees = np.bincount(v_rank[keep_v], minlength=n_ranks)
    rank_indptr = np.concatenate(([0], np.cumsum(rank_degrees)))
    gm_vidx = 2 * v_slot[keep_v] + v_side[keep_v]
    # Kept pins in slot order (a filtered view of the slot sort): slot s's
    # member ranks are slot_sorted_ranks[slot_kept_indptr[s] :
    # slot_kept_indptr[s + 1]], which is how dirty-gain invalidation
    # resolves a touched slot.
    slot_sorted_ranks = v_rank[slot_order[keep_v[slot_order]]]
    slot_kept_indptr = np.concatenate(([0], np.cumsum(slot_total * slot_kept)))

    # Tables as tall as the level needs: no slot holds more than its pair
    # total (height 2 at least, so f(1) exists on an edgeless level).
    max_count = int(slot_total.max(initial=1))
    removal_table, insertion_table = gain_tables(objective, max_count, num_labels)

    def slot_values(slots):
        """Eq. 1 terms of the listed slots, one column per side.

        ``[i, side]`` is what a pin of ``slots[i]`` adds to the gain of a
        vertex sitting on ``side``: ``removal_gain(n_side) −
        insertion_cost(n_other)`` at the slot's live counts, times its
        query's weight.  A function of the slot's counts alone — every pin
        of the slot on that side reads this one cell.
        """
        even = pc[2 * slots]
        odd = pc[2 * slots + 1] - even
        col_even = slot_col_even[slots]
        col_odd = col_even + 1
        values = np.empty((slots.size, 2), dtype=np.float64)
        values[:, 0] = removal_table[even, col_even] - insertion_table[odd, col_odd]
        values[:, 1] = removal_table[odd, col_odd] - insertion_table[even, col_even]
        if slot_qw is not None:
            values *= slot_qw[slots, None]
        return values

    kept_slots = np.flatnonzero(slot_kept)
    slot_value = np.zeros((num_slots, 2), dtype=np.float64)
    slot_value[kept_slots] = slot_values(kept_slots)

    def pair_gains(ranks):
        """Sibling-move gain for the listed ranks: the sum of their kept
        pins' slot values, in row order.

        The same addends in the same order as the per-pin dense-layout
        reference in ``tests/oracles/level_kernels.py`` evaluated over the
        pruned CSR — ``test_fused_gains_match_reference_after_moves`` pins
        the two bitwise at every iteration.  The full-set fast path skips
        the position gather; subsets delegate to the shared
        :func:`~repro.core.parallel_refine.block_pair_gains` kernel the
        pool workers run, and per-rank values are bitwise-equal on both
        paths (each rank's segment has identical contents either way —
        pinned by ``test_parallel_refine``).
        """
        if ranks.size != n_ranks:
            return block_pair_gains(ranks, rank_indptr, gm_vidx, slot_value)
        return segment_sums(
            slot_value.reshape(-1)[gm_vidx], rank_indptr[:-1], rank_degrees
        )

    tracker = None
    if track in ("objective", "full"):
        norm = (
            float(max(1, num_queries))
            if graph.query_weights is None
            else max(float(query_weights.sum()), 1e-300)
        )
        tracker = _LevelTracker(objective, num_labels, max_count, norm)
        f1 = float(tracker.table[1, 0])
        if graph.query_weights is None:
            singles = float((~keep_v).sum())
        else:
            # Summed in edge order (ascending pin position), not rank
            # order: the static term is part of every reported
            # objective_value, and a float sum is only as stable as its
            # order.
            singles = float(
                query_weights[graph.d_indices[np.sort(pin_positions[~keep_v])]].sum()
            )
        # Seeded per kept pin, in rank order (a per-slot sum would reorder
        # a reported float sum).
        gm_slot = gm_vidx >> 1
        gm_side = gm_vidx & 1
        even = pc[2 * gm_slot]
        tracker.seed(
            np.where(gm_side == 0, even, pc[2 * gm_slot + 1] - even),
            slot_col_even[gm_slot] + gm_side,
            None if slot_qw is None else slot_qw[gm_slot],
            f1 * singles,
            singles,
        )

    active = np.ones(num_groups, dtype=bool)
    active_ranks = np.arange(n_ranks, dtype=np.int64)
    rank_active = np.ones(n_ranks, dtype=bool)
    gain_cache = np.zeros(n_ranks, dtype=np.float64)
    recompute = active_ranks

    # Block-parallel gains: publish what the kernel reads to the pool
    # workers and rebind the arrays the master mutates (pin indices, slot
    # values, gain cache, work buffer) to writeable views into the shared
    # segment, so its in-place move updates are visible at every gains
    # barrier.  Counts and tables stay private to the master: workers sum
    # slot values, they never evaluate one.  Levels below the dispatch
    # threshold stay serial — same bits either way, the segment would be
    # pure overhead.
    shared = None
    work_buf = None
    if pool is not None and n_ranks >= PARALLEL_MIN_RANKS:
        shared = pool.publish_level({
            "rank_indptr": rank_indptr,
            "gm_vidx": gm_vidx,
            "slot_value": slot_value,
            "gain_cache": gain_cache,
            "work_buf": np.zeros(n_ranks, dtype=np.int64),
        })
        gm_vidx = shared["gm_vidx"]
        slot_value = shared["slot_value"]
        gain_cache = shared["gain_cache"]
        work_buf = shared["work_buf"]
    sizes = np.bincount(rank_labels, weights=rank_weights, minlength=num_labels)
    if data_weights is None:
        sizes = sizes.astype(np.int64)
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

        # Apply moves: one ±1 scatter on the even counts, a side flip of the
        # movers' pins, then — after the scatter, from the counts it left —
        # fresh slot values and exact tracking deltas at the touched
        # (query, group) slots.
        moved_positions, _ = csr_row_positions(rank_indptr, moved_ranks)
        touched_slots = np.empty(0, dtype=np.int64)
        if moved_positions.size:
            moved_vidx = gm_vidx[moved_positions]
            touched_slots = sorted_unique(moved_vidx >> 1)
            even_before = pc[2 * touched_slots]
            # A pin leaving side 1 joins the even side: +1; leaving 0: −1.
            delta = 2 * (moved_vidx & 1) - 1
            np.add.at(pc, moved_vidx & -2, delta.astype(np.int32))
            gm_vidx[moved_positions] = moved_vidx ^ 1
            slot_value[touched_slots] = slot_values(touched_slots)
            if tracker is not None:
                tracker.apply_deltas(
                    even_before,
                    pc[2 * touched_slots],
                    pc[2 * touched_slots + 1],
                    slot_col_even[touched_slots],
                    None if slot_qw is None else slot_qw[touched_slots],
                )
        if moved_ranks.size:
            moved_weights = None if rank_weights is None else rank_weights[moved_ranks]
            outflow = np.bincount(old_labels, weights=moved_weights, minlength=num_labels)
            inflow = np.bincount(new_labels, weights=moved_weights, minlength=num_labels)
            if data_weights is None:
                sizes = sizes - outflow.astype(np.int64) + inflow.astype(np.int64)
            else:
                sizes = sizes - outflow + inflow

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
            member_positions, _ = csr_row_positions(slot_kept_indptr, touched_slots)
            dirty = np.zeros(n_ranks, dtype=bool)
            dirty[slot_sorted_ranks[member_positions]] = True
            dirty &= rank_active
            recompute = np.flatnonzero(dirty)

    if shared is not None:
        # Drop every master view into the level segment before the pool
        # unlinks it (live exported buffers keep the mapping alive).
        gm_vidx = slot_value = gain_cache = work_buf = shared = None
        pool.drop_level()

    for g, group in enumerate(refinable):
        group.final_side = (
            rank_labels[block_bounds[g] : block_bounds[g + 1]] & 1
        ).astype(np.int32)
    return history, not active.any()
