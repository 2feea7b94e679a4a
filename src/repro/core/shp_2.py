"""SHP-2: recursive bisection (Section 3.3, "Recursive partitioning").

The k-way problem is solved by repeatedly bisecting bucket groups: the
vertices of group ``V_i`` may only move between its two children, so each
level costs ``O(|E|)`` regardless of k and the whole run costs
``O(|E| log k)`` — the variant the paper open-sourced as the most scalable.

Section 3.4 refinements implemented here:

* **ε schedule** — early levels get a tightened imbalance budget
  (ε scaled by completed-splits / total-splits) so that later levels retain
  freedom to move vertices.
* **Final p-fanout approximation** — each bisection optimizes
  ``t · (1 − (1 − p/t)^n)`` with ``t`` the number of final buckets below
  each child, rather than the current-level p-fanout.
* Arbitrary (non-power-of-two) k via proportional bisection: a span of
  ``s`` buckets splits into ``ceil(s/2)`` and ``floor(s/2)`` children with
  proportionally sized targets.

Every bisection of a recursion level is refined simultaneously on the
full graph (:mod:`repro.core.level_fuse` — the in-process analogue of the
paper running a whole level as one Giraph job).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..hypergraph.bipartite import BipartiteGraph
from .config import SHPConfig
from .level_fuse import LevelGroup, refine_level_fused
from .parallel_refine import ParallelGainPool
from .partition import balanced_random_assignment, validate_assignment
from .result import IterationStats, PartitionResult

__all__ = ["SHP2Partitioner", "shp_2"]


@dataclass
class _Group:
    """A contiguous range of final buckets still to be split."""

    data_ids: np.ndarray  # original data-vertex ids in this group
    offset: int  # first final bucket id owned by the group
    span: int  # number of final buckets owned by the group


class SHP2Partitioner:
    """Recursive-bisection Social Hash Partitioner."""

    def __init__(self, config: SHPConfig):
        self.config = config

    # ------------------------------------------------------------------
    def partition(
        self, graph: BipartiteGraph, initial: np.ndarray | None = None
    ) -> PartitionResult:
        """Partition into ``config.k`` buckets by recursive bisection.

        ``initial`` warm-starts every bisection by routing each vertex
        toward the child whose final bucket range contains its previous
        bucket (incremental repartitioning, Section 5).
        """
        config = self.config
        start = time.perf_counter()
        rng = np.random.default_rng(config.seed)
        k = config.k
        if initial is not None:
            validate_assignment(initial, graph.num_data, k)
            initial = np.asarray(initial, dtype=np.int32)
        assignment = np.zeros(graph.num_data, dtype=np.int32)
        groups = [_Group(np.arange(graph.num_data, dtype=np.int64), 0, k)]
        levels: list[list[IterationStats]] = []
        all_converged = True
        splits_done = 1

        # Shared-memory gain workers (refine_workers > 1): spawned once
        # here and reused across every recursion level — each level
        # publishes one segment to the same pool.  Gains are
        # bitwise-identical to the serial path, so this is purely an
        # elapsed-time knob (see repro.core.parallel_refine).
        pool = None
        if config.refine_workers > 1:
            pool = ParallelGainPool(config.refine_workers)
        try:
            while any(g.span > 1 for g in groups):
                # ε schedule: current splits after this level / final splits.
                splits_after = sum(min(2, g.span) for g in groups)
                if config.epsilon_schedule:
                    eps_eff = config.epsilon * min(1.0, splits_after / k)
                else:
                    eps_eff = config.epsilon

                # Phase 1 — initial sides, one group at a time in group order.
                work: list[tuple[_Group, LevelGroup]] = []
                for group in groups:
                    if group.span == 1:
                        continue
                    left_span = (group.span + 1) // 2
                    right_span = group.span - left_span
                    side = self._initial_side(
                        group, left_span, right_span, rng, initial
                    )
                    work.append(
                        (group, LevelGroup(group.data_ids, side, left_span, right_span))
                    )

                # Phase 2 — refine the whole level.
                level_stats, converged = self._refine_level(
                    graph, [lg for _, lg in work], eps_eff, rng, pool
                )
                all_converged = all_converged and converged

                # Phase 3 — split refined groups; settle span-1 groups.
                next_groups: list[_Group] = []
                for group in groups:
                    if group.span == 1:
                        assignment[group.data_ids] = group.offset
                for group, level_group in work:
                    side = level_group.final_side
                    left_span = level_group.left_span
                    left_ids = group.data_ids[side == 0]
                    right_ids = group.data_ids[side == 1]
                    next_groups.append(_Group(left_ids, group.offset, left_span))
                    next_groups.append(
                        _Group(
                            right_ids, group.offset + left_span, level_group.right_span
                        )
                    )
                groups = next_groups
                splits_done = splits_after
                levels.append(level_stats)
        finally:
            if pool is not None:
                pool.close()

        for group in groups:
            assignment[group.data_ids] = group.offset

        history = [s for level in levels for s in level]
        return PartitionResult(
            assignment=assignment,
            k=k,
            method="SHP-2",
            converged=all_converged,
            elapsed_sec=time.perf_counter() - start,
            history=history,
            levels=levels,
            extra={"num_levels": len(levels), "splits_done": splits_done},
        )

    def _refine_level(
        self,
        graph: BipartiteGraph,
        level_groups: list[LevelGroup],
        eps_eff: float,
        rng: np.random.Generator,
        pool: ParallelGainPool | None,
    ) -> tuple[list[IterationStats], bool]:
        """Refine one recursion level in place; ``(stats, converged)``.

        Fills every group's ``final_side``.  A method so the test oracle
        (``tests/oracles/shp2_loop.py``) can run the literal per-group
        recursion under the same driver.
        """
        return refine_level_fused(
            graph, self.config, level_groups, eps_eff, rng, pool=pool
        )

    # ------------------------------------------------------------------
    def _initial_side(
        self,
        group: _Group,
        left_span: int,
        right_span: int,
        rng: np.random.Generator,
        initial: np.ndarray | None,
    ) -> np.ndarray:
        """Initial 0/1 child labels for one group's vertices."""
        n_group = group.data_ids.size
        if n_group == 0:
            return np.empty(0, dtype=np.int32)
        proportions = np.array([left_span, right_span], dtype=np.float64)
        if initial is not None:
            # Warm start: route each vertex toward the child whose final
            # bucket range contains its previous bucket.
            prev = initial[group.data_ids]
            side = (prev >= group.offset + left_span).astype(np.int32)
            outside = (prev < group.offset) | (prev >= group.offset + group.span)
            if outside.any():
                side[outside] = balanced_random_assignment(
                    int(outside.sum()), 2, rng, proportions=proportions
                )
            return side
        return balanced_random_assignment(n_group, 2, rng, proportions=proportions)


def shp_2(graph: BipartiteGraph, k: int, **kwargs) -> PartitionResult:
    """Convenience wrapper: ``shp_2(graph, k, p=0.5, seed=1, ...)``."""
    return SHP2Partitioner(SHPConfig(k=k, **kwargs)).partition(graph)
