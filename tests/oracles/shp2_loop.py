"""The literal per-group recursion of SHP-2 (``level_mode="loop"`` until PR 14).

One ``induced_subgraph`` copy and one :func:`repro.core.refinement.refine`
loop per group, sequentially — what the level-fused engine
(:mod:`repro.core.level_fuse`) must agree with.  The driver (initial sides,
ε schedule, splitting) is production's: only the ``_refine_level`` seam is
overridden, so both consume identical RNG draws up to each level's entry.
The matcher RNG stream then diverges — one stream per level in production,
one per group here — so assignments agree statistically (equal balance,
fanout parity) rather than bitwise, except on levels with a single
refinable group (k ≤ 3), where the streams coincide and parity is exact.
"""

from __future__ import annotations

import numpy as np

from repro.core import SHP2Partitioner, SHPConfig
from repro.core.partition import child_capacities
from repro.core.refinement import build_objective, refine

__all__ = ["LoopSHP2Partitioner", "shp_2_loop"]


class LoopSHP2Partitioner(SHP2Partitioner):
    """SHP-2 refining one bisection at a time on its induced subgraph."""

    def _refine_level(self, graph, level_groups, eps_eff, rng, pool):
        data_weights = None if graph.data_weights is None else graph.weights_or_unit()
        total_weight = (
            float(graph.num_data) if data_weights is None else float(data_weights.sum())
        )
        level_stats = []
        all_converged = True
        for level_group in level_groups:
            stats, converged = self._refine_group(
                graph, level_group, eps_eff, rng,
                total_weight=total_weight, data_weights=data_weights,
            )
            level_stats.extend(stats)
            all_converged = all_converged and converged
        return level_stats, all_converged

    def _refine_group(self, graph, level_group, eps_eff, rng, total_weight, data_weights):
        """Refine one bisection on its subgraph; fills ``final_side``."""
        config = self.config
        ids = level_group.data_ids
        side = np.asarray(level_group.side, dtype=np.int32)
        level_group.final_side = side
        if ids.size <= 2:
            return [], True

        subgraph, _ = graph.induced_subgraph(ids)
        spans = np.array(
            [level_group.left_span, level_group.right_span], dtype=np.float64
        )
        splits = spans if config.use_final_pfanout else None
        objective = build_objective(config, splits_ahead=splits)
        if data_weights is None:
            group_total: float = float(ids.size)
            granularity = None
        else:
            w_group = data_weights[ids]
            group_total = float(w_group.sum())
            granularity = float(w_group.max())
        caps = child_capacities(
            spans, eps_eff, total_weight / config.k, group_total,
            granularity=granularity,
        )
        if data_weights is None:
            caps = caps.astype(np.int64)
        outcome = refine(
            subgraph,
            side,
            2,
            objective,
            config,
            caps,
            rng,
            config.iterations_per_bisection,
        )
        level_group.final_side = outcome.assignment
        return outcome.history, outcome.converged


def shp_2_loop(graph, k: int, **kwargs):
    """``shp_2`` through the per-group oracle: same signature, same config."""
    return LoopSHP2Partitioner(SHPConfig(k=k, **kwargs)).partition(graph)
