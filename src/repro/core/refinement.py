"""The local-refinement loop of SHP-k (Algorithm 1).

SHP-2 runs the same iteration for every bisection of a level at once in
:mod:`repro.core.level_fuse`, reusing the builders and the weighted-cap
post-check defined here.

One iteration:

1. compute the query neighbor data ``n_i(q)`` (counts matrix),
2. compute every data vertex's best target bucket and move gain,
3. let the matcher (the "master") decide who moves while preserving balance,
4. apply the moves.

The loop stops when the moved fraction drops below the convergence
threshold or the iteration budget is exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api.registry import MATCHERS
from ..hypergraph.bipartite import BipartiteGraph
from ..objectives import (
    CliqueNetObjective,
    FanoutObjective,
    PFanoutObjective,
    ScaledPFanout,
    SeparableObjective,
    bucket_counts,
    objective_value,
)
from .config import SHPConfig
from .gains import best_moves
from .histograms import GainBinning
from .partition import bucket_sizes
from .result import IterationStats
from .swaps import HistogramMatcher, UniformMatcher

__all__ = [
    "RefineOutcome",
    "build_objective",
    "build_matcher",
    "enforce_weighted_caps",
    "refine",
]


@dataclass
class RefineOutcome:
    """Result of one refinement loop over a (sub)graph."""

    assignment: np.ndarray
    history: list[IterationStats] = field(default_factory=list)
    converged: bool = False


def build_objective(
    config: SHPConfig, splits_ahead: np.ndarray | int | None = None
) -> SeparableObjective:
    """Instantiate the configured objective.

    ``splits_ahead`` activates the final-p-fanout approximation during
    recursive bisection (ignored for the clique-net objective, which is
    scale-invariant in the p → 0 limit).
    """
    if config.objective == "cliquenet":
        return CliqueNetObjective()
    p = 1.0 if config.objective == "fanout" else config.p
    if splits_ahead is None or np.all(np.asarray(splits_ahead) == 1):
        return FanoutObjective() if p == 1.0 else PFanoutObjective(p)
    return ScaledPFanout(p=p, splits_ahead=splits_ahead)


@MATCHERS.register("uniform")
def _uniform_matcher(config: SHPConfig) -> UniformMatcher:
    return UniformMatcher(swap_mode=config.swap_mode, damping=config.move_damping)


@MATCHERS.register("histogram")
def _histogram_matcher(config: SHPConfig) -> HistogramMatcher:
    binning = GainBinning(num_bins=config.num_bins, min_gain=config.min_gain)
    return HistogramMatcher(
        binning,
        allow_negative=config.allow_negative_gains,
        swap_mode=config.swap_mode,
        damping=config.move_damping,
    )


def build_matcher(config: SHPConfig):
    """Instantiate the configured swap matcher (any registered name).

    A :data:`MATCHERS` entry is a factory ``fn(config) -> matcher``.  A
    matcher implements ``decide(src, dst, gain, k, sizes, caps, rng)`` —
    what :func:`refine` (SHP-k) calls — and ``decide_paired(src, gain,
    num_labels, sizes, caps, rng)`` — what the level-fused SHP-2 refiner
    calls, every proposal targeting its sibling ``src ^ 1``.  Both return a
    :class:`~repro.core.swaps.SwapDecision`, of which callers read ``move``;
    the built-in matchers make the two front-ends of one pipeline.
    """
    return MATCHERS.get(config.matcher)(config)


def enforce_weighted_caps(
    move: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    gain: np.ndarray,
    move_weights: np.ndarray,
    sizes: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Cancel lowest-gain granted moves until weighted capacities hold.

    The matchers grant per-cell *counts* — exact balance bookkeeping for unit
    weights, but with heterogeneous ``data_weights`` a granted exchange (or
    ε-extra) of unequal-weight vertices can overshoot a bucket's weighted
    capacity.  This pass re-checks the granted set in weight space: any
    over-capacity bucket sheds its cheapest accepted incoming movers; a
    cancelled mover stays at its source, which may push the source over in
    turn, so the scan repeats to a fixpoint (each move is cancelled at most
    once, so it terminates).  At the fixpoint every bucket satisfies
    ``w(V_i) ≤ max(cap_i, w_before(V_i))`` — within capacity whenever it
    started within capacity, and never worse than it started.

    Returns the adjusted move mask (the input mask is not modified).
    """
    move = np.asarray(move, dtype=bool).copy()
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    num_buckets = caps.size
    granted = np.flatnonzero(move)
    if granted.size == 0:
        return move
    weights_of = np.asarray(move_weights, dtype=np.float64)
    new_sizes = np.asarray(sizes, dtype=np.float64).copy()
    new_sizes -= np.bincount(src[granted], weights=weights_of[granted], minlength=num_buckets)
    new_sizes += np.bincount(dst[granted], weights=weights_of[granted], minlength=num_buckets)
    # Cheapest-first cancellation order, fixed once up front.
    order = granted[np.argsort(gain[granted], kind="stable")]
    tol = 1e-9 * max(1.0, float(np.abs(caps).max()))
    while True:
        over = np.flatnonzero(new_sizes > caps + tol)
        if over.size == 0:
            break
        progress = False
        for bucket in over:
            candidates = order[move[order] & (dst[order] == bucket)]
            if candidates.size == 0:
                continue
            cumulative = np.cumsum(weights_of[candidates])
            excess = new_sizes[bucket] - caps[bucket]
            cut = min(int(np.searchsorted(cumulative, excess)) + 1, candidates.size)
            cancel = candidates[:cut]
            move[cancel] = False
            new_sizes[bucket] -= cumulative[cut - 1]
            np.add.at(new_sizes, src[cancel], weights_of[cancel])
            progress = True
        if not progress:
            # Remaining overshoot predates this round of moves; nothing to cancel.
            break
    return move


def refine(
    graph: BipartiteGraph,
    assignment: np.ndarray,
    k: int,
    objective: SeparableObjective,
    config: SHPConfig,
    caps: np.ndarray,
    rng: np.random.Generator,
    max_iterations: int,
) -> RefineOutcome:
    """Run Algorithm 1's refinement loop in place on ``assignment``.

    ``caps`` are per-bucket maximum sizes (the ε-balance constraint, possibly
    schedule-tightened by the recursive driver).  When the graph carries
    ``data_weights``, sizes and capacities are interpreted in weight units
    (``caps`` must then come from :func:`~repro.core.partition.weighted_capacities`
    or its recursive analogue) and each matching round is post-checked with
    :func:`enforce_weighted_caps` so the ε bound reported by
    ``evaluate_partition`` is the one actually enforced.
    """
    assignment = np.asarray(assignment, dtype=np.int32).copy()
    num_data = graph.num_data
    matcher = build_matcher(config)
    history: list[IterationStats] = []
    converged = False
    track = config.track_metrics
    data_weights = None if graph.data_weights is None else graph.weights_or_unit()

    if num_data == 0 or graph.num_queries == 0 or k < 2:
        return RefineOutcome(assignment=assignment, history=history, converged=True)

    counts = bucket_counts(graph, assignment, k)
    for iteration in range(1, max_iterations + 1):
        gain, target = best_moves(graph, assignment, counts, objective)
        if config.move_penalty > 0.0:
            gain = gain - config.move_penalty
        sizes = bucket_sizes(assignment, k, weights=data_weights)
        decision = matcher.decide(assignment, target, gain, k, sizes, caps, rng)
        move = decision.move
        if data_weights is not None:
            move = enforce_weighted_caps(
                move, assignment, target, gain, data_weights, sizes, caps
            )
        moved_idx = np.flatnonzero(move)
        assignment[moved_idx] = target[moved_idx]
        moved = int(moved_idx.size)
        fraction = moved / num_data

        counts = bucket_counts(graph, assignment, k)
        value = None
        fanout_value = None
        if track in ("objective", "full"):
            value = objective_value(objective, counts, graph.query_weights)
        if track == "full":
            fanout_value = float((counts > 0).sum() / graph.num_queries)
        history.append(
            IterationStats(
                iteration=iteration,
                moved=moved,
                moved_fraction=fraction,
                objective_value=value,
                fanout=fanout_value,
            )
        )
        if fraction < config.convergence_fraction:
            converged = True
            break
    return RefineOutcome(assignment=assignment, history=history, converged=converged)
