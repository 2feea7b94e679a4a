"""Swap matching: from per-vertex move proposals to actual moves.

This module plays the role of the *master* machine (Figure 3, supersteps 3
and 4): it aggregates how many vertices in bucket ``i`` want to move to
bucket ``j`` and decides who actually moves while preserving balance.

Two matchers are provided:

* :class:`UniformMatcher` — Algorithm 1 verbatim: only positive-gain
  proposals count, ``S[i][j]`` is their number, and each such vertex moves
  with probability ``min(S_ij, S_ji) / S_ij`` so the expected flow is equal
  in both directions.
* :class:`HistogramMatcher` — the Section 3.4 refinement: per (i, j) pair
  the master receives two exponential gain histograms and pairs bins
  best-first, so the highest gains move first; a positive and a negative bin
  may be paired when their summed expected gain is positive; leftover
  positive-gain movers may relocate without a partner as long as the
  ε-imbalance capacity allows.

The cell-level matching lives in :func:`match_histogram_cells` so that the
distributed master (``repro.distributed_shp``) can run the identical logic
on aggregated histograms.

Both matchers support two execution modes: ``strict`` moves exactly the
matched count per cell (what the paper's ideal serial implementation would
do — bucket sizes are preserved exactly), and ``bernoulli`` applies the
broadcast probabilities independently per vertex (what a distributed
implementation must do — sizes are preserved in expectation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .histograms import GainBinning

__all__ = [
    "SwapDecision",
    "UniformMatcher",
    "HistogramMatcher",
    "match_histogram_cells",
]


@dataclass
class SwapDecision:
    """Outcome of one matching round.

    ``matched_swaps`` counts moves granted through pairwise (bidirectional)
    matching; ``extra_moves`` counts the one-directional relocations granted
    out of the ε-imbalance capacity.  Both are the master's *grants* — with
    ``damping < 1`` or ``swap_mode="bernoulli"`` the realized ``move`` mask
    may contain fewer moves.
    """

    move: np.ndarray  # bool per proposal, aligned with the inputs
    matched_swaps: int = 0
    extra_moves: int = 0
    #: per-cell broadcast table (what the master would send in superstep 4):
    #: arrays src, dst, bin, probability.
    table: dict[str, np.ndarray] = field(default_factory=dict)


def _stochastic_round(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Round to integers, up with probability equal to the fractional part."""
    floor = np.floor(values)
    frac = values - floor
    return (floor + (rng.random(values.shape) < frac)).astype(np.int64)


def _select_per_cell(
    cell_of_mover: np.ndarray,
    quota_per_cell: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick exactly ``quota[c]`` random movers from each cell ``c``.

    Returns a boolean mask over movers.  Uniform-random within a cell: all
    movers of a cell share a gain bin, so the paper pairs them
    probabilistically; a random subset realizes the same distribution with
    exact counts.

    Randomness is only consumed for *partially* granted cells — cells whose
    quota covers every mover (or none) need no tie-breaking, which keeps the
    sort small when one matcher call spans a whole recursion level.
    """
    n = cell_of_mover.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    num_cells = quota_per_cell.size
    count = np.bincount(cell_of_mover, minlength=num_cells)
    quota = np.minimum(quota_per_cell, count)
    full = quota >= count
    move = full[cell_of_mover] & (quota[cell_of_mover] > 0)
    partial_cell = (quota > 0) & (quota < count)
    if partial_cell.any():
        movers = np.flatnonzero(partial_cell[cell_of_mover])
        sub_cells = cell_of_mover[movers]
        order = np.lexsort((rng.random(movers.size), sub_cells))
        sorted_cells = sub_cells[order]
        # Rank of each mover inside its cell after the random shuffle.
        boundary = np.concatenate(([True], sorted_cells[1:] != sorted_cells[:-1]))
        group_start = np.flatnonzero(boundary)
        group_sizes = np.diff(np.concatenate((group_start, [movers.size])))
        rank = np.arange(movers.size, dtype=np.int64) - np.repeat(
            group_start, group_sizes
        )
        move[movers[order]] = rank < quota[sorted_cells]
    return move


# ----------------------------------------------------------------------
# Cell-level histogram matching (shared with the distributed master)
# ----------------------------------------------------------------------
def match_histogram_cells(
    cell_src: np.ndarray,
    cell_dst: np.ndarray,
    cell_bin: np.ndarray,
    cell_count: np.ndarray,
    k: int,
    sizes: np.ndarray,
    caps: np.ndarray,
    binning: GainBinning,
    include_extras: bool = True,
    return_extras: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Decide how many movers of each histogram cell may relocate.

    A *cell* is a (source bucket, target bucket, gain bin) triple with the
    number of data vertices proposing that move.  Matching is best-first per
    unordered bucket pair: the r-th best i→j mover pairs with the r-th best
    j→i mover, and a rank is accepted while the summed expected gain of its
    two bins is positive.  Leftover positive-gain movers may additionally
    move one-directionally into buckets with spare ε capacity.

    Returns the allowed move count per cell, aligned with the input order.
    With ``return_extras=True`` additionally returns the per-cell count of
    ε-capacity extras (a subset of the allowed counts), same alignment.
    """
    num_cells = cell_src.size
    if num_cells == 0:
        empty = np.zeros(0, dtype=np.int64)
        return (empty, empty.copy()) if return_extras else empty
    cell_src = np.asarray(cell_src, dtype=np.int64)
    cell_dst = np.asarray(cell_dst, dtype=np.int64)
    cell_bin = np.asarray(cell_bin, dtype=np.int64)
    cell_count = np.asarray(cell_count, dtype=np.int64)

    lo = np.minimum(cell_src, cell_dst)
    hi = np.maximum(cell_src, cell_dst)
    direction = (cell_src != lo).astype(np.int64)  # 0: lo→hi, 1: hi→lo
    pair_dir = (lo * k + hi) * 2 + direction

    # Sort cells by (pair_dir asc, bin desc): within each directed segment
    # the best gains come first.
    order = np.lexsort((-cell_bin, pair_dir))
    s_pair_dir = pair_dir[order]
    s_bin = cell_bin[order]
    s_count = cell_count[order]
    cum = np.cumsum(s_count)  # globally increasing

    seg_first = np.concatenate(([True], s_pair_dir[1:] != s_pair_dir[:-1]))
    seg_start = np.flatnonzero(seg_first)
    seg_pair_dir = s_pair_dir[seg_start]
    seg_base = np.concatenate(([0], cum[seg_start[1:] - 1]))
    seg_end_idx = np.concatenate((seg_start[1:], [num_cells])) - 1
    seg_total = cum[seg_end_idx] - seg_base
    seg_of_cell = np.cumsum(seg_first) - 1

    seg_pair = seg_pair_dir // 2
    seg_dir = seg_pair_dir % 2
    both = np.flatnonzero(
        (seg_pair[:-1] == seg_pair[1:]) & (seg_dir[:-1] == 0) & (seg_dir[1:] == 1)
    )

    matched_per_seg = np.zeros(seg_pair_dir.size, dtype=np.int64)
    if both.size:
        m = _match_ranks(
            binning,
            cum,
            s_bin,
            seg_base[both],
            seg_total[both],
            seg_base[both + 1],
            seg_total[both + 1],
        )
        matched_per_seg[both] = m
        matched_per_seg[both + 1] = m

    cell_rank_start = np.concatenate(([0], cum[:-1])) - seg_base[seg_of_cell]
    matched_cell = np.clip(matched_per_seg[seg_of_cell] - cell_rank_start, 0, s_count)

    extra_cell = np.zeros(num_cells, dtype=np.int64)
    if include_extras:
        leftovers = np.flatnonzero((s_bin > 0) & (s_count > matched_cell))
        if leftovers.size:
            extra_cell = _allocate_extras(
                leftovers, s_pair_dir, s_bin, s_count, matched_cell, k, sizes, caps
            )

    allowed_sorted = matched_cell + extra_cell
    allowed = np.empty(num_cells, dtype=np.int64)
    allowed[order] = allowed_sorted
    if return_extras:
        extras = np.empty(num_cells, dtype=np.int64)
        extras[order] = extra_cell
        return allowed, extras
    return allowed


def _match_ranks(
    binning: GainBinning,
    cum: np.ndarray,
    s_bin: np.ndarray,
    base_f: np.ndarray,
    total_f: np.ndarray,
    base_b: np.ndarray,
    total_b: np.ndarray,
) -> np.ndarray:
    """Vectorized best-first matching cutoff per bucket pair.

    Because each direction is sorted by gain descending, the summed
    representative gain is non-increasing in the rank, so the cutoff is
    found by binary search.  Ranks translate into global positions in the
    sorted-cell cumulative array (``cum`` is globally increasing), which
    lets one ``searchsorted`` serve every pair at once.
    """
    rep = binning.representative(s_bin)
    m_max = np.minimum(total_f, total_b)
    lo = np.zeros(m_max.size, dtype=np.int64)
    hi = m_max.astype(np.int64).copy()
    max_hi = int(hi.max()) if hi.size else 0
    rounds = max(1, int(np.ceil(np.log2(max_hi + 1))) + 1) if max_hi > 0 else 0
    for _ in range(rounds):
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi + 1) // 2
        rank = mid - 1  # 0-indexed worst rank in the candidate match set
        idx_f = np.searchsorted(cum, base_f + rank, side="right")
        idx_b = np.searchsorted(cum, base_b + rank, side="right")
        cond = (rep[idx_f] + rep[idx_b]) > 0
        lo = np.where(active & cond, mid, lo)
        hi = np.where(active & ~cond, mid - 1, hi)
    return lo


def _allocate_extras(
    leftovers: np.ndarray,
    s_pair_dir: np.ndarray,
    s_bin: np.ndarray,
    s_count: np.ndarray,
    matched_cell: np.ndarray,
    k: int,
    sizes: np.ndarray,
    caps: np.ndarray,
) -> np.ndarray:
    """Greedy one-directional moves into under-capacity buckets.

    Processes leftover positive-gain cells best-bin-first, so the ε budget
    is spent on the most valuable moves (Section 3.4).

    ``sizes``/``caps`` may be real-valued (weight units, when the graph
    carries ``data_weights``); room is floored to a whole mover count, and
    the weighted post-check in the refinement loop handles any residual
    heterogeneous-weight overshoot.
    """
    extra = np.zeros(s_count.size, dtype=np.int64)
    work_sizes = np.asarray(sizes, dtype=np.float64).copy()
    by_gain = leftovers[np.argsort(-s_bin[leftovers], kind="stable")]
    for cell in by_gain.tolist():
        pd = int(s_pair_dir[cell])
        pair, direction = pd // 2, pd % 2
        lo_b, hi_b = pair // k, pair % k
        src_b, dst_b = (lo_b, hi_b) if direction == 0 else (hi_b, lo_b)
        room = int(np.floor(caps[dst_b] - work_sizes[dst_b]))
        if room <= 0:
            continue
        amount = min(room, int(s_count[cell] - matched_cell[cell]))
        if amount <= 0:
            continue
        extra[cell] = amount
        work_sizes[dst_b] += amount
        work_sizes[src_b] -= amount
    return extra


# ----------------------------------------------------------------------
# Matchers
# ----------------------------------------------------------------------
class UniformMatcher:
    """Algorithm 1's move probabilities: ``min(S_ij, S_ji) / S_ij``."""

    def __init__(self, swap_mode: str = "strict", damping: float = 1.0):
        self.swap_mode = swap_mode
        self.damping = damping

    def decide(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        gain: np.ndarray,
        k: int,
        sizes: np.ndarray,
        caps: np.ndarray,
        rng: np.random.Generator,
    ) -> SwapDecision:
        """Match positive-gain proposals pairwise per bucket pair."""
        n = src.size
        move = np.zeros(n, dtype=bool)
        positive = gain > 0
        if not positive.any():
            return SwapDecision(move=move)
        idx = np.flatnonzero(positive)
        fwd_key = src[idx].astype(np.int64) * k + dst[idx]
        unique_keys, cell_of, counts = np.unique(
            fwd_key, return_inverse=True, return_counts=True
        )
        reverse_key = (unique_keys % k) * k + unique_keys // k
        pos = np.searchsorted(unique_keys, reverse_key)
        pos_clip = np.minimum(pos, unique_keys.size - 1)
        pos_valid = (pos < unique_keys.size) & (unique_keys[pos_clip] == reverse_key)
        reverse_counts = np.where(pos_valid, counts[pos_clip], 0)
        matched = np.minimum(counts, reverse_counts).astype(np.float64) * self.damping
        if self.swap_mode == "strict":
            # Round once per unordered pair and reuse the quota in both
            # directions: rounding the i→j and j→i quotas independently
            # drifts bucket sizes whenever damping < 1.
            forward = unique_keys <= reverse_key
            quota = np.zeros(unique_keys.size, dtype=np.int64)
            quota[forward] = _stochastic_round(matched[forward], rng)
            mirror = ~forward & pos_valid
            quota[mirror] = quota[pos_clip[mirror]]
            chosen = _select_per_cell(cell_of, quota, rng)
        else:
            prob = matched / counts
            chosen = rng.random(idx.size) < prob[cell_of]
        move[idx] = chosen
        table = {
            "src": (unique_keys // k).astype(np.int32),
            "dst": (unique_keys % k).astype(np.int32),
            "bin": np.zeros(unique_keys.size, dtype=np.int32),
            "probability": matched / counts,
        }
        return SwapDecision(move=move, matched_swaps=int(move.sum()), table=table)

    def decide_paired(
        self,
        src: np.ndarray,
        gain: np.ndarray,
        num_labels: int,
        sizes: np.ndarray,
        caps: np.ndarray,
        rng: np.random.Generator,
    ) -> SwapDecision:
        """:meth:`decide` specialized to sibling pairs (``dst = src ^ 1``).

        The level-fused engine proposes every vertex toward the other side
        of its own bisection, so the directed cell is fully determined by
        the source label and the aggregation collapses to one dense
        ``bincount`` — no sort.  Semantically identical to ``decide`` with
        ``dst = src ^ 1``.
        """
        n = src.size
        move = np.zeros(n, dtype=bool)
        positive = gain > 0
        if not positive.any():
            return SwapDecision(move=move)
        idx = np.flatnonzero(positive)
        fwd = np.asarray(src, dtype=np.int64)[idx]
        counts_dir = np.bincount(fwd, minlength=num_labels)
        pair_ids = np.arange(num_labels, dtype=np.int64)
        sibling_counts = counts_dir[pair_ids ^ 1] if num_labels % 2 == 0 else None
        if sibling_counts is None:
            # Odd label count (a parked column): sibling it with itself so
            # the xor stays in range; it never holds proposals anyway.
            safe_sibling = np.minimum(pair_ids ^ 1, num_labels - 1)
            sibling_counts = counts_dir[safe_sibling]
        matched = np.minimum(counts_dir, sibling_counts).astype(np.float64) * self.damping
        if self.swap_mode == "strict":
            quota = np.zeros(num_labels, dtype=np.int64)
            even = pair_ids[(pair_ids % 2 == 0) & (pair_ids ^ 1 < num_labels)]
            quota[even] = _stochastic_round(matched[even], rng)
            odd = even + 1
            quota[odd[odd < num_labels]] = quota[even[odd < num_labels]]
            chosen = _select_per_cell(fwd, quota, rng)
        else:
            with np.errstate(invalid="ignore", divide="ignore"):
                prob = np.where(counts_dir > 0, matched / np.maximum(counts_dir, 1), 0.0)
            chosen = rng.random(idx.size) < prob[fwd]
        move[idx] = chosen
        present = np.flatnonzero(counts_dir)
        table = {
            "src": present.astype(np.int32),
            "dst": (present ^ 1).astype(np.int32),
            "bin": np.zeros(present.size, dtype=np.int32),
            "probability": matched[present] / counts_dir[present],
        }
        return SwapDecision(move=move, matched_swaps=int(move.sum()), table=table)


class HistogramMatcher:
    """Best-first bin matching with negative-bin pairing and ε extras."""

    def __init__(
        self,
        binning: GainBinning,
        allow_negative: bool = True,
        swap_mode: str = "strict",
        damping: float = 1.0,
    ):
        self.binning = binning
        self.allow_negative = allow_negative
        self.swap_mode = swap_mode
        self.damping = damping

    def decide(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        gain: np.ndarray,
        k: int,
        sizes: np.ndarray,
        caps: np.ndarray,
        rng: np.random.Generator,
    ) -> SwapDecision:
        """Histogram-match all proposals; returns per-proposal move mask."""
        n = src.size
        move = np.zeros(n, dtype=bool)
        if n == 0:
            return SwapDecision(move=move)
        bins = self.binning.bin_of(gain)
        keep = np.ones(n, dtype=bool) if self.allow_negative else bins > 0
        idx = np.flatnonzero(keep)
        if idx.size == 0:
            return SwapDecision(move=move)

        src_i = src[idx].astype(np.int64)
        dst_i = dst[idx].astype(np.int64)
        bin_i = bins[idx].astype(np.int64)
        num_ids = self.binning.num_bin_ids
        cell_key = (src_i * k + dst_i) * num_ids + self.binning.bin_key(bin_i)
        unique_cells, cell_of, cell_count = np.unique(
            cell_key, return_inverse=True, return_counts=True
        )
        pair_part = unique_cells // num_ids
        cell_src = pair_part // k
        cell_dst = pair_part % k
        cell_bin = self.binning.key_to_bin(unique_cells % num_ids)

        allowed, extras = match_histogram_cells(
            cell_src, cell_dst, cell_bin, cell_count, k, sizes, caps, self.binning,
            return_extras=True,
        )
        matched_total = int(allowed.sum())
        extras_total = int(extras.sum())
        if self.damping < 1.0:
            allowed = _stochastic_round(allowed * self.damping, rng)

        if self.swap_mode == "strict":
            chosen = _select_per_cell(cell_of, allowed, rng)
        else:
            prob = allowed / cell_count
            chosen = rng.random(idx.size) < prob[cell_of]
        move[idx] = chosen

        table = {
            "src": cell_src.astype(np.int32),
            "dst": cell_dst.astype(np.int32),
            "bin": cell_bin.astype(np.int32),
            "probability": allowed / cell_count,
        }
        return SwapDecision(
            move=move,
            matched_swaps=matched_total - extras_total,
            extra_moves=extras_total,
            table=table,
        )

    def decide_paired(
        self,
        src: np.ndarray,
        gain: np.ndarray,
        num_labels: int,
        sizes: np.ndarray,
        caps: np.ndarray,
        rng: np.random.Generator,
    ) -> SwapDecision:
        """:meth:`decide` specialized to sibling pairs (``dst = src ^ 1``).

        With the target implied by the source label, cells live in the dense
        ``source label × gain bin`` space, so the aggregation is one
        ``bincount`` plus a nonzero scan instead of a sort over composite
        keys.  Cell ordering matches :meth:`decide` (source-major, then
        bin), so on a level holding a single bucket pair the RNG stream and
        therefore the selection are bitwise identical — the property the
        k ≤ 3 fused-vs-oracle parity tests pin.
        """
        n = src.size
        move = np.zeros(n, dtype=bool)
        if n == 0:
            return SwapDecision(move=move)
        bins = self.binning.bin_of(gain)
        num_ids = self.binning.num_bin_ids
        src = np.asarray(src, dtype=np.int64)
        if self.allow_negative:
            idx = np.arange(n, dtype=np.int64)
            compact = src * num_ids + self.binning.bin_key(bins)
        else:
            idx = np.flatnonzero(bins > 0)
            if idx.size == 0:
                return SwapDecision(move=move)
            compact = src[idx] * num_ids + self.binning.bin_key(bins[idx])
        dense_count = np.bincount(compact, minlength=num_labels * num_ids)
        cells = np.flatnonzero(dense_count)
        cell_src = cells // num_ids
        cell_dst = cell_src ^ 1
        cell_bin = self.binning.key_to_bin(cells % num_ids)
        cell_count = dense_count[cells]
        allowed, extras = match_histogram_cells(
            cell_src, cell_dst, cell_bin, cell_count, num_labels, sizes, caps,
            self.binning, return_extras=True,
        )
        matched_total = int(allowed.sum())
        extras_total = int(extras.sum())
        if self.damping < 1.0:
            allowed = _stochastic_round(allowed * self.damping, rng)
        lookup = np.zeros(num_labels * num_ids, dtype=np.int64)
        lookup[cells] = np.arange(cells.size, dtype=np.int64)
        cell_of = lookup[compact]
        if self.swap_mode == "strict":
            chosen = _select_per_cell(cell_of, allowed, rng)
        else:
            prob = allowed / cell_count
            chosen = rng.random(idx.size) < prob[cell_of]
        move[idx] = chosen
        table = {
            "src": cell_src.astype(np.int32),
            "dst": cell_dst.astype(np.int32),
            "bin": cell_bin.astype(np.int32),
            "probability": allowed / cell_count,
        }
        return SwapDecision(
            move=move,
            matched_swaps=matched_total - extras_total,
            extra_moves=extras_total,
            table=table,
        )
