"""Swap matching: from per-vertex move proposals to actual moves.

This module plays the role of the *master* machine (Figure 3, supersteps 3
and 4): it aggregates how many vertices in bucket ``i`` want to move to
bucket ``j`` and decides who actually moves while preserving balance.

One matcher, and what crosses between "who proposes" and "who decides" is
*cells*: int64 keys of ``(source, target, gain bin)`` triples under
:meth:`GainBinning.cell_keys`, ascending (source-major, then target, then
bin), with a count each.  Three stages, each written once:

* **aggregate** (:func:`aggregate_cells`) — per-proposal keys to cells,
  counts and each proposal's cell: one dense ``bincount`` when the key
  space is small against the input, one sort otherwise, same arrays.
* **match** (:func:`match_histogram_cells`) — the Section 3.4 master: per
  bucket pair two exponential gain histograms paired best-first (a negative
  bin may pair with a larger positive one), leftovers relocated into ε room.
  The distributed master (``repro.distributed_shp``) runs the same function
  on the histogram its workers aggregated.
* **select** (:func:`select_movers`) — a quota per cell to a mask over
  proposals: ``strict`` moves exactly the quota (the paper's ideal serial
  implementation; bucket sizes are preserved exactly), ``bernoulli`` moves
  each proposal with probability ``quota / count`` (what a distributed
  implementation must do; sizes hold in expectation).

:class:`HistogramMatcher` is that pipeline over ``2·num_bins + 1`` bins;
:class:`UniformMatcher` — Algorithm 1 verbatim: positive gains only, each
moving with probability ``min(S_ij, S_ji) / S_ij`` — is its one-bin,
no-extras case.  ``decide(src, dst, ...)`` and ``decide_paired(src, ...)``
(``dst = src ^ 1``, the level-fused refiner's sibling pairs) are two
front-ends of the one pipeline: same proposals, same bytes, same draws.

**RNG contract** (pinned by the golden histories).  With ``damping = 1``
only select draws: ``strict`` one uniform per proposal of a *partially*
granted cell, in proposal order — none when every cell is granted in full
or not at all; ``bernoulli`` one per participating proposal.
``damping < 1`` first draws one uniform per unordered pair, then one per cell.

**Damping rounds per pair.**  Rounding ``damping · allowed`` cell by cell
rounds the i→j and j→i sides of a pair independently and drifts bucket
sizes past the ε cap.  So a pair's damped swap quota is rounded once and
spent best-bin-first in both directions; ε extras are one-directional and
already inside the destination's room, so they round per cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .histograms import GainBinning

__all__ = [
    "SwapDecision",
    "UniformMatcher",
    "HistogramMatcher",
    "aggregate_cells",
    "match_histogram_cells",
    "select_movers",
]

#: Aggregate with one dense ``bincount`` while the key space has at most
#: this many slots per proposal (a scan of the slots is then cheaper than
#: sorting the keys); with one sort beyond.
DENSE_SLOTS_PER_KEY = 16


def _no_cells() -> np.ndarray:
    return np.zeros(0, dtype=np.int64)


@dataclass
class SwapDecision:
    """Outcome of one matching round: the mask, and the cells behind it.

    The cell arrays are aligned, one entry per non-empty cell in ascending
    key order.  ``allowed`` and ``extras`` are the matcher's *grants*
    (pairwise swaps plus ε-capacity extras, and the extras among them);
    ``quota`` is what is left of ``allowed`` after damping — ``strict``
    moves exactly that many, ``bernoulli`` moves each proposal with
    probability ``quota / cell_count`` (the table a master would broadcast).
    """

    move: np.ndarray  # bool per proposal, aligned with the inputs
    cell_src: np.ndarray = field(default_factory=_no_cells)
    cell_dst: np.ndarray = field(default_factory=_no_cells)
    cell_bin: np.ndarray = field(default_factory=_no_cells)
    cell_count: np.ndarray = field(default_factory=_no_cells)
    allowed: np.ndarray = field(default_factory=_no_cells)
    extras: np.ndarray = field(default_factory=_no_cells)
    quota: np.ndarray = field(default_factory=_no_cells)


def aggregate_cells(keys: np.ndarray, key_space: int):
    """Stage 1: per-proposal keys in ``[0, key_space)`` to ``(cells, count,
    cell_of)`` — the distinct keys ascending, how many proposals hold each,
    and every proposal's index into ``cells``."""
    if key_space <= DENSE_SLOTS_PER_KEY * keys.size:
        dense = np.bincount(keys, minlength=key_space)
        cells = np.flatnonzero(dense)
        slot = np.empty(key_space, dtype=np.int64)
        slot[cells] = np.arange(cells.size, dtype=np.int64)
        return cells, dense[cells], slot[keys]
    cells, cell_of, count = np.unique(keys, return_inverse=True, return_counts=True)
    return cells, count, cell_of


def match_histogram_cells(
    cell_src: np.ndarray, cell_dst: np.ndarray, cell_bin: np.ndarray, cell_count: np.ndarray,
    k: int, sizes: np.ndarray, caps: np.ndarray, binning: GainBinning,
) -> tuple[np.ndarray, np.ndarray]:
    """Stage 2: how many movers of each histogram cell may relocate.

    A *cell* is a (source bucket, target bucket, gain bin) triple with the
    number of data vertices proposing that move.  Matching is best-first per
    unordered bucket pair: the r-th best i→j mover pairs with the r-th best
    j→i mover, and a rank is accepted while the summed expected gain of its
    two bins is positive.  Leftover positive-gain movers may additionally
    move one-directionally into buckets with spare ε capacity.

    Returns ``(allowed, extras)`` per cell, aligned with the input, whose
    order does not matter: the allowed move count and the part of it
    granted out of ε capacity.
    """
    num_cells = cell_src.size
    if num_cells == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
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
        matched_per_seg[both] = matched_per_seg[both + 1] = _match_ranks(
            binning, cum, s_bin,
            seg_base[both], seg_total[both], seg_base[both + 1], seg_total[both + 1],
        )

    cell_rank_start = np.concatenate(([0], cum[:-1])) - seg_base[seg_of_cell]
    matched_cell = np.clip(matched_per_seg[seg_of_cell] - cell_rank_start, 0, s_count)

    extra_cell = _allocate_extras(
        cell_src[order], cell_dst[order], s_bin, s_count - matched_cell, sizes, caps
    )
    allowed = np.empty(num_cells, dtype=np.int64)
    allowed[order] = matched_cell + extra_cell
    extras = np.empty(num_cells, dtype=np.int64)
    extras[order] = extra_cell
    return allowed, extras


def _match_ranks(binning, cum, s_bin, base_f, total_f, base_b, total_b) -> np.ndarray:
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


def _allocate_extras(s_src, s_dst, s_bin, spare, sizes, caps) -> np.ndarray:
    """Greedy one-directional moves into under-capacity buckets.

    Processes leftover (``spare``) positive-gain cells best-bin-first, so
    the ε budget is spent on the most valuable moves (Section 3.4).
    ``sizes``/``caps`` may be real-valued (weight units, when the graph
    carries ``data_weights``); room is floored to a whole mover count, and
    the weighted post-check in the refinement loop handles any residual
    heterogeneous-weight overshoot.
    """
    extra = np.zeros(spare.size, dtype=np.int64)
    work_sizes = np.asarray(sizes, dtype=np.float64).copy()
    leftovers = np.flatnonzero((s_bin > 0) & (spare > 0))
    by_gain = leftovers[np.argsort(-s_bin[leftovers], kind="stable")]
    for cell, src_b, dst_b in zip(
        by_gain.tolist(), s_src[by_gain].tolist(), s_dst[by_gain].tolist()
    ):
        room = int(np.floor(caps[dst_b] - work_sizes[dst_b]))
        if room <= 0:
            continue
        extra[cell] = amount = min(room, int(spare[cell]))
        work_sizes[dst_b] += amount
        work_sizes[src_b] -= amount
    return extra


def _stochastic_round(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Round to integers, up with probability equal to the fractional part."""
    floor = np.floor(values)
    frac = values - floor
    return (floor + (rng.random(values.shape) < frac)).astype(np.int64)


def _damped_quota(cell_src, cell_dst, k, allowed, extras, damping, rng) -> np.ndarray:
    """``damping`` × the grant in whole movers, still balanced (cells
    ascending; the module docstring says why pairs round once)."""
    matched = allowed - extras
    # Cells are source-major, so a directed pair is one run of cells with
    # bins ascending: the movers in better bins are the rest of the run.
    directed = cell_src * k + cell_dst
    first = np.flatnonzero(np.concatenate(([True], directed[1:] != directed[:-1])))
    last = np.append(first[1:], directed.size) - 1
    run_of = np.repeat(np.arange(first.size), last - first + 1)
    cum = np.cumsum(matched)
    run_end = cum[last]
    low, high = np.minimum(cell_src, cell_dst)[first], np.maximum(cell_src, cell_dst)[first]
    pairs, _, pair_of = aggregate_cells(low * k + high, k * k)
    # Both directions of a pair were matched the same total (0 if one-sided).
    pair_quota = np.zeros(pairs.size, dtype=np.float64)
    pair_quota[pair_of] = np.diff(run_end, prepend=0)
    pair_quota = _stochastic_round(pair_quota * damping, rng)
    better = run_end[run_of] - cum
    spent = np.clip(pair_quota[pair_of][run_of] - better, 0, matched)
    return spent + _stochastic_round(extras * damping, rng)


def select_movers(cell_of, count, quota, strict: bool, rng: np.random.Generator) -> np.ndarray:
    """Stage 3: the proposals that move, given each cell's quota.

    ``strict`` picks exactly ``quota[c]`` of cell ``c``'s ``count[c]``
    proposals, uniformly at random: all movers of a cell share a gain bin,
    so the paper pairs them probabilistically, and a random subset realizes
    the same distribution with exact counts.  Randomness is only consumed
    for *partially* granted cells — cells whose quota covers every mover
    (or none) need no tie-breaking, which keeps the sort small when one
    call spans a whole recursion level.  Otherwise every proposal moves
    independently with probability ``quota / count`` of its cell.
    """
    if not strict:
        return rng.random(cell_of.size) < (quota / count)[cell_of]
    quota = np.minimum(quota, count)
    move = (quota >= count)[cell_of] & (quota[cell_of] > 0)
    partial_cell = (quota > 0) & (quota < count)
    if partial_cell.any():
        movers = np.flatnonzero(partial_cell[cell_of])
        sub_cells = cell_of[movers]
        order = np.lexsort((rng.random(movers.size), sub_cells))
        sorted_cells = sub_cells[order]
        # Rank of each mover inside its cell after the random shuffle: a
        # partial cell's proposals are all here, ``count`` of them in a row.
        cell_start = np.cumsum(np.where(partial_cell, count, 0)) - count
        rank = np.arange(movers.size, dtype=np.int64) - cell_start[sorted_cells]
        move[movers[order]] = rank < quota[sorted_cells]
    return move


# ----------------------------------------------------------------------
# Matchers: the pipeline and its two configurations
# ----------------------------------------------------------------------
class _CellMatcher:
    """Aggregate → match → select over one round's proposals.

    A subclass fixes the binning, which proposals take part
    (``allow_negative``: all of them, else only positive bins) and whether
    ε-capacity extras are granted; its ``decide`` / ``decide_paired`` are
    the two front-ends of :meth:`_decide`.
    """

    binning: GainBinning
    allow_negative: bool
    grant_extras: bool
    swap_mode: str
    damping: float

    def _bins(self, gain: np.ndarray) -> np.ndarray:
        return self.binning.bin_of(gain)

    def _decide(self, src, dst, gain, k: int, sizes, caps, rng) -> SwapDecision:
        """``dst = None``: every proposal targets its sibling ``src ^ 1``."""
        bins = self._bins(gain)
        move = np.zeros(bins.size, dtype=bool)
        keep = slice(None) if self.allow_negative else np.flatnonzero(bins > 0)
        src = np.asarray(src, dtype=np.int64)[keep]
        if src.size == 0:
            return SwapDecision(move=move)
        # A sibling target is implied by the source, so the key carries no
        # target digit: the cells live in the dense ``label × bin`` space.
        stride = 1 if dst is None else k
        keys = self.binning.cell_keys(
            src, 0 if dst is None else np.asarray(dst)[keep], bins[keep], stride
        )
        cells, count, cell_of = aggregate_cells(keys, k * stride * self.binning.num_bin_ids)
        cell_src, cell_dst, cell_bin = self.binning.split_cell_keys(cells, stride)
        if dst is None:
            cell_dst = cell_src ^ 1
        allowed, extras = match_histogram_cells(
            cell_src, cell_dst, cell_bin, count, k, sizes,
            caps if self.grant_extras else sizes, self.binning,
        )
        quota = allowed
        if self.damping < 1.0:
            quota = _damped_quota(cell_src, cell_dst, k, allowed, extras, self.damping, rng)
        move[keep] = select_movers(cell_of, count, quota, self.swap_mode == "strict", rng)
        return SwapDecision(move, cell_src, cell_dst, cell_bin, count, allowed, extras, quota)


class UniformMatcher(_CellMatcher):
    """Algorithm 1's move probabilities: ``min(S_ij, S_ji) / S_ij`` — one
    bin holding the positive gains, no ε extras."""

    binning = GainBinning(num_bins=1)
    allow_negative = False
    grant_extras = False

    def __init__(self, swap_mode: str = "strict", damping: float = 1.0):
        self.swap_mode = swap_mode
        self.damping = damping

    def _bins(self, gain: np.ndarray) -> np.ndarray:
        return (np.asarray(gain) > 0).astype(np.int64)

    def decide(self, src, dst, gain, k, sizes, caps, rng) -> SwapDecision:
        """Match positive-gain proposals pairwise per bucket pair."""
        return self._decide(src, dst, gain, k, sizes, caps, rng)

    def decide_paired(self, src, gain, num_labels, sizes, caps, rng) -> SwapDecision:
        """:meth:`decide` with ``dst = src ^ 1`` (sibling pairs)."""
        return self._decide(src, None, gain, num_labels, sizes, caps, rng)


class HistogramMatcher(_CellMatcher):
    """Best-first bin matching with negative-bin pairing and ε extras."""

    grant_extras = True

    def __init__(
        self, binning: GainBinning, allow_negative: bool = True,
        swap_mode: str = "strict", damping: float = 1.0,
    ):
        self.binning = binning
        self.allow_negative = allow_negative
        self.swap_mode = swap_mode
        self.damping = damping

    def decide(self, src, dst, gain, k, sizes, caps, rng) -> SwapDecision:
        """Histogram-match all proposals; returns per-proposal move mask."""
        return self._decide(src, dst, gain, k, sizes, caps, rng)

    def decide_paired(self, src, gain, num_labels, sizes, caps, rng) -> SwapDecision:
        """:meth:`decide` with ``dst = src ^ 1`` (sibling pairs)."""
        return self._decide(src, None, gain, num_labels, sizes, caps, rng)
