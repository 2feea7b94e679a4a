"""Tests for the swap matchers (the 'master' logic)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import GainBinning, HistogramMatcher, UniformMatcher
from repro.core.swaps import match_histogram_cells


@pytest.fixture
def binning():
    return GainBinning(num_bins=32, min_gain=1e-6)


def make_movers(spec):
    """spec: list of (src, dst, gain, count) -> flat mover arrays."""
    src, dst, gain = [], [], []
    for s, d, g, c in spec:
        src.extend([s] * c)
        dst.extend([d] * c)
        gain.extend([g] * c)
    return (
        np.array(src, dtype=np.int32),
        np.array(dst, dtype=np.int32),
        np.array(gain, dtype=np.float64),
    )


class TestUniformMatcher:
    def test_balanced_pairs_swap_fully(self, rng):
        src, dst, gain = make_movers([(0, 1, 1.0, 5), (1, 0, 1.0, 5)])
        matcher = UniformMatcher(swap_mode="strict")
        decision = matcher.decide(
            src, dst, gain, 2, np.array([5, 5]), np.array([10, 10]), rng
        )
        assert decision.move.sum() == 10  # min(5,5) each way

    def test_unbalanced_pairs_limited(self, rng):
        src, dst, gain = make_movers([(0, 1, 1.0, 8), (1, 0, 1.0, 2)])
        matcher = UniformMatcher(swap_mode="strict")
        decision = matcher.decide(
            src, dst, gain, 2, np.array([8, 2]), np.array([10, 10]), rng
        )
        moved_fwd = decision.move[:8].sum()
        moved_bwd = decision.move[8:].sum()
        assert moved_fwd == 2 and moved_bwd == 2  # min(8,2) both directions

    def test_non_positive_gains_ignored(self, rng):
        src, dst, gain = make_movers([(0, 1, 0.0, 4), (1, 0, -1.0, 4)])
        matcher = UniformMatcher(swap_mode="strict")
        decision = matcher.decide(
            src, dst, gain, 2, np.array([4, 4]), np.array([8, 8]), rng
        )
        assert decision.move.sum() == 0

    def test_one_sided_no_moves(self, rng):
        src, dst, gain = make_movers([(0, 1, 1.0, 6)])
        matcher = UniformMatcher(swap_mode="strict")
        decision = matcher.decide(
            src, dst, gain, 2, np.array([6, 0]), np.array([6, 6]), rng
        )
        assert decision.move.sum() == 0  # S_10 = 0 -> no matched swaps

    def test_bernoulli_probability_table(self, rng):
        src, dst, gain = make_movers([(0, 1, 1.0, 100), (1, 0, 1.0, 50)])
        matcher = UniformMatcher(swap_mode="bernoulli")
        decision = matcher.decide(
            src, dst, gain, 2, np.array([100, 50]), np.array([200, 200]), rng
        )
        forward = (decision.cell_src == 0) & (decision.cell_dst == 1)
        prob_fwd = (decision.quota / decision.cell_count)[forward][0]
        assert np.isclose(prob_fwd, 0.5)  # min(100,50)/100

    def test_damping_halves_moves(self, rng):
        src, dst, gain = make_movers([(0, 1, 1.0, 100), (1, 0, 1.0, 100)])
        decision = UniformMatcher(swap_mode="strict", damping=0.5).decide(
            src, dst, gain, 2, np.array([100, 100]), np.array([200, 200]), rng
        )
        assert 70 <= decision.move.sum() <= 130  # ~50 per direction

    def test_strict_damping_preserves_balance_exactly(self):
        # Regression: the i→j and j→i quotas were stochastic-rounded
        # independently, so a fractional matched count (9 * 0.5 = 4.5)
        # could round to 4 one way and 5 the other, drifting bucket sizes
        # despite the documented "sizes are preserved exactly" contract.
        src, dst, gain = make_movers([(0, 1, 1.0, 9), (1, 0, 1.0, 9)])
        matcher = UniformMatcher(swap_mode="strict", damping=0.5)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            decision = matcher.decide(
                src, dst, gain, 2, np.array([9, 9]), np.array([18, 18]), rng
            )
            moved_fwd = int(decision.move[:9].sum())
            moved_bwd = int(decision.move[9:].sum())
            assert moved_fwd == moved_bwd

    def test_strict_damping_balance_many_pairs(self):
        # Same contract across several simultaneous bucket pairs.
        spec = [(0, 1, 1.0, 7), (1, 0, 1.0, 7), (2, 3, 1.0, 5), (3, 2, 1.0, 5)]
        src, dst, gain = make_movers(spec)
        sizes = np.array([7, 7, 5, 5])
        matcher = UniformMatcher(swap_mode="strict", damping=0.3)
        for seed in range(25):
            rng = np.random.default_rng(seed)
            decision = matcher.decide(src, dst, gain, 4, sizes, sizes * 2, rng)
            flows = np.zeros(4, dtype=np.int64)
            np.add.at(flows, dst[decision.move], 1)
            np.add.at(flows, src[decision.move], -1)
            assert np.all(flows == 0)


class TestMatchHistogramCells:
    def test_equal_bins_fully_matched(self, binning):
        # 3 movers each way in the same positive bin -> all matched.
        allowed, _ = match_histogram_cells(
            np.array([0, 1]), np.array([1, 0]), np.array([5, 5]),
            np.array([3, 3]), 2, np.array([3, 3]), np.array([3, 3]), binning,
        )
        assert allowed.tolist() == [3, 3]

    def test_best_bins_matched_first(self, binning):
        # forward: 2 movers bin 10, 2 movers bin 2; backward: 2 movers bin 1.
        # Only 2 ranks available backward -> the bin-10 movers match first.
        allowed, _ = match_histogram_cells(
            np.array([0, 0, 1]),
            np.array([1, 1, 0]),
            np.array([10, 2, 1]),
            np.array([2, 2, 2]),
            2,
            np.array([4, 2]),
            np.array([4, 2]),  # caps = sizes: no extras possible
            binning,
        )
        assert allowed.tolist() == [2, 0, 2]

    def test_positive_negative_pairing_accepted(self, binning):
        # forward bin 10 (large positive) vs backward bin -2 (small negative):
        # summed expectation positive -> swap allowed (Section 3.4).
        allowed, _ = match_histogram_cells(
            np.array([0, 1]), np.array([1, 0]), np.array([10, -2]),
            np.array([1, 1]), 2, np.array([1, 1]), np.array([1, 1]), binning,
        )
        assert allowed.tolist() == [1, 1]

    def test_positive_negative_pairing_rejected(self, binning):
        # forward bin 2 vs backward bin -10: summed expectation negative.
        allowed, _ = match_histogram_cells(
            np.array([0, 1]), np.array([1, 0]), np.array([2, -10]),
            np.array([1, 1]), 2, np.array([1, 1]), np.array([1, 1]), binning,
        )
        assert allowed.tolist() == [0, 0]

    def test_zero_bins_never_swap(self, binning):
        allowed, _ = match_histogram_cells(
            np.array([0, 1]), np.array([1, 0]), np.array([0, 0]),
            np.array([5, 5]), 2, np.array([5, 5]), np.array([5, 5]), binning,
        )
        assert allowed.tolist() == [0, 0]

    def test_extras_use_capacity(self, binning):
        # One-sided positive movers + spare capacity at the destination.
        allowed, _ = match_histogram_cells(
            np.array([0]), np.array([1]), np.array([4]), np.array([10]),
            2, np.array([20, 4]), np.array([20, 9]), binning,
        )
        assert allowed.tolist() == [5]  # room = 9 - 4

    def test_extras_respect_full_destination(self, binning):
        allowed, _ = match_histogram_cells(
            np.array([0]), np.array([1]), np.array([4]), np.array([10]),
            2, np.array([10, 10]), np.array([10, 10]), binning,
        )
        assert allowed.tolist() == [0]

    def test_extras_prefer_best_bins(self, binning):
        # Two one-sided cells to the same destination; only 3 slots free.
        allowed, _ = match_histogram_cells(
            np.array([0, 0]), np.array([1, 1]), np.array([9, 2]),
            np.array([2, 5]), 2, np.array([10, 0]), np.array([10, 3]), binning,
        )
        assert allowed.tolist() == [2, 1]  # bin 9 first, remainder to bin 2

    def test_multiple_pairs_independent(self, binning):
        # pairs (0,1) and (2,3) matched independently.
        allowed, _ = match_histogram_cells(
            np.array([0, 1, 2, 3]),
            np.array([1, 0, 3, 2]),
            np.array([5, 5, 7, 7]),
            np.array([4, 2, 1, 6]),
            4,
            np.array([4, 2, 1, 6]),
            np.array([4, 2, 1, 6]),
            binning,
        )
        assert allowed.tolist() == [2, 2, 1, 1]

    def test_empty_input(self, binning):
        empty = np.array([], dtype=np.int64)
        allowed, extras = match_histogram_cells(
            empty, empty, empty, empty, 2, np.zeros(2), np.zeros(2), binning
        )
        assert allowed.size == 0 and extras.size == 0

    def test_return_extras_alignment(self, binning):
        # One paired cell (no extras) and one one-sided cell (pure extras).
        allowed, extras = match_histogram_cells(
            np.array([0, 1, 0]),
            np.array([1, 0, 2]),
            np.array([5, 5, 4]),
            np.array([3, 3, 10]),
            3,
            np.array([20, 3, 4]),
            np.array([20, 3, 9]),
            binning,
        )
        assert allowed.tolist() == [3, 3, 5]
        assert extras.tolist() == [0, 0, 5]  # only the 0→2 cell used ε room


class TestHistogramMatcher:
    def test_strict_mode_preserves_sizes(self, binning, rng):
        src, dst, gain = make_movers(
            [(0, 1, 0.5, 20), (1, 0, 0.5, 20), (0, 1, 0.01, 7)]
        )
        sizes = np.array([27, 20])
        caps = np.array([27, 20])  # no slack: only matched swaps possible
        matcher = HistogramMatcher(binning, swap_mode="strict")
        decision = matcher.decide(src, dst, gain, 2, sizes, caps, rng)
        flows_fwd = decision.move[(src == 0)].sum()
        flows_bwd = decision.move[(src == 1)].sum()
        assert flows_fwd == flows_bwd  # exact balance preservation

    def test_bernoulli_mode_moves_in_expectation(self, binning):
        src, dst, gain = make_movers([(0, 1, 0.5, 500), (1, 0, 0.5, 500)])
        matcher = HistogramMatcher(binning, swap_mode="bernoulli")
        rng = np.random.default_rng(7)
        decision = matcher.decide(
            src, dst, gain, 2, np.array([500, 500]), np.array([500, 500]), rng
        )
        moved = decision.move.sum()
        assert 900 <= moved <= 1000  # all cells have probability 1 here

    def test_allow_negative_false_filters(self, binning, rng):
        src, dst, gain = make_movers([(0, 1, -0.5, 5), (1, 0, 5.0, 5)])
        matcher = HistogramMatcher(binning, allow_negative=False, swap_mode="strict")
        decision = matcher.decide(
            src, dst, gain, 2, np.array([5, 5]), np.array([5, 5]), rng
        )
        assert decision.move.sum() == 0  # negative side dropped -> no partner

    def test_empty_movers(self, binning, rng):
        decision = HistogramMatcher(binning).decide(
            np.array([], dtype=np.int32),
            np.array([], dtype=np.int32),
            np.array([]),
            2,
            np.zeros(2),
            np.zeros(2),
            rng,
        )
        assert decision.move.size == 0

    def test_extra_moves_counts_capacity_extras(self, binning, rng):
        # Regression: extra_moves used to report max(0, granted - realized)
        # — a shortfall, always 0 in strict mode — instead of the
        # one-directional ε-capacity extras the master actually granted.
        src, dst, gain = make_movers([(0, 1, 4.0, 10)])  # one-sided, room for 5
        decision = HistogramMatcher(binning, swap_mode="strict").decide(
            src, dst, gain, 2, np.array([20, 4]), np.array([20, 9]), rng
        )
        assert decision.extras.sum() == 5
        assert (decision.allowed - decision.extras).sum() == 0  # nothing pairwise-matched
        assert decision.move.sum() == 5

    def test_matched_swaps_excludes_extras(self, binning, rng):
        # Paired flow plus a one-sided surplus into spare capacity: the two
        # accounting channels must not bleed into each other.
        src, dst, gain = make_movers([(0, 1, 3.0, 8), (1, 0, 3.0, 4)])
        decision = HistogramMatcher(binning, swap_mode="strict").decide(
            src, dst, gain, 2, np.array([8, 4]), np.array([8, 6]), rng
        )
        assert (decision.allowed - decision.extras).sum() == 8  # 4 each way, pairwise
        assert decision.extras.sum() == 2  # leftover 0→1 movers into ε room
        assert decision.move.sum() == 10

    def test_table_probabilities_bounded(self, binning, rng):
        src, dst, gain = make_movers([(0, 1, 1.0, 10), (1, 0, 2.0, 3)])
        decision = HistogramMatcher(binning, swap_mode="strict").decide(
            src, dst, gain, 2, np.array([10, 3]), np.array([12, 12]), rng
        )
        probs = decision.quota / decision.cell_count
        assert np.all(probs >= 0) and np.all(probs <= 1)


class TestDampingRoundsPerPair:
    """``move_damping < 1`` scales the grant without unbalancing it: the
    damped quota of a bucket pair is rounded once, not per cell and
    direction (which let the largest bucket drift past the ε cap)."""

    MATCHERS = {
        "uniform": lambda binning: UniformMatcher(swap_mode="strict", damping=0.5),
        "histogram": lambda binning: HistogramMatcher(
            binning, swap_mode="strict", damping=0.5
        ),
    }

    @pytest.mark.parametrize("front_end", ["decide", "decide_paired"])
    @pytest.mark.parametrize("name", MATCHERS)
    def test_no_net_flow_without_room(self, binning, name, front_end):
        matcher = self.MATCHERS[name](binning)
        population = np.random.default_rng(0)
        src = population.integers(0, 2, 2000)
        # Many bins each way, a third of them negative.
        gain = population.exponential(0.05, 2000) * population.choice([1, 1, -1], 2000)
        sizes = np.bincount(src, minlength=2)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            if front_end == "decide":
                decision = matcher.decide(src, src ^ 1, gain, 2, sizes, sizes, rng)
            else:
                decision = matcher.decide_paired(src, gain, 2, sizes, sizes, rng)
            moved = np.bincount(src[decision.move], minlength=2)
            assert moved[0] == moved[1] > 0, (seed, moved)
            # Roughly half of what an undamped round grants.
            assert 0.4 < decision.quota.sum() / decision.allowed.sum() < 0.6

    def test_damped_quota_is_spent_best_bin_first(self, binning):
        src, dst, gain = make_movers(
            [(0, 1, 2.0, 10), (0, 1, 0.01, 10), (1, 0, 2.0, 10), (1, 0, 0.01, 10)]
        )
        sizes = np.array([20, 20])
        decision = HistogramMatcher(binning, swap_mode="strict", damping=0.5).decide(
            src, dst, gain, 2, sizes, sizes, np.random.default_rng(0)
        )
        assert decision.allowed.tolist() == [10, 10, 10, 10]
        # 20 matched each way, damped to 10: the high-gain bin takes them all.
        assert decision.quota.tolist() == [0, 10, 0, 10]
        assert gain[decision.move].min() == 2.0

    def test_extras_round_per_cell_inside_the_room(self, binning):
        src, dst, gain = make_movers([(0, 1, 4.0, 10)])  # one-sided, room for 5
        matcher = HistogramMatcher(binning, swap_mode="strict", damping=0.5)
        for seed in range(20):
            decision = matcher.decide(
                src, dst, gain, 2, np.array([20, 4]), np.array([20, 9]),
                np.random.default_rng(seed),
            )
            assert decision.extras.tolist() == [5]
            assert decision.move.sum() == decision.quota.sum() in (2, 3)
