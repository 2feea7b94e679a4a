"""Property-based tests for the matcher: the histogram matcher's safety
invariants, and that its stages have one behaviour however they are reached
(either front-end, either aggregation branch, any cell order)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GainBinning, HistogramMatcher, UniformMatcher
from repro.core import swaps
from repro.core.swaps import aggregate_cells, match_histogram_cells


@st.composite
def mover_population(draw):
    """Random mover arrays over a small bucket space."""
    k = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=1, max_value=60))
    src = draw(
        st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n)
    )
    dst = []
    for s in src:
        t = draw(st.integers(min_value=0, max_value=k - 2))
        dst.append(t if t < s else t + 1)  # never propose staying
    gains = draw(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    return (
        k,
        np.array(src, dtype=np.int32),
        np.array(dst, dtype=np.int32),
        np.array(gains, dtype=np.float64),
    )


BINNING = GainBinning(num_bins=32, min_gain=1e-6)


class TestMatcherInvariants:
    @settings(max_examples=80, deadline=None)
    @given(mover_population(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_strict_mode_respects_capacities(self, population, seed):
        """With caps == current sizes, strict matching can only swap, so the
        per-bucket sizes after applying the moves are unchanged."""
        k, src, dst, gains = population
        rng = np.random.default_rng(seed)
        sizes = np.bincount(src, minlength=k).astype(np.int64)
        caps = sizes.copy()  # zero slack: only matched swaps allowed
        matcher = HistogramMatcher(BINNING, swap_mode="strict")
        decision = matcher.decide(src, dst, gains, k, sizes, caps, rng)
        after = src.copy()
        after[decision.move] = dst[decision.move]
        assert np.array_equal(np.bincount(after, minlength=k), sizes)

    @settings(max_examples=80, deadline=None)
    @given(mover_population(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_extras_never_exceed_caps(self, population, seed):
        k, src, dst, gains = population
        rng = np.random.default_rng(seed)
        sizes = np.bincount(src, minlength=k).astype(np.int64)
        caps = sizes + rng.integers(0, 5, size=k)
        matcher = HistogramMatcher(BINNING, swap_mode="strict")
        decision = matcher.decide(src, dst, gains, k, sizes, caps, rng)
        after = src.copy()
        after[decision.move] = dst[decision.move]
        assert np.all(np.bincount(after, minlength=k) <= caps)

    @settings(max_examples=60, deadline=None)
    @given(mover_population())
    def test_allowed_bounded_by_count(self, population):
        k, src, dst, gains = population
        cells, counts = np.unique(
            BINNING.cell_keys(src, dst, BINNING.bin_of(gains), k), return_counts=True
        )
        sizes = np.bincount(src, minlength=k).astype(np.int64)
        allowed, extras = match_histogram_cells(
            *BINNING.split_cell_keys(cells, k), counts, k, sizes, sizes + 3, BINNING
        )
        assert np.all(extras >= 0) and np.all(extras <= allowed)
        assert np.all(allowed >= 0)
        assert np.all(allowed <= counts)

    @settings(max_examples=40, deadline=None)
    @given(mover_population(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_matched_flows_symmetric_without_slack(self, population, seed):
        """Per bucket pair, forward and backward matched counts are equal
        when no ε slack exists (pure swap semantics)."""
        k, src, dst, gains = population
        rng = np.random.default_rng(seed)
        sizes = np.bincount(src, minlength=k).astype(np.int64)
        matcher = HistogramMatcher(BINNING, swap_mode="strict")
        decision = matcher.decide(src, dst, gains, k, sizes, sizes.copy(), rng)
        flow = np.zeros((k, k), dtype=np.int64)
        for s, d, moved in zip(src, dst, decision.move):
            if moved:
                flow[s, d] += 1
        assert np.array_equal(flow, flow.T)


# Zeros, ties, values under ``min_gain`` on both sides, and a free range.
GAINS = st.sampled_from([0.0, 5e-7, -5e-7, 0.25, 0.25, -0.25, 1.0, 3.0]) | st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False
)


@st.composite
def sibling_population(draw):
    """Proposals toward ``src ^ 1`` over 2..32 labels, some of them holding
    no proposal, an odd trailing label never (it has no sibling), with
    random ε room per label."""
    num_labels = draw(st.integers(min_value=2, max_value=32))
    paired = num_labels - num_labels % 2
    present = draw(
        st.lists(st.integers(0, paired - 1), min_size=1, max_size=paired, unique=True)
    )
    n = draw(st.integers(min_value=1, max_value=120))
    src = np.array(draw(st.lists(st.sampled_from(present), min_size=n, max_size=n)))
    gain = np.array(draw(st.lists(GAINS, min_size=n, max_size=n)), dtype=np.float64)
    sizes = np.bincount(src, minlength=num_labels).astype(np.int64)
    room = draw(st.lists(st.integers(0, 4), min_size=num_labels, max_size=num_labels))
    return num_labels, src, gain, sizes, sizes + np.array(room)


MATCHERS = {
    "uniform": lambda mode, damping: UniformMatcher(swap_mode=mode, damping=damping),
    "histogram": lambda mode, damping: HistogramMatcher(
        BINNING, swap_mode=mode, damping=damping
    ),
    "histogram-positive": lambda mode, damping: HistogramMatcher(
        BINNING, allow_negative=False, swap_mode=mode, damping=damping
    ),
}


class TestOnePipeline:
    @pytest.mark.parametrize("damping", [1.0, 0.6])
    @pytest.mark.parametrize("mode", ["strict", "bernoulli"])
    @pytest.mark.parametrize("name", MATCHERS)
    @settings(max_examples=60, deadline=None)
    @given(sibling_population(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_front_ends_agree_bitwise(self, name, mode, damping, population, seed):
        """``decide(src, src ^ 1, ...)`` and ``decide_paired(src, ...)`` return
        the same mask and leave equal-seeded generators in the same state."""
        num_labels, src, gain, sizes, caps = population
        matcher = MATCHERS[name](mode, damping)
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        explicit = matcher.decide(src, src ^ 1, gain, num_labels, sizes, caps, rng_a)
        paired = matcher.decide_paired(src, gain, num_labels, sizes, caps, rng_b)
        assert explicit.move.tobytes() == paired.move.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
        for column in ("cell_src", "cell_dst", "cell_bin", "cell_count", "quota"):
            assert np.array_equal(getattr(explicit, column), getattr(paired, column))
        # And what they agree on is legal: nobody lands over a cap.
        if mode == "strict":
            after = src.copy()
            after[paired.move] ^= 1
            assert np.all(np.bincount(after, minlength=num_labels) <= caps)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(0, 499), min_size=0, max_size=200),
        st.integers(min_value=500, max_value=100_000),
    )
    def test_aggregate_branches_return_the_same_arrays(self, keys, key_space):
        keys = np.array(keys, dtype=np.int64)
        results = []
        for slots_per_key in (0, 10**9):  # sorted branch, dense branch
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(swaps, "DENSE_SLOTS_PER_KEY", slots_per_key)
                results.append(aggregate_cells(keys, key_space))
        for sorted_column, dense_column in zip(*results, strict=True):
            assert sorted_column.dtype == dense_column.dtype
            assert np.array_equal(sorted_column, dense_column)
        cells, count, cell_of = results[0]
        assert np.array_equal(cells[cell_of], keys) and count.sum() == keys.size
        assert np.all(np.diff(cells) > 0)

    @settings(max_examples=80, deadline=None)
    @given(mover_population(), st.integers(min_value=0, max_value=2**31 - 1))
    def test_match_is_invariant_under_cell_order(self, population, seed):
        k, src, dst, gains = population
        cells, counts = np.unique(
            BINNING.cell_keys(src, dst, BINNING.bin_of(gains), k), return_counts=True
        )
        rng = np.random.default_rng(seed)
        sizes = np.bincount(src, minlength=k).astype(np.int64)
        caps = sizes + rng.integers(0, 4, size=k)
        columns = (*BINNING.split_cell_keys(cells, k), counts)
        allowed, extras = match_histogram_cells(*columns, k, sizes, caps, BINNING)
        shuffle = rng.permutation(cells.size)
        allowed_s, extras_s = match_histogram_cells(
            *(column[shuffle] for column in columns), k, sizes, caps, BINNING
        )
        assert np.array_equal(allowed[shuffle], allowed_s)
        assert np.array_equal(extras[shuffle], extras_s)
