"""Cross-implementation consistency: distributed job vs vectorized core.

The distributed vertex program re-implements the gain math in scalar form
(`_scalar_gain_fns`) and the master re-uses `match_histogram_cells`.  These
tests pin the two implementations together so they cannot drift.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed_shp.columnar import _scalar_gain_fns
from repro.objectives import (
    CliqueNetObjective,
    FanoutObjective,
    PFanoutObjective,
    ScaledPFanout,
)


class TestScalarGainFns:
    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    def test_pfanout_matches_vectorized(self, p):
        rem, ins, ins0 = _scalar_gain_fns("pfanout", p, 1.0)
        obj = PFanoutObjective(p)
        counts = np.arange(1, 8)
        assert np.allclose([rem(int(n)) for n in counts], obj.removal_gain(counts))
        assert np.allclose([ins(int(n)) for n in counts], obj.insertion_cost(counts))
        assert ins0 == pytest.approx(float(obj.insertion_cost(np.array([0]))[0]))

    def test_fanout_matches_vectorized(self):
        rem, ins, ins0 = _scalar_gain_fns("fanout", 0.5, 1.0)
        obj = FanoutObjective()
        counts = np.arange(1, 6)
        assert np.allclose([rem(int(n)) for n in counts], obj.removal_gain(counts))
        assert np.allclose([ins(int(n)) for n in counts], obj.insertion_cost(counts))
        assert ins0 == 1.0

    def test_cliquenet_matches_vectorized(self):
        rem, ins, ins0 = _scalar_gain_fns("cliquenet", 0.5, 1.0)
        obj = CliqueNetObjective()
        counts = np.arange(1, 6)
        assert np.allclose([rem(int(n)) for n in counts], obj.removal_gain(counts))
        assert np.allclose([ins(int(n)) for n in counts], obj.insertion_cost(counts))
        assert ins0 == 0.0

    @pytest.mark.parametrize("splits", [2.0, 4.0, 64.0])
    def test_scaled_pfanout_matches_vectorized(self, splits):
        rem, ins, ins0 = _scalar_gain_fns("pfanout", 0.5, splits)
        obj = ScaledPFanout(0.5, splits_ahead=splits)
        counts = np.arange(1, 8)
        assert np.allclose([rem(int(n)) for n in counts], obj.removal_gain(counts))
        assert np.allclose([ins(int(n)) for n in counts], obj.insertion_cost(counts))


class TestMasterMatching:
    def test_master_and_matcher_agree(self):
        """The master's probability table equals the in-process matcher's
        for the same aggregated histogram."""
        from repro import SHPConfig
        from repro.core import GainBinning, HistogramMatcher
        from repro.distributed_shp.job import _SHPMaster

        config = SHPConfig(k=2, seed=0, swap_mode="bernoulli")
        binning = GainBinning(num_bins=config.num_bins, min_gain=config.min_gain)

        # A population of movers: 6 forward (bin 5), 4 backward (bin 5).
        src = np.array([0] * 6 + [1] * 4, dtype=np.int32)
        dst = np.array([1] * 6 + [0] * 4, dtype=np.int32)
        gain = np.full(10, binning.representative(np.array([5]))[0])

        sizes = np.array([6, 4], dtype=np.int64)
        caps = np.array([5, 5], dtype=np.int64)  # the master's ε capacities
        matcher = HistogramMatcher(binning, swap_mode="bernoulli")
        decision = matcher.decide(
            src, dst, gain, 2, sizes, caps, np.random.default_rng(0)
        )
        # Both sides speak cells: ascending keys under the one codec.
        local_keys = binning.cell_keys(
            decision.cell_src, decision.cell_dst, decision.cell_bin, 2
        )
        local_probs = decision.quota / decision.cell_count

        master = _SHPMaster(10, config, binning, mode="k", max_cycles=10)
        bin_id = int(binning.bin_of(gain[:1])[0])
        forward, backward = binning.cell_keys([0, 1], [1, 0], bin_id, 2).tolist()
        aggregates = {
            "hist": (np.array([forward, backward]), np.array([6, 4])),
            "sizes": (np.array([0, 1]), np.array([6, 4])),
        }
        keys, probs = master._match(aggregates)
        assert keys.dtype == np.int64 and probs.dtype == np.float64
        assert keys.tolist() == local_keys.tolist() == [forward, backward]
        assert probs.tobytes() == local_probs.tobytes()
        # 4 matched swaps + 1 ε extra into bucket 1 -> 5/6; backward all move.
        assert probs.tolist() == pytest.approx([5 / 6, 1.0])
