"""Exponential gain-bin histograms (Section 3.4).

The ideal serial algorithm keeps, per bucket pair, two queues of movers
sorted by gain and pairs them best-first.  The distributed version replaces
queues with fixed-size histograms whose bins grow exponentially: bin ``b``
(b ≥ 1) covers gains in ``[min_gain · 2^{b−1}, min_gain · 2^b)``; bin 0
collects gains below ``min_gain`` in magnitude ("zero" gains); negative bins
mirror positive ones.  A bin's *representative* value is its midpoint — the
expected gain of a mover in that bin — which is what lets the matcher accept
a (positive, negative) bin pair whose summed expectation is positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["GainBinning"]


@dataclass(frozen=True)
class GainBinning:
    """Signed exponential binning of move gains.

    Bin ids are signed integers in ``[-num_bins, num_bins]``; 0 is the
    zero-gain bin.  Gains beyond the largest bin are clipped into it.
    """

    num_bins: int = 40
    min_gain: float = 1e-7

    def bin_of(self, gains: np.ndarray) -> np.ndarray:
        """Map gains to signed bin ids (vectorized)."""
        gains = np.asarray(gains, dtype=np.float64)
        magnitude = np.abs(gains)
        with np.errstate(divide="ignore"):
            exponent = np.floor(np.log2(magnitude / self.min_gain)) + 1.0
        bins = np.clip(exponent, 0, self.num_bins)
        bins = np.where(magnitude < self.min_gain, 0, bins)
        return (np.sign(gains) * bins).astype(np.int32)

    def representative(self, bins: np.ndarray) -> np.ndarray:
        """Expected gain of a mover in each bin (midpoint of the bin range)."""
        bins = np.asarray(bins)
        magnitude_bin = np.abs(bins)
        lower = self.min_gain * np.power(2.0, magnitude_bin.astype(np.float64) - 1.0)
        mid = 1.5 * lower
        return np.where(magnitude_bin == 0, 0.0, np.sign(bins) * mid)

    def lower_bound(self, bins: np.ndarray) -> np.ndarray:
        """Smallest magnitude covered by each bin (0 for the zero bin)."""
        bins = np.asarray(bins)
        magnitude_bin = np.abs(bins)
        lower = self.min_gain * np.power(2.0, magnitude_bin.astype(np.float64) - 1.0)
        return np.where(magnitude_bin == 0, 0.0, np.sign(bins) * lower)

    @property
    def num_bin_ids(self) -> int:
        """Total distinct bin ids (for composite-key arithmetic)."""
        return 2 * self.num_bins + 1

    def bin_key(self, bins: np.ndarray) -> np.ndarray:
        """Shift signed bins to non-negative keys in [0, num_bin_ids)."""
        return np.asarray(bins, dtype=np.int64) + self.num_bins

    def key_to_bin(self, keys: np.ndarray) -> np.ndarray:
        return np.asarray(keys, dtype=np.int64) - self.num_bins

    def cell_keys(self, src, dst, bins, stride: int) -> np.ndarray:
        """The int64 key of each ``(source, target, gain bin)`` cell.

        ``stride`` is the number of target ids.  Ascending keys order cells
        source-major, then by target, then by bin — the order every matcher
        and the engine master see cells in.  This and
        :meth:`split_cell_keys` are the only cell-key arithmetic there is.
        """
        pair = np.asarray(src, dtype=np.int64) * stride + dst
        return pair * self.num_bin_ids + self.bin_key(bins)

    def split_cell_keys(self, keys: np.ndarray, stride: int):
        """Inverse of :meth:`cell_keys`: ``(source, target, signed bin)``."""
        pair, key = np.divmod(np.asarray(keys, dtype=np.int64), self.num_bin_ids)
        src, dst = np.divmod(pair, stride)
        return src, dst, self.key_to_bin(key)
