"""Clique-net objective: the exact p → 0 limit of p-fanout (Lemma 2).

Lemma 2 shows that minimizing p-fanout as p → 0 is equivalent to minimizing
the weighted edge cut of the clique expansion, where the weight of a data
pair (u, v) is the number of queries adjacent to both.  Per query the number
of *uncut* pairs is ``Σ_i n_i(n_i−1)/2``, so we minimize the separable form

    f(n) = −n(n−1)/2

(the cut itself differs from Σ f by the constant ``deg(q)(deg(q)−1)/2``).
Optimizing this directly avoids the O(p²) floating-point cancellation a tiny
``p`` would cause, exactly as the paper recommends using Algorithm 1 "with a
small value of fanout probability" instead of materializing the clique graph.
"""

from __future__ import annotations

import numpy as np

from .base import SeparableObjective

__all__ = ["CliqueNetObjective"]


class CliqueNetObjective(SeparableObjective):
    """Weighted edge-cut via the clique-net model (p → 0 limit)."""

    name = "clique-net"

    def contribution(self, counts: np.ndarray, buckets: np.ndarray | None = None) -> np.ndarray:
        c = counts.astype(np.float64)
        return -0.5 * c * (c - 1.0)

    def removal_gain(self, counts: np.ndarray, buckets: np.ndarray | None = None) -> np.ndarray:
        # f(n) − f(n−1) = −(n−1)
        return -(counts.astype(np.float64) - 1.0)

    def cut_from_counts(self, counts: np.ndarray) -> float:
        """The actual weighted edge cut (pairs of co-queried data vertices split)."""
        deg = counts.sum(axis=1).astype(np.float64)
        total_pairs = 0.5 * (deg * (deg - 1.0)).sum()
        within = -self.contribution(counts).sum()
        return float(total_pairs - within)
