"""Objective interface for SHP's local search.

All objectives SHP can optimize directly are *separable* over
(query, bucket) pairs:

    objective(P) = (1/|Q|) * Σ_{q∈Q} Σ_{i=1..k} f(n_i(q))

where ``n_i(q)`` is the number of q's data neighbors in bucket ``i``.  The
local search only ever needs two derived quantities (DESIGN.md Section 4):

* ``removal_gain(n)   = f(n) − f(n−1)`` — objective reduction from removing
  one of q's neighbors from a bucket currently holding ``n`` of them;
* ``insertion_cost(n) = f(n+1) − f(n)`` — objective increase from adding a
  neighbor to a bucket currently holding ``n``.

The move gain of relocating data vertex ``v`` from bucket ``i`` to ``j`` is

    gain_j(v) = Σ_{q∈N(v)} removal_gain(n_i(q)) − insertion_cost(n_j(q)),

with *positive gain = improvement* (the negation of the paper's Eq. 1, which
computes the post-move delta; Algorithm 1's ``argmax``/``> 0`` tests match
this sign convention).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["SeparableObjective"]


class SeparableObjective(ABC):
    """A per-(query, bucket) separable minimization objective."""

    #: short name used by the registry and benchmark tables
    name: str = "objective"

    # ``buckets``, where given, is the bucket column of each element: the
    # level-fused kernels evaluate on gathered count vectors and
    # (count, column) grids rather than full |Q| × k matrices, so an
    # objective that depends on the column (per-bucket ``splits_ahead``)
    # needs the ids.  Column-independent objectives ignore it.
    @abstractmethod
    def contribution(self, counts: np.ndarray, buckets: np.ndarray | None = None) -> np.ndarray:
        """Elementwise ``f(n)`` over an integer array of neighbor counts."""

    @abstractmethod
    def removal_gain(self, counts: np.ndarray, buckets: np.ndarray | None = None) -> np.ndarray:
        """Elementwise ``f(n) − f(n−1)``; only called with ``n ≥ 1``."""

    def insertion_cost(self, counts: np.ndarray, buckets: np.ndarray | None = None) -> np.ndarray:
        """Elementwise ``f(n+1) − f(n)``: the removal gain one neighbor later."""
        return self.removal_gain(counts + 1, buckets)

    def contribution_at(self, counts: np.ndarray, buckets: np.ndarray) -> np.ndarray:
        """``contribution`` at explicit bucket columns (gathered evaluation)."""
        return self.contribution(counts, buckets)

    def value_from_counts(self, counts: np.ndarray) -> float:
        """Total objective (normalized per query) from a |Q| × k counts matrix."""
        if counts.size == 0:
            return 0.0
        num_queries = counts.shape[0]
        return float(self.contribution(counts).sum() / max(1, num_queries))

    def describe(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()})"
