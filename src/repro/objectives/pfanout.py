"""Probabilistic fanout — the paper's central objective (Section 3.1).

``p-fanout(q) = Σ_i (1 − (1−p)^{n_i(q)})``: the expected number of servers
contacted when each neighbor is needed independently with probability ``p``.

* ``p = 1`` is plain fanout (Lemma 1); handled exactly here via the
  convention ``0^0 = 1`` so the same code path optimizes fanout directly.
* ``p → 0`` degenerates to the clique-net weighted edge cut (Lemma 2);
  optimize that limit with :class:`~repro.objectives.cliquenet.CliqueNetObjective`
  instead of a tiny ``p`` (avoids O(p²) floating-point cancellation).

:class:`ScaledPFanout` implements the Section 3.4 refinement for recursive
partitioning: while a bucket still has ``t`` final splits ahead, the
(pessimistic) contribution of a query with ``r`` neighbors in it is
``t · (1 − (1 − p/t)^r)``.  ``splits_ahead`` may be a per-bucket array, which
recursive bisection uses when a bucket span splits into uneven halves.  It
is the one body of the family: :class:`PFanoutObjective` is ``t = 1``
(``1.0 · x`` and ``1 − p/1.0`` are exact) and :class:`FanoutObjective` its
``p = 1``.
"""

from __future__ import annotations

import numpy as np

from .base import SeparableObjective

__all__ = ["PFanoutObjective", "FanoutObjective", "ScaledPFanout"]


class ScaledPFanout(SeparableObjective):
    """Final-p-fanout approximation for recursive splits (Section 3.4).

    With ``splits_ahead = t`` remaining final buckets under the current
    bucket, contribution is ``f(n) = t · (1 − (1 − p/t)^n)``, so

    * ``removal_gain(n)   = p (1 − p/t)^{n−1}``
    * ``insertion_cost(n) = p (1 − p/t)^{n}``

    ``splits_ahead`` may be an array of shape (k,), broadcast across the
    columns of a |Q| × k counts matrix or gathered at explicit ``buckets``.
    """

    def __init__(self, p: float = 0.5, splits_ahead: int | np.ndarray = 1):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"fanout probability must be in (0, 1], got {p}")
        t = np.asarray(splits_ahead, dtype=np.float64)
        if np.any(t < 1):
            raise ValueError("splits_ahead must be >= 1")
        self.p = float(p)
        self.splits_ahead = t if t.ndim else float(t)
        self.name = f"pfanout(p={self.p:g}, t={splits_ahead})"

    def _columns(self, buckets: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """``(t, q = 1 − p/t)`` per column, or per element at ``buckets``.

        The retention factor ``q`` is never negative (p ≤ 1 ≤ t) and 0 only
        for plain fanout (p = t = 1), where ``0^0 = 1`` makes ``q^n`` the
        exact indicator of ``n = 0``.
        """
        t = np.asarray(self.splits_ahead, dtype=np.float64)
        q = 1.0 - self.p / t
        if buckets is not None and t.ndim:
            t, q = t[buckets], q[buckets]
        return t, q

    def contribution(self, counts: np.ndarray, buckets: np.ndarray | None = None) -> np.ndarray:
        t, q = self._columns(buckets)
        return t * (1.0 - np.power(q, counts))

    def removal_gain(self, counts: np.ndarray, buckets: np.ndarray | None = None) -> np.ndarray:
        # f(n) − f(n−1) = p q^{n−1}; the exponent is clamped at 0 so the
        # formula can be applied to a full matrix (entries with n = 0 are
        # never gathered by the gain kernel).  At q = 0 the clamp would turn
        # n = 0 into 0^0 = 1, where the indicator of n = 1 is 0.
        _, q = self._columns(buckets)
        gain = self.p * np.power(q, np.maximum(counts - 1, 0))
        return np.where((q == 0.0) & (counts == 0), 0.0, gain) if np.any(q == 0.0) else gain

    def describe(self) -> str:
        return f"p={self.p:g}, splits_ahead={self.splits_ahead}"


class PFanoutObjective(ScaledPFanout):
    """Probabilistic fanout with fanout probability ``p`` ∈ (0, 1]."""

    def __init__(self, p: float = 0.5):
        super().__init__(p, 1)
        self.name = f"pfanout(p={self.p:g})"

    def describe(self) -> str:
        return f"p={self.p:g}"


class FanoutObjective(PFanoutObjective):
    """Plain (non-probabilistic) fanout: the p = 1 limit, computed exactly."""

    def __init__(self):
        super().__init__(p=1.0)
        self.name = "fanout"

    def describe(self) -> str:
        return "fanout (p=1)"
