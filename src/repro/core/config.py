"""Configuration for the Social Hash Partitioner."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..api.registry import MATCHERS, OBJECTIVES

__all__ = ["SHPConfig"]


@dataclass(frozen=True)
class SHPConfig:
    """All tunables of Algorithm 1 and its Section 3.4 refinements.

    Defaults follow the paper's recommendations (Section 4.2.4): fanout
    probability ``p = 0.5``, imbalance ``ε = 0.05``, 60 refinement iterations
    for direct k-way (SHP-k) and 20 per bisection for SHP-2.

    Attributes
    ----------
    k:
        Number of buckets.
    p:
        Fanout probability for the p-fanout objective (ignored by
        ``objective="cliquenet"``; ``objective="fanout"`` forces p = 1).
    objective:
        ``"pfanout"`` | ``"fanout"`` | ``"cliquenet"``.
    epsilon:
        Allowed relative imbalance: every bucket holds at most
        ``(1 + ε) n / k`` data vertices.
    max_iterations:
        Refinement iterations for direct k-way optimization.
    iterations_per_bisection:
        Refinement iterations per bisection level in recursive mode.
    convergence_fraction:
        Converged when the fraction of moved vertices drops below this.
    matcher:
        ``"histogram"`` — exponential gain-bin matching (Section 3.4);
        ``"uniform"`` — plain ``min(S_ij, S_ji)/S_ij`` probabilities
        (Algorithm 1).
    swap_mode:
        ``"strict"`` — the master moves exactly the matched number of
        vertices per bin (the "ideal serial implementation" the paper's
        probabilities approximate; keeps balance exactly);
        ``"bernoulli"`` — every vertex flips a coin with the broadcast
        probability (the distributed approximation; balance holds in
        expectation).  The in-process optimizer defaults to strict; the
        vertex-centric engine always uses bernoulli, as real Giraph must.
    allow_negative_gains:
        Let the histogram matcher pair a positive and a negative bin when
        the summed gain is expected positive (Section 3.4).
    use_final_pfanout:
        During recursion, optimize the approximate *final* p-fanout
        ``t (1 − (1 − p/t)^r)`` instead of the current one (Section 3.4).
    epsilon_schedule:
        Scale ε by (completed splits / total splits) during recursion so
        early levels stay near-perfectly balanced (Section 3.4).
    move_damping:
        Multiply all move probabilities by this factor (≤ 1).  The paper's
        scheme can oscillate on perfectly symmetric instances (every vertex
        swaps sides forever); damping below 1 breaks such symmetry.  1.0
        disables it.
    num_bins:
        Histogram bins per sign (exponentially sized).
    min_gain:
        Gains with magnitude below this fall into the zero bin.
    seed:
        RNG seed; identical configs and graphs reproduce identical runs.
    track_metrics:
        ``"none"`` | ``"objective"`` | ``"full"`` — per-iteration metric
        recording (``"full"`` adds average fanout per iteration; used by the
        Figure 7 benchmark).
    refine_workers:
        Worker processes for SHP-2's block-parallel gain kernel
        (:mod:`repro.core.parallel_refine`).  ``1`` (default) stays
        in-process; higher values split gain computation across cores over
        shared memory while keeping assignments bitwise-identical per
        seed — a pure elapsed-time knob.
    """

    k: int = 2
    p: float = 0.5
    objective: str = "pfanout"
    epsilon: float = 0.05
    max_iterations: int = 60
    iterations_per_bisection: int = 20
    convergence_fraction: float = 0.001
    matcher: str = "histogram"
    swap_mode: str = "strict"
    allow_negative_gains: bool = True
    use_final_pfanout: bool = True
    epsilon_schedule: bool = True
    move_damping: float = 1.0
    num_bins: int = 40
    min_gain: float = 1e-7
    seed: int = 0
    track_metrics: str = "objective"
    move_penalty: float = 0.0  # incremental repartitioning: gain tax per move
    refine_workers: int = 1

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError("k must be at least 2")
        if not 0.0 < self.p <= 1.0:
            raise ValueError("p must be in (0, 1]")
        if self.epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        if self.matcher not in MATCHERS:
            raise ValueError(f"matcher must be one of {MATCHERS.names()}")
        # Canonicalize registry names so downstream dispatch can rely on
        # exact comparisons (e.g. objective == "cliquenet" for the alias
        # "edge-cut"); frozen dataclass, hence object.__setattr__.
        object.__setattr__(self, "matcher", MATCHERS.canonical(self.matcher))
        if self.swap_mode not in ("strict", "bernoulli"):
            raise ValueError("swap_mode must be 'strict' or 'bernoulli'")
        if not 0.0 < self.move_damping <= 1.0:
            raise ValueError("move_damping must be in (0, 1]")
        if self.track_metrics not in ("none", "objective", "full"):
            raise ValueError("track_metrics must be 'none', 'objective' or 'full'")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES.names()}")
        object.__setattr__(self, "objective", OBJECTIVES.canonical(self.objective))
        # bool is an int subclass; reject it explicitly like the JobSpec
        # type checks do (execution.refine_workers mirrors this rule).
        if isinstance(self.refine_workers, bool) or not isinstance(
            self.refine_workers, int
        ):
            raise ValueError(
                f"refine_workers must be an integer, got {self.refine_workers!r}"
            )
        if self.refine_workers < 1:
            raise ValueError(
                f"refine_workers must be at least 1, got {self.refine_workers!r}"
            )

    def with_(self, **kwargs) -> "SHPConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
