"""Configuration for the Social Hash Partitioner."""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..api.registry import MATCHERS, OBJECTIVES
from ..api.spec import AlgorithmSpec, ExecutionSpec, JobSpec, check_options, option, same_option

__all__ = ["SHPConfig"]


@dataclass(frozen=True)
class SHPConfig:
    """All tunables of Algorithm 1 and its Section 3.4 refinements.

    Defaults follow the paper's recommendations (Section 4.2.4): fanout
    probability ``p = 0.5``, imbalance ``ε = 0.05``, 60 refinement iterations
    for direct k-way (SHP-k) and 20 per bisection for SHP-2.  Each field is
    one declaration — type, default, range or choices, and what it does —
    checked on construction (a :class:`~repro.api.spec.SpecError`, which is
    a ``ValueError``, names the field) and, under ``algorithm.options.<field>``,
    when a :class:`~repro.api.spec.JobSpec` that sets it is built.
    """

    k: int = option(2, ge=2, help="number of buckets")
    p: float = same_option(AlgorithmSpec, "p")
    objective: str = same_option(AlgorithmSpec, "objective")
    epsilon: float = same_option(AlgorithmSpec, "epsilon")
    max_iterations: int = option(60, ge=0, help="refinement iterations for direct k-way (SHP-k)")
    iterations_per_bisection: int = option(
        20, ge=0, help="refinement iterations per bisection level in recursive mode"
    )
    convergence_fraction: float = option(
        0.001, ge=0, le=1, help="converged when the fraction of moved vertices drops below this"
    )
    matcher: str = option(
        "histogram", registry=MATCHERS,
        help="'histogram': exponential gain-bin matching (Section 3.4); 'uniform': plain "
        "min(S_ij, S_ji)/S_ij probabilities (Algorithm 1)",
    )
    swap_mode: str = option(
        "strict", choices=("strict", "bernoulli"),
        help="'strict': the master moves exactly the matched number of vertices per bin (the "
        "ideal serial implementation; keeps balance exactly); 'bernoulli': every vertex "
        "flips a coin with the broadcast probability (balance holds in expectation; what "
        "the vertex-centric engine always runs, as real Giraph must)",
    )
    allow_negative_gains: bool = option(
        True, help="let the histogram matcher pair a positive and a negative bin when the "
        "summed gain is expected positive (Section 3.4)",
    )
    use_final_pfanout: bool = option(
        True, help="during recursion, optimize the approximate final p-fanout "
        "t(1 - (1 - p/t)^r) instead of the current one (Section 3.4)",
    )
    epsilon_schedule: bool = option(
        True, help="scale epsilon by (completed splits / total splits) during recursion so "
        "early levels stay near-perfectly balanced (Section 3.4)",
    )
    move_damping: float = option(
        1.0, gt=0, le=1,
        help="multiply all move probabilities by this factor; below 1 it breaks the "
        "every-vertex-swaps-forever oscillation of perfectly symmetric instances",
    )
    num_bins: int = option(40, ge=1, help="histogram bins per sign (exponentially sized)")
    min_gain: float = option(1e-7, gt=0, help="|gain| below this falls into the zero bin")
    seed: int = same_option(JobSpec, "seed")
    track_metrics: str = option(
        "objective", choices=("none", "objective", "full"),
        help="per-iteration metric recording ('full' adds average fanout per iteration; "
        "the Figure 7 benchmark uses it)",
    )
    move_penalty: float = option(0.0, ge=0, help="incremental repartitioning: gain tax per move")
    refine_workers: int = same_option(ExecutionSpec, "refine_workers")

    def __post_init__(self) -> None:
        check_options(self)
        # Canonical registry names, so downstream dispatch can compare exactly
        # (objective == "cliquenet" for the alias "edge-cut"); frozen, hence
        # object.__setattr__.
        object.__setattr__(self, "matcher", MATCHERS.canonical(self.matcher))
        object.__setattr__(self, "objective", OBJECTIVES.canonical(self.objective))

    def with_(self, **kwargs) -> "SHPConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)
