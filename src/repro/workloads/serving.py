"""Online serving simulator: the paper's Section 5 production loop.

In production the partitioner is not a one-shot batch job: the social graph
churns continuously, traffic keeps arriving, and reshards pay per record
moved.  This module runs that loop as a repeatable scenario:

    sample Zipf traffic → replay against the sharded store → apply graph
    churn → incrementally repartition under a migration budget → re-replay

Each round reports the churn-vs-fanout-vs-latency trade-off: what the
*stale* shard map costs on the new workload, how much an in-budget repair
recovers, and how many records the repair migrated.  The CLI front-end is
``repro serve-sim``; ``benchmarks/bench_serving_throughput.py`` measures the
replay engine that makes the loop affordable at traffic scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..api.spec import AlgorithmSpec, JobSpec, ServingSpec, check_options, option, same_option
from ..core.config import SHPConfig
from ..core.incremental import budgeted_incremental_update
from ..core.shp_2 import SHP2Partitioner
from ..core.shp_k import SHPKPartitioner
from ..hypergraph.bipartite import BipartiteGraph
from ..sharding.latency import LatencyModel
from ..sharding.simulator import ReplayResult, replay_traffic
from .traffic import sample_queries

__all__ = [
    "ServingConfig",
    "RoundReport",
    "ServingOutcome",
    "ServingSimulator",
    "apply_query_churn",
]


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the serving loop (the ``[serving]`` spec keys, declared
    once there, plus what a library caller may also set)."""

    num_servers: int = same_option(ServingSpec, "servers")
    rounds: int = same_option(ServingSpec, "rounds")
    queries_per_round: int = same_option(ServingSpec, "queries_per_round")
    skew: float = same_option(ServingSpec, "skew")
    churn_fraction: float = same_option(ServingSpec, "churn_fraction")
    migration_budget: float = same_option(ServingSpec, "migration_budget")
    epsilon: float = same_option(AlgorithmSpec, "epsilon")
    move_penalty: float = option(
        0.05, ge=0, help="starting gain tax per move (escalated to meet the budget)"
    )
    repair_iterations: int = same_option(ServingSpec, "repair_iterations")
    method: str = same_option(ServingSpec, "method")
    seed: int = same_option(JobSpec, "seed")

    def __post_init__(self) -> None:
        check_options(self)


@dataclass(frozen=True)
class RoundReport:
    """One serving round: stale-map cost, repair cost, repaired-map quality."""

    round_index: int
    churn: float  # fraction of records the repair migrated
    moved_records: int
    stale_fanout: float  # stale shard map on this round's traffic
    stale_latency_ms: float
    fanout: float  # after the in-budget repair
    latency_ms: float
    p99_latency_ms: float
    requests_total: int
    records_total: int
    cpu_proxy: float

    def row(self) -> dict:
        """Flat dict for table formatting (CLI / benchmarks)."""
        return {
            "round": self.round_index,
            "churn %": round(100.0 * self.churn, 2),
            "stale fanout": round(self.stale_fanout, 2),
            "fanout": round(self.fanout, 2),
            "mean lat (t)": round(self.latency_ms, 3),
            "p99 lat (t)": round(self.p99_latency_ms, 3),
            "requests": self.requests_total,
            "CPU proxy": round(self.cpu_proxy, 1),
        }


@dataclass
class ServingOutcome:
    """Full trajectory of one simulated serving run."""

    rounds: list[RoundReport]
    final_assignment: np.ndarray
    final_graph: BipartiteGraph

    def rows(self) -> list[dict]:
        return [report.row() for report in self.rounds]

    def total_migrated(self) -> int:
        return sum(report.moved_records for report in self.rounds)


def apply_query_churn(
    graph: BipartiteGraph, fraction: float, rng: np.random.Generator
) -> BipartiteGraph:
    """Rewire a random ``fraction`` of queries (workload drift).

    Rewired queries keep their degree but redraw their pins with
    probability proportional to current data-vertex degree + 1, so churn
    follows the graph's popularity structure instead of uniform noise.
    """
    num_queries = graph.num_queries
    num_rewire = int(round(fraction * num_queries))
    if num_rewire == 0 or graph.num_data == 0:
        return graph
    rewired = rng.choice(num_queries, size=num_rewire, replace=False)
    is_rewired = np.zeros(num_queries, dtype=bool)
    is_rewired[rewired] = True
    keep_edges = ~is_rewired[graph.q_of_edge]
    degrees = graph.query_degrees[rewired]
    weights = graph.data_degrees + 1.0
    new_d = rng.choice(
        graph.num_data, size=int(degrees.sum()), p=weights / weights.sum()
    )
    new_q = np.repeat(rewired, degrees)
    return BipartiteGraph.from_edges(
        np.concatenate([graph.q_of_edge[keep_edges], new_q]),
        np.concatenate([graph.q_indices[keep_edges], new_d]),
        num_queries=num_queries,
        num_data=graph.num_data,
        data_weights=graph.data_weights,
        query_weights=graph.query_weights,
        name=graph.name,
        dedupe=True,
    )


class ServingSimulator:
    """Drive the churn → repair → replay loop over a sharded workload."""

    def __init__(
        self,
        graph: BipartiteGraph,
        config: ServingConfig,
        latency_model: LatencyModel | None = None,
        initial_assignment: np.ndarray | None = None,
    ):
        self.graph = graph
        self.config = config
        self.latency_model = latency_model or LatencyModel()
        self.initial_assignment = initial_assignment

    # ------------------------------------------------------------------
    def _partition_config(self) -> SHPConfig:
        cfg = self.config
        return SHPConfig(
            k=cfg.num_servers,
            epsilon=cfg.epsilon,
            seed=cfg.seed,
            max_iterations=cfg.repair_iterations,
            iterations_per_bisection=cfg.repair_iterations,
            move_penalty=cfg.move_penalty,
        )

    def _initial(self, graph: BipartiteGraph) -> np.ndarray:
        if self.initial_assignment is not None:
            return np.asarray(self.initial_assignment, dtype=np.int32)
        partition_config = self._partition_config().with_(move_penalty=0.0)
        if self.config.method == "2":
            return SHP2Partitioner(partition_config).partition(graph).assignment
        return SHPKPartitioner(partition_config).partition(graph).assignment

    def _replay(
        self, graph: BipartiteGraph, assignment: np.ndarray, trace: np.ndarray, seed: int
    ) -> ReplayResult:
        return replay_traffic(
            graph,
            assignment,
            self.config.num_servers,
            trace,
            self.latency_model,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def run(self) -> ServingOutcome:
        """Run ``config.rounds`` serving rounds and report each trade-off.

        Round 0 is the freshly-partitioned baseline (no churn, no repair);
        every later round drifts the workload, measures the stale map,
        repairs within the migration budget, and re-replays the same trace.
        """
        cfg = self.config
        root = np.random.SeedSequence(cfg.seed)
        churn_rng = np.random.default_rng(root.spawn(1)[0])
        trace_seeds = [
            int(child.generate_state(1)[0]) for child in root.spawn(cfg.rounds + 1)
        ]

        graph = self.graph
        assignment = self._initial(graph)
        reports: list[RoundReport] = []

        baseline_trace = sample_queries(
            graph, cfg.queries_per_round, skew=cfg.skew, seed=trace_seeds[0]
        )
        baseline = self._replay(graph, assignment, baseline_trace, seed=trace_seeds[0])
        reports.append(
            RoundReport(
                round_index=0,
                churn=0.0,
                moved_records=0,
                stale_fanout=baseline.mean_fanout(),
                stale_latency_ms=baseline.mean_latency(),
                fanout=baseline.mean_fanout(),
                latency_ms=baseline.mean_latency(),
                p99_latency_ms=baseline.latency_percentile(99),
                requests_total=baseline.requests_total,
                records_total=baseline.records_total,
                cpu_proxy=baseline.cpu_proxy(),
            )
        )

        for round_index in range(1, cfg.rounds + 1):
            graph = apply_query_churn(graph, cfg.churn_fraction, churn_rng)
            trace = sample_queries(
                graph, cfg.queries_per_round, skew=cfg.skew, seed=trace_seeds[round_index]
            )
            stale = self._replay(graph, assignment, trace, seed=trace_seeds[round_index])
            outcome = budgeted_incremental_update(
                graph,
                assignment,
                self._partition_config(),
                budget=cfg.migration_budget,
                method=cfg.method,
            )
            assignment = outcome.result.assignment
            repaired = self._replay(
                graph, assignment, trace, seed=trace_seeds[round_index]
            )
            reports.append(
                RoundReport(
                    round_index=round_index,
                    churn=outcome.churn,
                    moved_records=outcome.moved_vertices,
                    stale_fanout=stale.mean_fanout(),
                    stale_latency_ms=stale.mean_latency(),
                    fanout=repaired.mean_fanout(),
                    latency_ms=repaired.mean_latency(),
                    p99_latency_ms=repaired.latency_percentile(99),
                    requests_total=repaired.requests_total,
                    records_total=repaired.records_total,
                    cpu_proxy=repaired.cpu_proxy(),
                )
            )

        return ServingOutcome(
            rounds=reports, final_assignment=assignment, final_graph=graph
        )
