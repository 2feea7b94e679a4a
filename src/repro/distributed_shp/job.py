"""Distributed SHP: the paper's 4-superstep protocol (Section 3.2, Figure 3).

One refinement iteration is four supersteps:

* **S1 collect** — every data vertex whose bucket changed sends a
  ``(old_bucket, new_bucket)`` delta to its adjacent query vertices (all
  vertices send their initial bucket in the first cycle).
* **S2 neighbor data** — query vertices fold deltas into their neighbor
  data ``n_i(q)`` and, if anything changed, send the (sparse) neighbor data
  to adjacent data vertices.  This is the paper's "heavy" superstep, bounded
  by ``fanout(q) · |N(q)|`` entries per query.
* **S3 propose** — data vertices recompute move gains from cached neighbor
  data, pick the best target bucket, and aggregate a
  ``(src, dst, gain-bin) → count`` histogram — cell keys under
  :meth:`~repro.core.histograms.GainBinning.cell_keys` and their counts —
  plus bucket sizes to the master.
* **S4 move** — the master matches the histogram (the same
  :func:`repro.core.swaps.match_histogram_cells` as the in-process
  optimizer) and broadcasts ``probs``: the keys of the cells that may move,
  ascending, and a probability each; each data vertex flips a coin and moves.

Two modes: ``"k"`` (direct k-way) and ``"2"`` (recursive bisection run
level-synchronously inside one job, the way the open-sourced Giraph SHP-2
operates; requires k to be a power of two).  The job *executes* the real
message protocol, so the engine's metering yields genuine per-superstep
message/byte/memory measurements for the scalability benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..core.config import SHPConfig
from ..core.histograms import GainBinning
from ..core.partition import balanced_random_assignment, capacities, validate_assignment
from ..core.swaps import match_histogram_cells
from ..distributed import ClusterSpec, GiraphEngine, JobMetrics
from ..hypergraph.bipartite import BipartiteGraph
from .columnar import SHPColumnarProgram
from .combiners import ShpDeltaCombiner

__all__ = ["DistributedSHP", "DistributedSHPResult"]


class _SHPMaster:
    """Master program: matching, convergence, level advancement."""

    def __init__(
        self,
        num_data: int,
        config: SHPConfig,
        binning: GainBinning,
        mode: str,
        max_cycles: int,
    ):
        self.num_data = num_data
        self.config = config
        self.binning = binning
        self.mode = mode
        self.max_cycles = max_cycles
        self.level = 1
        self.final_levels = int(round(math.log2(config.k))) if mode == "2" else 1
        self.cycle_in_level = 0
        self.total_cycles = 0
        self.pending_reset = False
        self.pending_advance = False
        self.moved_history: list[int] = []
        #: per cycle, the data vertices whose gain S3 actually recomputed.
        self.recomputed_history: list[int] = []

    # ------------------------------------------------------------------
    @property
    def level_k(self) -> int:
        """Bucket count at the current bisection level (k in mode 'k')."""
        return 2**self.level if self.mode == "2" else self.config.k

    def _caps(self) -> np.ndarray:
        cfg = self.config
        k_now = self.level_k
        if self.mode == "2" and cfg.epsilon_schedule:
            eps_eff = cfg.epsilon * min(1.0, k_now / cfg.k)
        else:
            eps_eff = cfg.epsilon
        return capacities(self.num_data, k_now, eps_eff)

    # ------------------------------------------------------------------
    def compute(self, superstep: int, aggregates: dict) -> dict | None:
        phase = superstep % 4
        broadcasts: dict = {"level_k": self.level_k}
        if self.mode == "2":
            broadcasts["splits_ahead"] = (
                float(self.config.k / self.level_k) if self.config.use_final_pfanout else 1.0
            )

        if phase == 0:
            if self.total_cycles:
                # No movement aggregate at all means nothing moved last cycle.
                self.moved_history.append(self._total(aggregates, "moved"))
            if self.pending_advance:
                broadcasts["advance"] = True
                self.pending_advance = False
                self.pending_reset = True
                self.level += 1
                self.cycle_in_level = 0
                broadcasts["level_k"] = self.level_k
                if self.mode == "2":
                    broadcasts["splits_ahead"] = (
                        float(self.config.k / self.level_k)
                        if self.config.use_final_pfanout
                        else 1.0
                    )
            elif self._should_stop():
                return None
        elif phase == 1 and self.pending_reset:
            broadcasts["reset"] = True
            self.pending_reset = False
        elif phase == 3:
            self.recomputed_history.append(self._total(aggregates, "recomputed"))
            broadcasts["probs"] = self._match(aggregates)
            self.cycle_in_level += 1
            self.total_cycles += 1
        return broadcasts

    # ------------------------------------------------------------------
    def _should_stop(self) -> bool:
        """Convergence / budget check at the start of each cycle."""
        if self.total_cycles == 0:
            return False
        moved = self.moved_history[-1]
        # Zero moves is convergence of this level whatever the threshold
        # (a fraction of 0 would otherwise never be "below" it).
        converged = (
            moved == 0
            or moved / max(1, self.num_data) < self.config.convergence_fraction
        )
        budget = (
            self.config.iterations_per_bisection
            if self.mode == "2"
            else self.config.max_iterations
        )
        if converged or self.cycle_in_level >= budget:
            if self.mode == "2" and self.level < self.final_levels:
                self.pending_advance = True
                return False
            return True
        return False

    # ------------------------------------------------------------------
    @staticmethod
    def _total(aggregates: dict, name: str) -> int:
        """A scalar aggregator's value (0 when no worker reported it)."""
        return int(aggregates[name][1].sum()) if name in aggregates else 0

    def _match(self, aggregates: dict) -> tuple[np.ndarray, np.ndarray]:
        """Run the shared histogram matching on the aggregated proposals:
        decode the cell keys, match, return ``(keys, probabilities)`` of
        the cells that may move (keys still ascending)."""
        keys, counts = aggregates.get("hist", (np.zeros(0, dtype=np.int64),) * 2)
        k_now = self.level_k
        src, dst, bins = self.binning.split_cell_keys(keys, k_now)
        if not self.config.allow_negative_gains:
            keep = bins > 0
            keys, counts = keys[keep], counts[keep]
            src, dst, bins = src[keep], dst[keep], bins[keep]
        sizes = np.zeros(k_now, dtype=np.int64)
        if "sizes" in aggregates:
            buckets, members = aggregates["sizes"]
            sizes[buckets] = members
        allowed, _ = match_histogram_cells(
            src, dst, bins, counts, k_now, sizes, self._caps(), self.binning
        )
        probability = self.config.move_damping * allowed / np.maximum(counts, 1)
        may_move = probability > 0.0
        return keys[may_move], probability[may_move]


@dataclass
class DistributedSHPResult:
    """Assignment plus full execution metering."""

    assignment: np.ndarray
    k: int
    mode: str
    metrics: JobMetrics
    cycles: int
    supersteps: int
    halted_by_master: bool
    moved_history: list[int] = field(default_factory=list)
    #: per protocol cycle, how many data vertices S3 recomputed (the rest
    #: kept their proposal: none of their inputs had changed).
    recomputed_history: list[int] = field(default_factory=list)
    backend: str = "sim"


class DistributedSHP:
    """Run SHP as a vertex-centric job on a Giraph-like cluster.

    ``backend`` selects the execution substrate: ``"sim"`` (in-process
    simulation, the default), ``"mp"`` (one OS process per worker),
    ``"rpc"`` (TCP workers, see :class:`repro.distributed.RpcBackend`), or
    any :class:`repro.distributed.Backend` instance.  Workers run each
    protocol phase as vectorized kernels over struct-of-arrays partitions
    exchanging typed message batches
    (:class:`~repro.distributed_shp.columnar.SHPColumnarProgram`).
    ``combiner`` enables message combining: ``True`` (or ``"delta"``) uses
    the protocol's
    :class:`~repro.distributed_shp.combiners.ShpDeltaCombiner`; a
    :class:`~repro.distributed.Combiner` instance is used as-is.  Given
    the same config and graph, every (backend, combiner) combination
    produces bit-identical assignments; meters are identical across
    backends for a fixed combiner setting.
    """

    def __init__(
        self,
        config: SHPConfig,
        cluster: ClusterSpec | None = None,
        mode: str = "2",
        backend=None,
        combiner=None,
    ):
        if mode not in ("2", "k"):
            raise ValueError("mode must be '2' or 'k'")
        if mode == "2" and (config.k & (config.k - 1)) != 0:
            raise ValueError("distributed SHP-2 requires k to be a power of two")
        if combiner in (True, "delta"):
            combiner = ShpDeltaCombiner()
        elif combiner in (False, None):
            combiner = None
        self.config = config
        self.cluster = cluster or ClusterSpec()
        self.mode = mode
        self.backend = backend
        self.combiner = combiner

    # ------------------------------------------------------------------
    def run(
        self, graph: BipartiteGraph, initial: np.ndarray | None = None
    ) -> DistributedSHPResult:
        """Execute the 4-superstep protocol; returns assignment + metering."""
        config = self.config
        rng = np.random.default_rng(config.seed)
        num_data = graph.num_data
        start_k = 2 if self.mode == "2" else config.k
        if initial is None:
            assignment = balanced_random_assignment(num_data, start_k, rng)
        else:
            assignment = np.asarray(initial, dtype=np.int32).copy()
            try:
                validate_assignment(assignment, num_data, start_k)
            except ValueError as exc:
                hint = (
                    " (mode '2' runs recursive bisection level-synchronously: "
                    "it starts at 2 buckets and descends, so the initial "
                    "assignment must be a 2-way labeling, not k-way)"
                    if self.mode == "2"
                    else ""
                )
                raise ValueError(
                    f"invalid initial assignment for distributed SHP mode "
                    f"{self.mode!r} with start bucket count {start_k}{hint}: {exc}"
                ) from exc

        binning = GainBinning(num_bins=config.num_bins, min_gain=config.min_gain)
        # The program holds the initial assignment; each worker builds its
        # own columns from it (query weights and adjacency come from the
        # shared, read-only graph), so no per-vertex object ever exists.
        program = SHPColumnarProgram(num_data, config, binning, self.mode, assignment)
        levels = int(round(math.log2(config.k))) if self.mode == "2" else 1
        budget = (
            config.iterations_per_bisection if self.mode == "2" else config.max_iterations
        )
        max_supersteps = 4 * (budget + 2) * levels + 8
        master = _SHPMaster(num_data, config, binning, self.mode, budget)

        engine = GiraphEngine(cluster=self.cluster, seed=config.seed, backend=self.backend)
        engine.load(num_data + graph.num_queries, graph=graph)
        job = engine.run(
            program, master=master, max_supersteps=max_supersteps, combiner=self.combiner
        )

        final = np.empty(num_data, dtype=np.int32)
        for dvids, bucket in job.states:
            final[dvids] = bucket
        return DistributedSHPResult(
            assignment=final,
            k=config.k,
            mode=self.mode,
            metrics=job.metrics,
            cycles=master.total_cycles,
            supersteps=job.supersteps_run,
            halted_by_master=job.halted_by_master,
            moved_history=master.moved_history,
            recomputed_history=master.recomputed_history,
            backend=engine.backend.name,
        )
