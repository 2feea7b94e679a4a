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
  ``(src, dst, gain-bin) → count`` histogram plus bucket sizes to the master.
* **S4 move** — the master matches histograms (the same
  :func:`repro.core.swaps.match_histogram_cells` logic as the in-process
  optimizer) and broadcasts per-bin move probabilities; each data vertex
  flips a coin and moves.

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
from ..core.partition import balanced_random_assignment, validate_assignment
from ..core.swaps import match_histogram_cells
from ..distributed import ClusterSpec, GiraphEngine, JobMetrics
from ..hypergraph.bipartite import BipartiteGraph
from .schemas import DELTA_SCHEMA, NDATA_SCHEMA

__all__ = ["DistributedSHP", "DistributedSHPResult", "vertex_mode_names"]


def vertex_mode_names() -> list[str]:
    """Vertex execution modes accepted by :class:`DistributedSHP`."""
    return ["columnar", "dict"]

_PHASES = ("S1-collect", "S2-neighbor-data", "S3-propose", "S4-move")


def _scalar_gain_fns(objective_name: str, p: float, splits_ahead: float):
    """Scalar removal-gain / insertion-cost closures for the hot loop."""
    if objective_name == "cliquenet":
        return (lambda n: -(n - 1.0)), (lambda n: -float(n)), 0.0
    effective_p = 1.0 if objective_name == "fanout" else p
    q = 1.0 - effective_p / splits_ahead
    if q <= 0.0:
        return (
            (lambda n: 1.0 if n == 1 else 0.0),
            (lambda n: 1.0 if n == 0 else 0.0),
            1.0,
        )
    return (
        (lambda n: effective_p * q ** (n - 1)),
        (lambda n: effective_p * q**n),
        effective_p,
    )


class _SHPVertexProgram:
    """Vertex compute function for both query and data vertices.

    The program is graph-free until a backend calls :meth:`bind_graph` —
    under multiprocess execution each worker binds the shared (zero-copy)
    CSR arrays locally, so adjacency never travels through pickles.
    """

    def __init__(self, num_data: int, config: SHPConfig, binning: GainBinning, mode: str):
        self.num_data = num_data
        self.config = config
        self.binning = binning
        self.mode = mode
        # Worker-local alternation for level descent (Giraph's WorkerContext
        # permits exactly this kind of per-worker shared scratch): vertices
        # of the same bucket on the same worker alternate children, keeping
        # the split balanced to within ±(workers/2) instead of binomial drift.
        self._descent_parity: dict[tuple[int, int], int] = {}
        self._graph = None
        self._adj_cache: dict[int, np.ndarray] = {}

    def bind_graph(self, graph) -> None:
        """Attach the (read-only) bipartite graph; called by the backend."""
        self._graph = graph
        self._adj_cache = {}

    def __getstate__(self) -> dict:
        # Programs travel graph-free (the RPC backend pickles them to remote
        # workers, which bind their own graph copy); the adjacency cache is
        # derived data and would bloat every checkpoint.
        state = self.__dict__.copy()
        state["_graph"] = None
        state["_adj_cache"] = {}
        return state

    def _adjacency(self, vid: int) -> np.ndarray:
        """Engine-id neighbors of ``vid`` (queries offset by ``num_data``)."""
        adj = self._adj_cache.get(vid)
        if adj is None:
            if vid < self.num_data:
                adj = (self._graph.data_neighbors(vid) + self.num_data).astype(np.int64)
            else:
                adj = self._graph.query_neighbors(vid - self.num_data).astype(np.int64)
            self._adj_cache[vid] = adj
        return adj

    def phase_name(self, superstep: int) -> str:
        return _PHASES[superstep % 4]

    def message_schema(self, superstep: int):
        """Typed wire schema of this phase's messages (dtype-exact metering,
        shared with the columnar mode so both report identical byte meters)."""
        phase = superstep % 4
        if phase == 0:
            return DELTA_SCHEMA
        if phase == 1:
            return NDATA_SCHEMA
        return None

    # ------------------------------------------------------------------
    def compute(self, ctx, vid: int, state: dict, messages: list) -> None:
        phase = ctx.superstep % 4
        if state["kind"] == 0:
            self._compute_data(ctx, phase, state, messages)
        else:
            self._compute_query(ctx, phase, state, messages)

    # ------------------------------------------------------------------
    def _compute_data(self, ctx, phase: int, state: dict, messages: list) -> None:
        broadcasts = ctx.broadcasts
        if phase == 0:
            if broadcasts.get("advance"):
                # New bisection level: descend into a child bucket, chosen by
                # worker-local alternation so the split starts balanced.
                key = (ctx.worker_id, state["bucket"])
                child = self._descent_parity.get(key, ctx.superstep % 2)
                self._descent_parity[key] = 1 - child
                state["bucket"] = 2 * state["bucket"] + child
                state["delta"] = (None, state["bucket"])
                state["qdata"] = {}
            delta = state.pop("delta", None)
            if delta is not None:
                adj = self._adjacency(state["vid"])
                for q in adj:
                    ctx.send(int(q), ("d", delta[0], delta[1]))
                ctx.charge(len(adj))
        elif phase == 2:
            for payload in messages:
                state["qdata"][payload[1]] = (payload[2], payload[3])
            self._propose(ctx, state, broadcasts)
        elif phase == 3:
            probs = broadcasts.get("probs")
            target = state.get("target")
            if probs is None or target is None:
                return
            key = (state["bucket"], target, state.get("bin", 0))
            probability = probs.get(key, 0.0)
            if probability > 0.0 and ctx.random() < probability:
                old = state["bucket"]
                state["bucket"] = target
                state["delta"] = (old, target)
                ctx.aggregate("moved", "count", 1.0)

    def _propose(self, ctx, state: dict, broadcasts: dict) -> None:
        """Recompute gains from cached neighbor data; aggregate histogram."""
        cfg = self.config
        bucket = state["bucket"]
        qdata: dict = state["qdata"]
        splits = float(broadcasts.get("splits_ahead", 1.0))
        rem, ins, ins0 = _scalar_gain_fns(cfg.objective, cfg.p, splits)

        rsum = 0.0
        weight_sum = 0.0
        adjust: dict[int, float] = {}
        # Mode "2" runs on composite (group, side) level-fused labels —
        # bucket ``2·group + side`` — so the only reachable destination is
        # the sibling column ``bucket ^ 1``; accumulating just that term
        # keeps the adjust state at one scalar per vertex regardless of
        # how deep the level is (the whole level refines in one superstep
        # wave).  Same floats in the same order as the unrestricted fold.
        sibling = bucket ^ 1 if self.mode == "2" else None
        # Canonical ascending-query-id iteration: float accumulation order
        # is part of the wire contract with the columnar mode, whose
        # kernels sum in exactly this order (bitwise-identical gains).
        for qvid in sorted(qdata):
            weight, neighbor_data = qdata[qvid]
            weight_sum += weight
            count_here = neighbor_data.get(bucket, 1)
            rsum += weight * rem(count_here)
            if sibling is not None:
                count = neighbor_data.get(sibling)
                if count is not None:
                    adjust[sibling] = adjust.get(sibling, 0.0) + weight * (
                        ins(count) - ins0
                    )
            else:
                for other_bucket, count in sorted(neighbor_data.items()):
                    if other_bucket != bucket:
                        adjust[other_bucket] = adjust.get(other_bucket, 0.0) + weight * (
                            ins(count) - ins0
                        )
        ctx.charge(sum(len(nd) for _, nd in qdata.values()))  # reprolint: disable=REP002 -- integer edge counts: int sums are order-exact

        if sibling is not None:
            best_bucket = sibling
            best_adjust = adjust.get(sibling, 0.0)
        else:
            # Ascending-bucket iteration: ties on the minimum break toward
            # the lowest bucket id, matching the columnar argmin.
            best_bucket, best_adjust = None, 0.0
            for candidate in sorted(adjust):
                value = adjust[candidate]
                if candidate != bucket and value < best_adjust:
                    best_bucket, best_adjust = candidate, value
            if best_bucket is None:
                # No co-accessed bucket is better; fall back to any other
                # bucket (zero adjustment) — gains there are the base value.
                level_k = int(broadcasts.get("level_k", cfg.k))
                best_bucket = (bucket + 1) % level_k
                best_adjust = adjust.get(best_bucket, 0.0)

        gain = rsum - (weight_sum * ins0 + best_adjust)
        if cfg.move_penalty > 0.0:
            gain -= cfg.move_penalty
        state["target"] = int(best_bucket)
        state["gain"] = gain
        state["bin"] = int(self.binning.bin_of(np.array([gain]))[0])
        ctx.aggregate("hist", (bucket, int(best_bucket), state["bin"]), 1.0)
        ctx.aggregate("sizes", bucket, 1.0)

    # ------------------------------------------------------------------
    def _compute_query(self, ctx, phase: int, state: dict, messages: list) -> None:
        if phase != 1:
            return
        if ctx.broadcasts.get("reset"):
            state["nd"] = {}
        neighbor_data: dict = state["nd"]
        dirty = bool(messages) or ctx.broadcasts.get("reset", False)
        for payload in messages:
            if payload[0] == "dc":
                # Combined net adjustments (ShpDeltaCombiner): equivalent to
                # folding the raw deltas one by one, because the fold is a
                # per-bucket sum.  Zero entries is legal — the message still
                # marked this query dirty above.
                for bucket, net in payload[1]:
                    count = neighbor_data.get(bucket, 0) + net
                    if count <= 0:
                        neighbor_data.pop(bucket, None)
                    else:
                        neighbor_data[bucket] = count
                continue
            old, new = payload[1], payload[2]
            if old is not None:
                remaining = neighbor_data.get(old, 0) - 1
                if remaining <= 0:
                    neighbor_data.pop(old, None)
                else:
                    neighbor_data[old] = remaining
            neighbor_data[new] = neighbor_data.get(new, 0) + 1
        if dirty:
            vid_self = state["vid"]
            weight = state.get("weight", 1.0)
            adj = self._adjacency(vid_self)
            for data_vertex in adj:
                ctx.send(int(data_vertex), ("q", vid_self, weight, dict(neighbor_data)))
            ctx.charge(len(adj) * max(1, len(neighbor_data)))


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
        target = self.num_data / k_now
        cap = max(np.floor((1.0 + eps_eff) * target), np.ceil(target))
        return np.full(k_now, int(cap), dtype=np.int64)

    # ------------------------------------------------------------------
    def compute(self, superstep: int, aggregates: dict) -> dict | None:
        phase = superstep % 4
        broadcasts: dict = {"level_k": self.level_k}
        if self.mode == "2":
            broadcasts["splits_ahead"] = (
                float(self.config.k / self.level_k) if self.config.use_final_pfanout else 1.0
            )

        if phase == 0:
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
            elif self._should_stop(aggregates):
                return None
        elif phase == 1 and self.pending_reset:
            broadcasts["reset"] = True
            self.pending_reset = False
        elif phase == 3:
            broadcasts["probs"] = self._match(aggregates)
            self.cycle_in_level += 1
            self.total_cycles += 1
        return broadcasts

    # ------------------------------------------------------------------
    def _should_stop(self, aggregates: dict) -> bool:
        """Convergence / budget check at the start of each cycle."""
        if self.total_cycles == 0:
            return False
        # No movement aggregate at all means nothing moved last cycle.
        moved = int(aggregates.get("moved", {}).get("count", 0))
        self.moved_history.append(moved)
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
    def _match(self, aggregates: dict) -> dict:
        """Run the shared histogram matching on the aggregated proposals."""
        hist: dict = aggregates.get("hist", {})
        if not hist:
            return {}
        keys = list(hist.keys())
        src = np.array([key[0] for key in keys], dtype=np.int64)
        dst = np.array([key[1] for key in keys], dtype=np.int64)
        bins = np.array([key[2] for key in keys], dtype=np.int64)
        counts = np.array([hist[key] for key in keys], dtype=np.int64)
        if not self.config.allow_negative_gains:
            keep = bins > 0
            src, dst, bins, counts = src[keep], dst[keep], bins[keep], counts[keep]
            keys = [key for key, flag in zip(keys, keep.tolist()) if flag]
            if not keys:
                return {}
        k_now = self.level_k
        size_agg = aggregates.get("sizes", {})
        sizes = np.zeros(k_now, dtype=np.int64)
        for bucket, count in size_agg.items():
            sizes[int(bucket)] = int(count)
        allowed = match_histogram_cells(
            src, dst, bins, counts, k_now, sizes, self._caps(), self.binning
        )
        probability = self.config.move_damping * allowed / np.maximum(counts, 1)
        return {key: float(prob) for key, prob in zip(keys, probability) if prob > 0.0}


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
    backend: str = "sim"
    vertex_mode: str = "columnar"


class DistributedSHP:
    """Run SHP as a vertex-centric job on a Giraph-like cluster.

    ``backend`` selects the execution substrate: ``"sim"`` (in-process
    simulation, the default), ``"mp"`` (one OS process per worker),
    ``"rpc"`` (TCP workers, see :class:`repro.distributed.RpcBackend`), or
    any :class:`repro.distributed.Backend` instance.  ``vertex_mode``
    selects how workers execute vertices: ``"columnar"`` (default) runs
    each protocol phase as vectorized kernels over struct-of-arrays
    partitions exchanging typed message batches; ``"dict"`` is the
    per-vertex reference implementation.  ``combiner`` enables message
    combining: ``True`` (or ``"delta"``) uses the protocol's
    :class:`~repro.distributed_shp.combiners.ShpDeltaCombiner`; a
    :class:`~repro.distributed.Combiner` instance is used as-is.  Given
    the same config and graph, every (backend, vertex_mode, combiner)
    combination produces bit-identical assignments; meters are identical
    across backends and vertex modes for a fixed combiner setting.
    """

    def __init__(
        self,
        config: SHPConfig,
        cluster: ClusterSpec | None = None,
        mode: str = "2",
        backend=None,
        vertex_mode: str = "columnar",
        combiner=None,
    ):
        if mode not in ("2", "k"):
            raise ValueError("mode must be '2' or 'k'")
        if mode == "2" and (config.k & (config.k - 1)) != 0:
            raise ValueError("distributed SHP-2 requires k to be a power of two")
        if vertex_mode not in vertex_mode_names():
            raise ValueError(
                f"vertex_mode must be one of {vertex_mode_names()}, got {vertex_mode!r}"
            )
        if combiner in (True, "delta"):
            from .combiners import ShpDeltaCombiner

            combiner = ShpDeltaCombiner()
        elif combiner in (False, None):
            combiner = None
        self.config = config
        self.cluster = cluster or ClusterSpec()
        self.mode = mode
        self.backend = backend
        self.vertex_mode = vertex_mode
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

        # States carry no adjacency: programs read the (shared, read-only)
        # graph through ``bind_graph``, so worker partitions stay small and
        # the CSR arrays are never pickled into worker processes.
        states: dict[int, dict] = {}
        for v in range(num_data):
            states[v] = {
                "kind": 0,
                "vid": v,
                "bucket": int(assignment[v]),
                "qdata": {},
                "delta": (None, int(assignment[v])),
            }
        query_weights = (
            graph.query_weights_or_unit() if graph.query_weights is not None else None
        )
        for q in range(graph.num_queries):
            states[num_data + q] = {
                "kind": 1,
                "vid": num_data + q,
                "nd": {},
                "weight": 1.0 if query_weights is None else float(query_weights[q]),
            }

        binning = GainBinning(num_bins=config.num_bins, min_gain=config.min_gain)
        if self.vertex_mode == "columnar":
            from .columnar import SHPColumnarProgram

            program = SHPColumnarProgram(num_data, config, binning, self.mode)
        else:
            program = _SHPVertexProgram(num_data, config, binning, self.mode)
        levels = int(round(math.log2(config.k))) if self.mode == "2" else 1
        budget = (
            config.iterations_per_bisection if self.mode == "2" else config.max_iterations
        )
        max_supersteps = 4 * (budget + 2) * levels + 8
        master = _SHPMaster(num_data, config, binning, self.mode, budget)

        engine = GiraphEngine(cluster=self.cluster, seed=config.seed, backend=self.backend)
        engine.load(states, graph=graph)
        job = engine.run(
            program, master=master, max_supersteps=max_supersteps, combiner=self.combiner
        )

        final = np.empty(num_data, dtype=np.int32)
        for v in range(num_data):
            final[v] = job.states[v]["bucket"]
        return DistributedSHPResult(
            assignment=final,
            k=config.k,
            mode=self.mode,
            metrics=job.metrics,
            cycles=master.total_cycles,
            supersteps=job.supersteps_run,
            halted_by_master=job.halted_by_master,
            moved_history=master.moved_history,
            backend=engine.backend.name,
            vertex_mode=self.vertex_mode,
        )
