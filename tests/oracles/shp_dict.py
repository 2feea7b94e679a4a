"""The per-vertex twin of distributed SHP (the oracle).

``_SHPVertexProgram`` is the job's original per-vertex implementation —
one Python ``compute()`` per vertex over dict state, ~22x slower than
:class:`~repro.distributed_shp.SHPColumnarProgram` — moved here verbatim
from ``src/repro/distributed_shp/job.py`` (minus its dict-path metering
hook ``message_schema``, which has no caller left; its per-worker descent
parity now sits in ``ctx.worker_state``, i.e. in the partition, because a
program holds no per-worker state) together with the dict-side half of
``ShpDeltaCombiner``.  It exists to be compared against:
for a given seed the columnar program must produce the same assignment,
``moved_history``, superstep count and message counts.

:func:`run_dict_shp` is ``DistributedSHP.run`` for this program: same
initial assignment, same master, same superstep budget, executed through
:class:`oracles.per_vertex.PerVertexAdapter`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.config import SHPConfig
from repro.core.histograms import GainBinning
from repro.core.partition import balanced_random_assignment
from repro.distributed import ClusterSpec, GiraphEngine
from repro.distributed_shp.columnar import _PHASES, _scalar_gain_fns
from repro.distributed_shp.job import DistributedSHPResult, _SHPMaster

from .per_vertex import run_per_vertex


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
        self._graph = None
        self._adj_cache: dict[int, np.ndarray] = {}

    def bind_graph(self, graph) -> None:
        """Attach the (read-only) bipartite graph; called by the backend."""
        self._graph = graph
        self._adj_cache = {}

    # -- the adapter boundary: cells cross the engine as int64 keys ----------
    def aggregate_key(self, name: str, key, broadcasts: dict) -> int:
        """``(src, dst, bin)`` histogram keys through the one codec; the
        ``"count"`` scalars are key 0; bucket ids are themselves."""
        if name == "hist":
            level_k = int(broadcasts.get("level_k", self.config.k))
            return int(self.binning.cell_keys(*key, level_k))
        return 0 if key == "count" else key

    def decode_broadcasts(self, broadcasts: dict) -> dict:
        """``probs`` back to the ``{(src, dst, bin): probability}`` dict."""
        if "probs" not in broadcasts:
            return broadcasts
        keys, values = broadcasts["probs"]
        level_k = int(broadcasts.get("level_k", self.config.k))
        cells = zip(*(col.tolist() for col in self.binning.split_cell_keys(keys, level_k)))
        return {**broadcasts, "probs": dict(zip(cells, values.tolist()))}

    def __getstate__(self) -> dict:
        # Programs travel graph-free (the RPC backend pickles them to remote
        # workers, which bind their own graph copy); the adjacency cache is
        # derived data.
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

    phase_cycle = len(_PHASES)

    def phase_name(self, superstep: int) -> str:
        return _PHASES[superstep % 4]

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
                # worker-local alternation (Giraph's WorkerContext permits
                # exactly this kind of per-worker shared scratch): vertices
                # of the same bucket on the same worker alternate children,
                # keeping the split balanced to within ±(workers/2) instead
                # of binomial drift.
                parity = ctx.worker_state
                child = parity.get(state["bucket"], ctx.superstep % 2)
                parity[state["bucket"]] = 1 - child
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


class DictDeltaCombiner:
    """Dict-side ``ShpDeltaCombiner``: folds one destination's raw ``("d",
    old, new)`` payloads into a single ``("dc", ((bucket, net), ...))``
    payload (buckets ascending, zero nets dropped) whenever that is
    strictly smaller."""

    def combine(self, payloads: list) -> list:
        if not payloads or payloads[0][0] != "d":
            return payloads
        net: dict[int, int] = {}
        for _, old, new in payloads:
            if old is not None:
                net[old] = net.get(old, 0) - 1
            net[new] = net.get(new, 0) + 1
        entries = tuple(
            (int(b), int(c)) for b, c in sorted(net.items()) if c != 0
        )
        if len(entries) >= len(payloads):
            return payloads  # combining would not shrink the wire
        return [("dc", entries)]


def run_dict_shp(
    config: SHPConfig,
    graph,
    cluster: ClusterSpec | None = None,
    mode: str = "2",
    backend=None,
    combiner: bool = False,
) -> DistributedSHPResult:
    """Run the per-vertex SHP job; mirrors ``DistributedSHP(...).run(graph)``."""
    num_data = graph.num_data
    rng = np.random.default_rng(config.seed)
    assignment = balanced_random_assignment(num_data, 2 if mode == "2" else config.k, rng)

    # States carry no adjacency: the program reads the (shared, read-only)
    # graph through ``bind_graph``.
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
    levels = int(round(math.log2(config.k))) if mode == "2" else 1
    budget = config.iterations_per_bisection if mode == "2" else config.max_iterations
    master = _SHPMaster(num_data, config, binning, mode, budget)
    engine = GiraphEngine(cluster=cluster or ClusterSpec(), seed=config.seed, backend=backend)
    job = run_per_vertex(
        engine,
        _SHPVertexProgram(num_data, config, binning, mode),
        states,
        graph=graph,
        combiner=DictDeltaCombiner() if combiner else None,
        master=master,
        max_supersteps=4 * (budget + 2) * levels + 8,
    )
    return DistributedSHPResult(
        assignment=np.array([job.states[v]["bucket"] for v in range(num_data)], dtype=np.int32),
        k=config.k,
        mode=mode,
        metrics=job.metrics,
        cycles=master.total_cycles,
        supersteps=job.supersteps_run,
        halted_by_master=job.halted_by_master,
        moved_history=master.moved_history,
        backend=engine.backend.name,
    )
