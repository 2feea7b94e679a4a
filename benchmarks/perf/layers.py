"""Per-layer metrics derived from one traced job's spans.

:data:`PER_LAYER` is the catalogue: one row per metric — name, unit,
direction, the end-to-end metric and workload it is expected to move
(README "How the metrics interact" explains each), and how to read it off
a :class:`TraceView`.  A metric whose layer did no work in a job reads
``None`` there ("not exercised"); the driver-facing JSON prints that as 0.

Times are sums over the named span's occurrences inside the job unless a
row says otherwise; counts come from the counters recorded at the same
boundary (``tracing.py``), so ratios are measured where the work happens.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Callable

from tracing import self_times

PHASES = ("S1", "S2", "S3", "S4")


class TraceView:
    """Read-only queries over one traced job (spans + job-level facts)."""

    def __init__(
        self,
        result: dict,
        reference: "TraceView | None" = None,
        untraced: dict | None = None,
    ):
        self.workload: str = result["workload"]
        self.spans: list[dict] = result["spans"]
        self.job_spans = self.spans[: result["job_span_count"]]
        #: host-corrected and as-measured seconds of the traced job.
        self.job_s: float = result["job_s"]
        self.wall_s: float = result["wall_s"]
        self.meters: dict = result.get("meters", {})
        self.probes: dict = result.get("probes", {})
        #: the traced reference job (``engine_sim`` / ``local_serial``).
        self.reference = reference
        #: medians of the untraced reps of the same workload.
        self.untraced = untraced or {}
        self._self = self_times(self.spans)

    # -- span selection ------------------------------------------------
    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def calls(self, name: str) -> int | None:
        return len(self.named(name)) or None

    def total(self, name: str) -> float | None:
        found = self.named(name)
        return sum(s["end"] - s["start"] for s in found) if found else None

    def median(self, name: str) -> float | None:
        found = self.named(name)
        return statistics.median(s["end"] - s["start"] for s in found) if found else None

    def self_total(self, name: str) -> float | None:
        own = [self._self[i] for i, s in enumerate(self.spans) if s["name"] == name]
        return sum(own) if own else None

    def counter(self, name: str, key: str) -> float | None:
        values = [s["counters"][key] for s in self.named(name) if key in s["counters"]]
        return sum(values) if values else None

    def engine(self, key: str) -> float | None:
        """A logical meter captured at ``DistributedSHP.run``."""
        spans = self.named("distributed_shp.job.run")
        return spans[-1]["counters"].get(key) if spans else None

    # -- derived quantities --------------------------------------------
    def level_time(self, index: int) -> float | None:
        levels = self.named("core.level_fuse.refine")
        if not levels:
            return None
        # Serving runs several partitions; take the first one's levels.
        first = levels[0]["parent"]
        own = [s for s in levels if s["parent"] == first]
        return own[index]["end"] - own[index]["start"]

    def pin_iters_per_s(self) -> float | None:
        levels = self.named("core.level_fuse.refine")
        seconds = self.total("core.level_fuse.refine")
        if not levels or not seconds:
            return None
        work = sum(s["counters"]["pins"] * s["counters"]["iterations"] for s in levels)
        return work / seconds

    def unattributed_frac(self) -> float:
        covered = sum(s["end"] - s["start"] for s in self.job_spans if s["parent"] < 0)
        return max(0.0, 1.0 - covered / self.wall_s)


def _ratio(num: float | None, den: float | None) -> float | None:
    return num / den if num is not None and den else None


def _minus(a: float | None, b: float | None) -> float | None:
    return a - b if a is not None and b is not None else None


def _sum(*values: float | None) -> float | None:
    present = [v for v in values if v is not None]
    return sum(present) if present else None


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: "<end-to-end metric> on <workloads>" this metric should move.
    moves: str
    read: Callable[[TraceView], float | None]
    #: read from the reference job's trace: the in-process ``engine_sim``
    #: pass (worker-side kernels are invisible from an mp / rpc master).
    from_reference: bool = False


def _t(span: str) -> Callable[[TraceView], float | None]:
    return lambda v: v.total(span)


def _c(span: str, key: str) -> Callable[[TraceView], float | None]:
    return lambda v: v.counter(span, key)


def _e(key: str) -> Callable[[TraceView], float | None]:
    return lambda v: v.engine(key)


def _backend_rows() -> list[LayerMetric]:
    rows = [
        LayerMetric("distributed.backend.open_s", "s", "lower", "job_s on engine_*",
                    _t("distributed.backend.open")),
    ]
    for phase in PHASES:
        rows.append(
            LayerMetric(f"distributed.backend.superstep_s.{phase}", "s", "lower",
                        "job_s on engine_*", _t(f"distributed.backend.superstep.{phase}"))
        )
    rows += [
        LayerMetric("distributed.backend.master_s", "s", "lower", "job_s on engine_*",
                    lambda v: v.self_total("distributed.backend.run")),
        LayerMetric("distributed.backend.finish_s", "s", "lower", "job_s on engine_*",
                    _t("distributed.backend.finish")),
        LayerMetric("distributed.backend.close_s", "s", "lower", "job_s on engine_*",
                    _t("distributed.backend.close")),
        LayerMetric("distributed.backend.supersteps", "count", "lower", "job_s on engine_*",
                    _e("supersteps")),
        LayerMetric("distributed.backend.cycles", "count", "lower", "job_s on engine_*",
                    _e("cycles")),
    ]
    return rows


def _kernel_rows() -> list[LayerMetric]:
    both = "job_s on engine_mp and engine_rpc equally"
    rows = [
        LayerMetric("distributed_shp.columnar.create_partition_s", "s", "lower", both,
                    _t("distributed_shp.columnar.create_partition"), from_reference=True),
    ]
    for phase in PHASES:
        rows.append(
            LayerMetric(f"distributed_shp.columnar.compute_s.{phase}", "s", "lower", both,
                        _t(f"distributed_shp.columnar.compute.{phase}"), from_reference=True)
        )
    rows += [
        LayerMetric("distributed_shp.columnar.collect_s", "s", "lower", both,
                    _t("distributed_shp.columnar.collect"), from_reference=True),
        LayerMetric("distributed.backend.route_s", "s", "lower", both,
                    lambda v: v.self_total("distributed.backend.route"), from_reference=True),
        LayerMetric("distributed_shp.combiners.combine_s", "s", "lower", both,
                    _t("distributed_shp.combiners.combine"), from_reference=True),
        LayerMetric("distributed_shp.combiners.combine_ratio", "ratio", "lower", both,
                    lambda v: _ratio(v.counter("distributed_shp.combiners.combine", "out"),
                                     v.counter("distributed_shp.combiners.combine", "in")),
                    from_reference=True),
    ]
    return rows


_LOCAL = "job_s on local_serial, local_pool2, serving"
_POOL = "job_s, peak_worker_rss_mib on local_pool2"
_SERVING = "job_s on serving"
_INGEST = "job_s, peak_rss_mib on ingest"
_ENGINE = "job_s, peak_rss_mib on engine_*"
_EXACT = "identical on engine_mp and engine_rpc"
_RPC = "wire_mib, job_s on engine_rpc"

PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("hypergraph.io.load_s", "s", "lower", "job_s on local_serial, serving",
                _t("hypergraph.io.load")),
    LayerMetric("hypergraph.io.parse_hmetis_s", "s", "lower", "text-parse baseline on ingest",
                _t("hypergraph.io.parse_hmetis")),
    LayerMetric("storage.convert.hgr_s", "s", "lower", _INGEST,
                _t("storage.convert.convert.hgr")),
    LayerMetric("storage.convert.npz_s", "s", "lower", _INGEST,
                _t("storage.convert.convert.npz")),
    LayerMetric("storage.convert.pins_per_s", "1/s", "higher", _INGEST,
                lambda v: _ratio(
                    _sum(v.counter("storage.convert.convert.hgr", "pins"),
                         v.counter("storage.convert.convert.npz", "pins")),
                    _sum(v.total("storage.convert.convert.hgr"),
                         v.total("storage.convert.convert.npz")))),
    LayerMetric("storage.convert.bytes_written", "B", "lower", _INGEST,
                lambda v: _sum(v.counter("storage.convert.convert.hgr", "bytes"),
                               v.counter("storage.convert.convert.npz", "bytes"))),
    LayerMetric("storage.store.open_s", "s", "lower", "job_s on ingest, engine_*",
                _t("storage.store.open")),
    LayerMetric("storage.store.cold_evaluate_s", "s", "lower", _INGEST,
                lambda v: v.total("objectives.evaluate.evaluate")
                if v.workload == "ingest" else None),
    LayerMetric("storage.store.data_slice_s", "s", "lower", "ROADMAP item 5 on ingest",
                lambda v: _sum(v.total("storage.store.data_range"),
                               v.total("storage.store.data_slice"))),
    LayerMetric("objectives.evaluate.evaluate_s", "s", "lower", "job_s everywhere",
                _t("objectives.evaluate.evaluate")),
    LayerMetric("baselines.streaming.warmstart_s", "s", "lower",
                "stand-alone probe on the engine store (no job uses it yet)",
                _t("baselines.streaming.warmstart"), from_reference=True),
    LayerMetric("baselines.streaming.warm_fanout", "ratio", "lower",
                "stand-alone probe on the engine store (no job uses it yet)",
                lambda v: v.probes.get("warm_fanout"), from_reference=True),
    LayerMetric("core.shp_2.partition_s", "s", "lower", _LOCAL, _t("core.shp_2.partition")),
    LayerMetric("core.shp_2.self_s", "s", "lower", _LOCAL,
                lambda v: v.self_total("core.shp_2.partition")),
    LayerMetric("core.shp_2.iterations", "count", "lower", _LOCAL,
                _c("core.shp_2.partition", "iterations")),
    LayerMetric("core.level_fuse.refine_s", "s", "lower", _LOCAL,
                _t("core.level_fuse.refine")),
    LayerMetric("core.level_fuse.first_level_s", "s", "lower", _LOCAL,
                lambda v: v.level_time(0)),
    LayerMetric("core.level_fuse.last_level_s", "s", "lower", _LOCAL,
                lambda v: v.level_time(-1)),
    LayerMetric("core.level_fuse.pin_iters_per_s", "1/s", "higher", _LOCAL,
                TraceView.pin_iters_per_s),
    LayerMetric("core.level_fuse.moved_total", "count", "lower", _LOCAL,
                _c("core.level_fuse.refine", "moved")),
    LayerMetric("core.parallel_refine.block_gains_s", "s", "lower", _LOCAL,
                _t("core.parallel_refine.block_gains")),
    LayerMetric("core.parallel_refine.block_gains_calls", "count", "lower", _LOCAL,
                lambda v: v.calls("core.parallel_refine.block_gains")),
    LayerMetric("core.swaps.decide_s", "s", "lower", _LOCAL, _t("core.swaps.decide")),
    LayerMetric("core.swaps.decide_calls", "count", "lower", _LOCAL,
                lambda v: v.calls("core.swaps.decide")),
    LayerMetric("core.parallel_refine.pool_start_s", "s", "lower", _POOL,
                _t("core.parallel_refine.pool_start")),
    LayerMetric("core.parallel_refine.publish_s", "s", "lower", _POOL,
                _t("core.parallel_refine.publish")),
    LayerMetric("core.parallel_refine.compute_gains_s", "s", "lower", _POOL,
                _t("core.parallel_refine.compute_gains")),
    LayerMetric("core.parallel_refine.compute_gains_calls", "count", "lower", _POOL,
                lambda v: v.calls("core.parallel_refine.compute_gains")),
    LayerMetric("core.parallel_refine.close_s", "s", "lower", _POOL,
                _t("core.parallel_refine.close")),
    LayerMetric("core.parallel_refine.pool_speedup", "ratio", "higher", _POOL,
                lambda v: _ratio(v.reference.total("core.shp_2.partition"),
                                 v.total("core.shp_2.partition"))
                if v.reference is not None and v.workload == "local_pool2" else None),
    LayerMetric("distributed.shared_pool.publish_bytes", "B", "lower",
                "job_s, peak_worker_rss_mib on local_pool2, engine_mp",
                _c("distributed.shared_pool.publish", "bytes")),
    LayerMetric("core.incremental.repair_s", "s", "lower", _SERVING,
                lambda v: v.median("core.incremental.repair")),
    LayerMetric("core.incremental.moved_frac", "ratio", "lower", _SERVING,
                lambda v: _ratio(v.counter("core.incremental.repair", "moved_frac"),
                                 v.calls("core.incremental.repair"))),
    LayerMetric("workloads.serving.initial_s", "s", "lower", _SERVING,
                _t("workloads.serving.initial")),
    LayerMetric("workloads.serving.churn_s", "s", "lower", _SERVING,
                _t("workloads.serving.churn")),
    LayerMetric("workloads.serving.self_s", "s", "lower", _SERVING,
                lambda v: v.self_total("workloads.serving.run")),
    LayerMetric("workloads.traffic.sample_s", "s", "lower", _SERVING,
                _t("workloads.traffic.sample")),
    LayerMetric("sharding.simulator.replay_s", "s", "lower", _SERVING,
                _t("sharding.simulator.replay")),
    LayerMetric("sharding.simulator.replay_qps", "1/s", "higher", _SERVING,
                lambda v: _ratio(v.counter("sharding.simulator.replay", "queries"),
                                 v.total("sharding.simulator.replay"))),
    LayerMetric("sharding.store.plan_s", "s", "lower", _SERVING, _t("sharding.store.plan")),
    LayerMetric("sharding.latency.model_s", "s", "lower", _SERVING,
                _t("sharding.latency.model")),
    LayerMetric("distributed_shp.job.run_s", "s", "lower", _ENGINE,
                _t("distributed_shp.job.run")),
    LayerMetric("distributed_shp.job.setup_s", "s", "lower", _ENGINE,
                lambda v: _minus(v.total("distributed_shp.job.run"),
                                 v.total("distributed.backend.run"))),
    LayerMetric("distributed.engine.load_s", "s", "lower", _ENGINE,
                _t("distributed.engine.load")),
    *_backend_rows(),
    LayerMetric("distributed.backend_mp.spawn_s", "s", "lower", "job_s on engine_mp",
                lambda v: v.self_total("distributed.backend.open")
                if v.engine("backend") == "mp" else None),
    LayerMetric("distributed.backend_rpc.spawn_s", "s", "lower", "job_s on engine_rpc",
                _t("distributed.backend_rpc.spawn")),
    *_kernel_rows(),
    LayerMetric("distributed.messages.count", "count", "lower", _EXACT, _e("messages")),
    LayerMetric("distributed.messages.remote_bytes", "B", "lower", _EXACT,
                _e("remote_bytes")),
    LayerMetric("distributed.messages.S1_per_pin", "ratio", "lower", _EXACT,
                lambda v: _ratio(v.engine("s1_messages"), v.engine("pins"))),
    LayerMetric("distributed.messages.S2_per_pin", "ratio", "lower", _EXACT,
                lambda v: _ratio(v.engine("s2_messages"), v.engine("pins"))),
    LayerMetric("distributed.metrics.peak_worker_bytes", "B", "lower", _EXACT,
                _e("peak_worker_bytes")),
    LayerMetric("distributed.metrics.peak_transient_bytes", "B", "lower", _EXACT,
                _e("peak_transient_bytes")),
    LayerMetric("distributed.metrics.ops_imbalance", "ratio", "lower", _EXACT,
                _e("ops_imbalance")),
    LayerMetric("distributed.wire.bytes", "B", "lower", _RPC,
                lambda v: v.engine("wire_bytes") or None),
    LayerMetric("distributed.wire.bytes_per_superstep", "B", "lower", _RPC,
                lambda v: _ratio(v.engine("wire_bytes") or None, v.engine("supersteps"))),
    LayerMetric("distributed.wire.amplification", "ratio", "lower", _RPC,
                lambda v: _ratio(v.engine("wire_bytes") or None, v.engine("remote_bytes"))),
    LayerMetric("distributed.wire.round_trip_s", "s", "lower", _RPC,
                lambda v: v.engine("round_trip_s") or None),
    LayerMetric("distributed.wire.setup_bytes", "B", "lower", _RPC,
                _c("distributed.backend.open", "setup_bytes")),
    LayerMetric("distributed.wire.frame_mib_per_s", "MiB/s", "higher", _RPC,
                lambda v: v.probes.get("frame_mib_per_s")),
    LayerMetric("distributed.cluster.modeled_s", "s", "lower", "Section 3.3 model on engine_*",
                _e("modeled_s")),
    LayerMetric("distributed.cluster.measured_over_modeled", "ratio", "lower",
                "Section 3.3 model on engine_*",
                lambda v: _ratio(v.total("distributed.backend.run"), v.engine("modeled_s"))),
    LayerMetric("api.runner.self_s", "s", "lower", "job_s everywhere but ingest",
                lambda v: v.self_total("api.runner.run")),
    LayerMetric("api.runner.artifacts_s", "s", "lower", "jobs that write a run directory",
                _t("api.runner.artifacts")),
    LayerMetric("trace.unattributed_frac", "ratio", "lower", "trust in the breakdown",
                TraceView.unattributed_frac),
    LayerMetric("trace.overhead_frac", "ratio", "lower", "trust in the breakdown",
                lambda v: _minus(_ratio(v.job_s, v.untraced.get("job_s")), 1.0)),
    # End-to-end metrics that do not exist on every workload, so the
    # driver-facing manifest cannot bound them; from the untraced reps.
    LayerMetric("job.peak_worker_rss_mib", "MiB", "lower", "end to end, where workers exist",
                lambda v: v.untraced.get("peak_worker_rss_mib")),
    LayerMetric("job.wire_mib", "MiB", "lower", "end to end on engine_rpc",
                lambda v: v.untraced.get("wire_mib")),
    # What the host-corrected job_s was made from (hostspeed.py).
    LayerMetric("job.wall_s", "s", "lower", "the host's noise, and job_s with it",
                lambda v: v.untraced.get("wall_s")),
    LayerMetric("job.host_slowdown", "ratio", "lower", "the host's noise only",
                lambda v: v.untraced.get("host_slowdown")),
)

#: What BENCHMARK.json lists: the rows some workload of ``inputs.DRIVEN``
#: exercises.  The pool and serving rows would read 0 on every driver run.
DRIVEN_PER_LAYER = tuple(m for m in PER_LAYER if m.moves not in (_POOL, _SERVING))


def layer_metrics(
    result: dict, reference: dict | None = None, untraced: dict | None = None
) -> dict[str, float | None]:
    """Every :data:`PER_LAYER` metric of one traced job result.

    ``reference`` is the traced reference job of the workload, if it has
    one; ``untraced`` holds the medians of its untraced reps.
    """
    ref_view = TraceView(reference) if reference is not None else None
    view = TraceView(result, reference=ref_view, untraced=untraced)
    out: dict[str, float | None] = {}
    for metric in PER_LAYER:
        source = ref_view if metric.from_reference and ref_view is not None else view
        out[metric.name] = metric.read(source)
    return out
