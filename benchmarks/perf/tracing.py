"""Outside-in span tracing: wrap each layer's public entry points for one job.

The program under test carries no tracing of its own yet (ROADMAP item 1),
so the traced pass records spans *from the benchmark's files*: every row of
:data:`BOUNDARIES` names a public function or method of one layer, and
:func:`installed` swaps a timing wrapper in for the duration of one job
and restores the original afterwards.

Two binding rules make the wrappers actually intercept calls:

* a **method** is replaced on its class, so every instance and caller sees
  the wrapper;
* a **module-level function** is replaced at every site that holds a
  reference to it — ``from .level_fuse import refine_level_fused`` copies
  the function into the importer's namespace, and the partitioner registry
  stores function objects — so :func:`_function_sites` scans the loaded
  ``repro`` modules and registries for the original object.  Modules are
  resolved through ``importlib`` (``sys.modules``), never attribute
  chains: ``repro.core.shp_2`` *as an attribute* is the function, not the
  module.

Spans live in memory (``Tracer.spans``, a list of dicts with name, layer,
start, end, parent index and counters) and are exported as Chrome-trace
JSON at the end of the benchmark.  A span's *self time* is its duration
minus the time covered by its direct children (the job is single-threaded
on the master, so children never overlap).  Work done inside ``mp`` /
``rpc`` worker processes is invisible here by construction — worker-side
kernel times come from the in-process ``sim`` pass.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

Capture = Callable[[dict, tuple, dict, Any], None]


# ----------------------------------------------------------------------
# counters recorded at the boundaries (work counts measured where it happens)
# ----------------------------------------------------------------------

def _superstep_phase(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    # Backend._execute_superstep(self, superstep, broadcasts)
    span["name"] += f".S{args[1] % 4 + 1}"


def _kernel_phase(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    # SHPColumnarProgram.compute_partition(self, ctx, part, inbox)
    span["name"] += f".S{args[1].superstep % 4 + 1}"


def _convert_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    src, dst = str(args[0]), str(args[1])
    span["name"] += src[src.rfind("."):]
    span["counters"] = {"pins": int(result.num_edges), "bytes": os.path.getsize(dst)}


def _refine_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    stats, _converged = result
    span["counters"] = {
        "iterations": len(stats),
        "moved": sum(s.moved for s in stats),
        "pins": int(args[0].num_edges),
    }


def _partition_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    span["counters"] = {"iterations": int(result.num_iterations)}


def _publish_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    # SharedArrayPool.publish(self, key, arrays)
    span["counters"] = {"bytes": sum(int(a.nbytes) for a in args[2].values())}


def _repair_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    span["counters"] = {"moved_frac": float(result.churn)}


def _replay_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    # replay_traffic(graph, assignment, num_servers, query_ids, ...)
    span["counters"] = {"queries": int(len(args[3]))}


def _combine_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    span["counters"] = {"in": len(args[1]), "out": sum(len(b) for b in result)}


def _send_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    span["counters"] = {"bytes": int(result)}


def _recv_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    span["counters"] = {"bytes": int(result[1])}


def _rpc_open_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    span["counters"] = {"setup_bytes": int(args[0]._setup_wire_bytes)}


def _engine_counters(span: dict, args: tuple, kwargs: dict, result: Any) -> None:
    """Logical meters of one DistributedSHP.run (exact counts, per seed)."""
    import numpy as np
    from repro.distributed.cluster import CostModel

    metrics = result.metrics
    steps = metrics.supersteps
    ops = np.sum([s.ops_per_worker for s in steps], axis=0)
    span["counters"] = {
        "cycles": int(result.cycles),
        "supersteps": int(result.supersteps),
        "messages": int(metrics.total_messages),
        "remote_bytes": int(metrics.total_remote_bytes),
        # First cycle = supersteps 0 (S1) and 1 (S2): the Section 3.3 bounds.
        "s1_messages": int(steps[0].total_messages),
        "s2_messages": int(steps[1].total_messages),
        "pins": int(args[1].num_edges),
        "peak_worker_bytes": float(metrics.peak_worker_memory()),
        "peak_transient_bytes": float(metrics.peak_transient_bytes()),
        "ops_imbalance": float(ops.max() / ops.mean()) if ops.mean() else 0.0,
        "wire_bytes": int(metrics.total_wire_bytes),
        "round_trip_s": float(metrics.total_round_trip_seconds),
        "modeled_s": float(metrics.modeled_seconds(CostModel())),
        "backend": result.backend,
    }


# ----------------------------------------------------------------------
# the boundary table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Boundary:
    """One traced entry point: ``layer.op`` wraps ``module:attr``."""

    layer: str
    op: str
    module: str
    attr: str
    capture: Capture | None = None


def _backend_hooks() -> list[Boundary]:
    """The documented Backend hooks, wrapped on each concrete backend."""
    rows = []
    for module, cls in (
        ("repro.distributed.backend", "SimulatedBackend"),
        ("repro.distributed.backend_mp", "MultiprocessBackend"),
        ("repro.distributed.backend_rpc", "RpcBackend"),
    ):
        open_capture = _rpc_open_counters if cls == "RpcBackend" else None
        rows += [
            Boundary("distributed.backend", "open", module, f"{cls}._open", open_capture),
            Boundary("distributed.backend", "superstep", module,
                     f"{cls}._execute_superstep", _superstep_phase),
            Boundary("distributed.backend", "finish", module, f"{cls}._finish"),
            Boundary("distributed.backend", "close", module, f"{cls}._close"),
        ]
    return rows


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("api.runner", "run", "repro.api.runner", "run"),
    Boundary("api.runner", "artifacts", "repro.api.runner", "write_artifacts"),
    Boundary("hypergraph.io", "load", "repro.hypergraph.io", "load_graph"),
    Boundary("hypergraph.io", "parse_hmetis", "repro.hypergraph.io", "read_hmetis"),
    Boundary("storage.convert", "convert", "repro.storage.convert", "convert_to_store",
             _convert_counters),
    Boundary("storage.store", "open", "repro.storage.store", "open_store_view"),
    Boundary("storage.store", "data_range", "repro.storage.store", "GraphStore.data_range"),
    Boundary("storage.store", "data_slice", "repro.storage.store", "GraphStore.data_slice"),
    Boundary("objectives.evaluate", "evaluate", "repro.objectives.evaluate",
             "evaluate_partition"),
    Boundary("baselines.streaming", "warmstart", "repro.baselines.streaming",
             "streaming_partitioner"),
    Boundary("core.shp_2", "partition", "repro.core.shp_2", "SHP2Partitioner.partition",
             _partition_counters),
    Boundary("core.level_fuse", "refine", "repro.core.level_fuse", "refine_level_fused",
             _refine_counters),
    Boundary("core.swaps", "decide", "repro.core.swaps", "HistogramMatcher.decide_paired"),
    Boundary("core.parallel_refine", "block_gains", "repro.core.parallel_refine",
             "block_pair_gains"),
    Boundary("core.parallel_refine", "pool_start", "repro.core.parallel_refine",
             "ParallelGainPool.__init__"),
    Boundary("core.parallel_refine", "publish", "repro.core.parallel_refine",
             "ParallelGainPool.publish_level"),
    Boundary("core.parallel_refine", "compute_gains", "repro.core.parallel_refine",
             "ParallelGainPool.compute_gains"),
    Boundary("core.parallel_refine", "drop", "repro.core.parallel_refine",
             "ParallelGainPool.drop_level"),
    Boundary("core.parallel_refine", "close", "repro.core.parallel_refine",
             "ParallelGainPool.close"),
    Boundary("distributed.shared_pool", "publish", "repro.distributed.shared_pool",
             "SharedArrayPool.publish", _publish_counters),
    Boundary("core.incremental", "repair", "repro.core.incremental",
             "budgeted_incremental_update", _repair_counters),
    Boundary("workloads.serving", "run", "repro.workloads.serving", "ServingSimulator.run"),
    Boundary("workloads.serving", "initial", "repro.workloads.serving",
             "ServingSimulator._initial"),
    Boundary("workloads.serving", "churn", "repro.workloads.serving", "apply_query_churn"),
    Boundary("workloads.traffic", "sample", "repro.workloads.traffic", "sample_queries"),
    Boundary("sharding.simulator", "replay", "repro.sharding.simulator", "replay_traffic",
             _replay_counters),
    Boundary("sharding.store", "plan", "repro.sharding.store",
             "ShardedKVStore.plan_multiget_batch"),
    Boundary("sharding.latency", "model", "repro.sharding.latency",
             "LatencyModel.multiget_batch"),
    Boundary("distributed_shp.job", "run", "repro.distributed_shp.job", "DistributedSHP.run",
             _engine_counters),
    Boundary("distributed.engine", "load", "repro.distributed.engine", "GiraphEngine.load"),
    Boundary("distributed.backend", "run", "repro.distributed.backend", "Backend.run"),
    *_backend_hooks(),
    Boundary("distributed.backend", "route", "repro.distributed.backend",
             "execute_worker_superstep_batch"),
    Boundary("distributed.backend_rpc", "spawn", "repro.distributed.backend_rpc",
             "RpcBackend._connect_peers"),
    Boundary("distributed_shp.columnar", "create_partition", "repro.distributed_shp.columnar",
             "SHPColumnarProgram.create_partition"),
    Boundary("distributed_shp.columnar", "compute", "repro.distributed_shp.columnar",
             "SHPColumnarProgram.compute_partition", _kernel_phase),
    Boundary("distributed_shp.columnar", "collect", "repro.distributed_shp.columnar",
             "SHPColumnarProgram.collect_states"),
    Boundary("distributed_shp.combiners", "combine", "repro.distributed_shp.combiners",
             "ShpDeltaCombiner.combine_batch", _combine_counters),
    Boundary("distributed.wire", "send", "repro.distributed.wire", "send_obj", _send_counters),
    Boundary("distributed.wire", "recv", "repro.distributed.wire", "recv_obj", _recv_counters),
)


# ----------------------------------------------------------------------
# resolution and patching
# ----------------------------------------------------------------------

def resolve(boundary: Boundary) -> tuple[Any, str, Callable]:
    """``(owner, attribute name, callable)`` of a boundary.

    ``owner`` is the module (for a function) or the class that defines the
    method.  Raises ``ImportError`` / ``AttributeError`` / ``KeyError`` /
    ``TypeError`` when the program no longer has that entry point there —
    the harness self-test turns a rename into a tier-1 failure instead of a
    silently empty layer.
    """
    owner: Any = importlib.import_module(boundary.module)
    *path, name = boundary.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    target = vars(owner)[name]
    if not callable(target):
        raise TypeError(f"{boundary.module}:{boundary.attr} is not callable")
    return owner, name, target


def _function_sites(fn: Any) -> Iterator[dict]:
    """Every namespace or registry table of ``repro`` that holds ``fn``."""
    from repro.api.registry import Registry

    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        namespace = vars(module)
        if any(value is fn for value in namespace.values()):
            yield namespace
        for value in list(namespace.values()):
            # The registry keeps the function object itself; callers reach
            # it through Registry.get, bypassing every module namespace.
            if isinstance(value, Registry) and any(
                entry is fn for entry in value._entries.values()
            ):
                yield value._entries


class Tracer:
    """In-memory span recorder (one per traced job)."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, boundary: Boundary, fn: Callable) -> Callable:
        name, layer, capture = f"{boundary.layer}.{boundary.op}", boundary.layer, boundary.capture
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = {
                "name": name,
                "layer": layer,
                "start": 0.0,
                "end": 0.0,
                "parent": stack[-1] if stack else -1,
                "counters": {},
            }
            stack.append(len(spans))
            spans.append(span)
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = clock()
                stack.pop()
            if capture is not None:
                capture(span, args, kwargs, result)
            return result

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every boundary for the duration of one job, then restore."""
    # Import every traced module first, so by-name imports between them
    # have already created the aliases _function_sites looks for.
    resolved = [(b, *resolve(b)) for b in BOUNDARIES]
    undo: list[Callable[[], None]] = []
    try:
        for boundary, owner, name, raw in resolved:
            wrapper = tracer.wrap(boundary, raw)
            if isinstance(owner, type):
                setattr(owner, name, wrapper)
                undo.append(functools.partial(setattr, owner, name, raw))
                continue
            for table in _function_sites(raw):
                for key in [k for k, v in table.items() if v is raw]:
                    table[key] = wrapper
                    undo.append(functools.partial(table.__setitem__, key, raw))
        yield
    finally:
        for restore in reversed(undo):
            restore()


# ----------------------------------------------------------------------
# span arithmetic and export
# ----------------------------------------------------------------------

def self_times(spans: list[dict]) -> list[float]:
    """Per-span self time: duration minus direct children's durations."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] >= 0:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def chrome_trace(jobs: dict[str, list[dict]]) -> dict:
    """Chrome-trace (``chrome://tracing`` / Perfetto) JSON of traced jobs.

    One process row per job id; ``ts`` / ``dur`` are whole microseconds
    from the job's first span.
    """
    events: list[dict] = []
    for pid, (job_id, spans) in enumerate(sorted(jobs.items()), start=1):
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 1, "args": {"name": job_id}}
        )
        origin = min((s["start"] for s in spans), default=0.0)
        for span in spans:
            events.append(
                {
                    "name": span["name"],
                    "cat": span["layer"],
                    "ph": "X",
                    "pid": pid,
                    "tid": 1,
                    "ts": round((span["start"] - origin) * 1e6),
                    "dur": round((span["end"] - span["start"]) * 1e6),
                    "args": {"parent": span["parent"], **span["counters"]},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
