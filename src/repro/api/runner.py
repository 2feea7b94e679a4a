"""``run(spec) -> RunReport``: one runner behind every entry point.

The runner turns a declarative :class:`~repro.api.spec.JobSpec` into an
actual execution: it loads the graph (file / dataset registry / Darwini
generator), dispatches to the in-process optimizer, the vertex-centric
engine (any registered backend), or the serving simulator, evaluates the
result, and — when the spec asks for it — writes a run-artifact directory:

* ``manifest.json`` — the fully resolved spec, timings, graph shape,
  execution meters (including the ``rpc`` backend's physical
  ``wire_bytes`` / ``round_trip_sec``), and final quality, so a run is
  reproducible (and auditable) from a single file;
* ``assignment.npz`` — the final assignment (+ ``k``), loadable by
  :func:`repro.core.persistence.load_assignment`;
* ``metrics.jsonl`` — one JSON record per iteration / superstep phase /
  serving round, for offline analysis without re-running.

Every CLI subcommand (``partition``, ``compare``, ``serve-sim``,
``repro run``) is a thin adapter over this function, so legacy flags and
spec files produce bitwise-identical assignments per seed (pinned by
``tests/test_spec_cli_parity.py``).
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from .. import __version__
from ..core.config import SHPConfig
from ..core.persistence import save_assignment
from ..hypergraph import BipartiteGraph, darwini_bipartite, load_dataset, load_graph
from ..objectives import PartitionQuality, evaluate_partition
from .registry import BACKENDS, PARTITIONERS
from .spec import JobSpec

__all__ = [
    "run",
    "RunReport",
    "RunArtifacts",
    "load_run",
    "load_graph_spec",
    "smoke_spec",
]

MANIFEST_NAME = "manifest.json"
ASSIGNMENT_NAME = "assignment.npz"
METRICS_NAME = "metrics.jsonl"
MANIFEST_VERSION = 1


@dataclass
class RunReport:
    """Everything one job run produced, in memory."""

    spec: JobSpec
    label: str
    graph_name: str
    elapsed_sec: float
    assignment: np.ndarray | None = None
    k: int | None = None
    quality: PartitionQuality | None = None
    #: flat table rows for display (quality summary or per-round reports).
    rows: list[dict] = field(default_factory=list)
    #: execution meters (messages/bytes/cycles, migration totals, ...).
    meters: dict = field(default_factory=dict)
    #: per-iteration / per-round metric records (the ``metrics.jsonl`` body).
    metrics: list[dict] = field(default_factory=list)
    #: artifact directory, set when the spec requested one.
    artifacts: Path | None = None

    @property
    def kind(self) -> str:
        return self.spec.kind

    def title(self) -> str:
        """One-line heading for table rendering."""
        return f"{self.graph_name or 'workload'} — {self.label}"


@dataclass(frozen=True)
class RunArtifacts:
    """A run-artifact directory read back from disk."""

    manifest: dict
    assignment: np.ndarray | None
    k: int | None
    metrics: list[dict]

    def spec(self) -> JobSpec:
        """Re-validate and return the manifest's resolved spec."""
        return JobSpec.from_dict(self.manifest["spec"])


# ----------------------------------------------------------------------
# graph loading
# ----------------------------------------------------------------------

def load_graph_spec(spec: JobSpec) -> BipartiteGraph:
    """Materialize the graph a spec names (with preprocessing applied)."""
    g = spec.graph
    g.require_source_fields()
    if g.source == "file":
        graph = load_graph(g.path)
    elif g.source == "dataset":
        graph = load_dataset(g.dataset, scale=g.scale, seed=spec.seed)
    else:  # darwini
        graph = darwini_bipartite(
            g.users,
            avg_degree=g.avg_degree,
            clustering=g.clustering,
            seed=spec.seed,
        )
    if g.remove_small_queries:
        graph = graph.remove_small_queries()
    return graph


def smoke_spec(spec: JobSpec) -> JobSpec:
    """Shrink a spec for CI smoke runs (same shape, tiny budgets)."""
    graph = dataclasses.replace(
        spec.graph,
        scale=min(spec.graph.scale, 0.002),
        users=min(spec.graph.users, 2000),
    )
    serving = dataclasses.replace(
        spec.serving,
        rounds=min(spec.serving.rounds, 2),
        queries_per_round=min(spec.serving.queries_per_round, 300),
        repair_iterations=min(spec.serving.repair_iterations, 5),
    )
    algorithm = spec.algorithm
    if PARTITIONERS.meta(algorithm.name).get("config") is not None:
        # SHP family: cap the refinement budgets (other baselines take no
        # iteration knobs and are already fast at smoke graph sizes).
        options = dict(algorithm.options)
        options.setdefault("max_iterations", 8)
        options.setdefault("iterations_per_bisection", 6)
        algorithm = dataclasses.replace(algorithm, options=options)
    return dataclasses.replace(spec, graph=graph, serving=serving, algorithm=algorithm)


# ----------------------------------------------------------------------
# execution dispatch
# ----------------------------------------------------------------------

def _shp_config(spec: JobSpec, **fixed: Any) -> SHPConfig:
    """The one ``spec -> SHPConfig`` assembly: the spec's own keys, then
    ``algorithm.options`` (``JobSpec`` checked the table against the same
    declarations and refused those keys in it), then what the substrate fixes."""
    alg = spec.algorithm
    return SHPConfig(
        k=alg.k, p=alg.p, objective=alg.objective, epsilon=alg.epsilon, seed=spec.seed,
        refine_workers=spec.execution.refine_workers, **alg.options, **fixed,
    )


def _run_local(spec: JobSpec, graph: BipartiteGraph) -> Any:
    """In-process partitioner run via the registry's calling convention."""
    alg = spec.algorithm
    if PARTITIONERS.meta(alg.name).get("config") is not None:  # the SHP family
        kwargs = dataclasses.asdict(_shp_config(spec))
    else:
        kwargs = {"k": alg.k, "epsilon": alg.epsilon, "seed": spec.seed, **alg.options}
    return PARTITIONERS.get(alg.name)(graph, **kwargs)


def _run_engine(
    spec: JobSpec, graph: BipartiteGraph, initial: np.ndarray | None = None
) -> Any:
    """Vertex-centric engine run on the configured backend."""
    from ..distributed import ClusterSpec
    from ..distributed_shp import DistributedSHP

    execution = spec.execution
    # Connection parameters go to whichever backend takes them (rpc: hosts
    # and both timeouts; mp: the barrier timeout; sim: none).
    takes = BACKENDS.meta(execution.backend).get("takes", ())
    backend = BACKENDS.get(execution.backend)(**{key: getattr(execution, key) for key in takes})
    job = DistributedSHP(
        _shp_config(spec, swap_mode="bernoulli"),
        cluster=ClusterSpec(num_workers=execution.workers),
        # JobSpec validated the pairing: an engine backend, an engine_mode algorithm.
        mode=PARTITIONERS.meta(spec.algorithm.name)["engine_mode"],
        backend=backend,
        combiner=execution.combiner,
    )
    return job.run(graph, initial=initial)


def _run_partition(
    spec: JobSpec,
    graph: BipartiteGraph,
    report: RunReport,
    initial: np.ndarray | None = None,
) -> None:
    start = time.perf_counter()
    if spec.execution.is_local:
        result = _run_local(spec, graph)
        label = spec.algorithm.name
    else:
        result = _run_engine(spec, graph, initial=initial)
        label = (
            f"{spec.algorithm.name}@{spec.execution.backend}"
            f"x{spec.execution.workers}"
        )
    report.elapsed_sec = time.perf_counter() - start
    report.label = label
    report.assignment = np.asarray(result.assignment)
    report.k = spec.algorithm.k
    report.quality = evaluate_partition(graph, report.assignment, spec.algorithm.k)
    report.rows = [
        {
            "algorithm": label,
            "sec": round(report.elapsed_sec, 2),
            **report.quality.row(),
        }
    ]
    if hasattr(result, "metrics"):  # DistributedSHPResult: engine metering
        metrics = result.metrics
        report.meters = {
            "backend": result.backend,
            "cycles": result.cycles,
            "supersteps": result.supersteps,
            "messages": int(metrics.total_messages),
            "remote_bytes": int(metrics.total_remote_bytes),
            "peak_worker_memory": float(metrics.peak_worker_memory()),
            # Peak transient kernel-buffer bytes (columnar scratch),
            # surfaced alongside the transport meters.
            "peak_transient_bytes": float(metrics.peak_transient_bytes()),
            # Physical transport meters: zero on in-process backends, real
            # serialized traffic + barrier latency on rpc.
            "wire_bytes": int(metrics.total_wire_bytes),
            "round_trip_sec": float(metrics.total_round_trip_seconds),
            # Share of the cycles x |D| vertex gains S3 actually
            # recomputed; the rest kept their proposal (activity rule).
            "recomputed_fraction": sum(result.recomputed_history)
            / max(1, result.cycles * graph.num_data),
        }
        for phase, agg in metrics.by_phase().items():
            report.metrics.append(
                {
                    "record": "phase",
                    "phase": phase,
                    "messages": agg["messages"],
                    "bytes": agg["bytes"],
                    "wire_bytes": agg["wire_bytes"],
                    "supersteps": agg["count"],
                }
            )
        for cycle, (moved, recomputed) in enumerate(
            zip(result.moved_history, result.recomputed_history)
        ):
            report.metrics.append(
                {"record": "cycle", "cycle": cycle, "moved": moved, "recomputed": recomputed}
            )
    else:  # PartitionResult: iteration history
        report.meters = {
            "iterations": result.num_iterations,
            "converged": bool(result.converged),
        }
        for stats in result.history:
            report.metrics.append({"record": "iteration", **stats.row()})
    report.metrics.append({"record": "quality", **report.quality.row()})


def _run_stream_refine(spec: JobSpec, graph: BipartiteGraph, report: RunReport) -> None:
    """Streaming warm start, then distributed refinement from ``initial=``.

    The warm-start stage runs the ``pipeline.warmstart`` partitioner (by
    default the single-pass out-of-core ``streaming`` baseline) at the
    refinement's *starting* granularity — 2-way for engine-mode-'2'
    algorithms (recursive bisection descends from 2 buckets), k-way for
    mode 'k' — and the vertex-centric engine refines from that labeling
    instead of a random one.  Both stages are metered separately; the
    whole pipeline is deterministic per seed.
    """
    alg, pipe = spec.algorithm, spec.pipeline
    # JobSpec validated both pairings: an engine backend, an engine_mode algorithm.
    mode = PARTITIONERS.meta(alg.name)["engine_mode"]
    warm_k = 2 if mode == "2" else alg.k
    warmstart = PARTITIONERS.get(pipe.warmstart)
    start = time.perf_counter()
    warm = warmstart(
        graph, k=warm_k, epsilon=alg.epsilon, seed=spec.seed, **pipe.options
    )
    warm_sec = time.perf_counter() - start
    warm_quality = evaluate_partition(graph, np.asarray(warm.assignment), warm_k)
    _run_partition(spec, graph, report, initial=np.asarray(warm.assignment))
    report.label = f"{pipe.warmstart}→{report.label}"
    report.elapsed_sec += warm_sec
    warm_row = {
        "partitioner": pipe.warmstart,
        "k": warm_k,
        "sec": round(warm_sec, 3),
        **warm_quality.row(),
    }
    report.meters["warmstart"] = warm_row
    report.metrics.insert(0, {"record": "warmstart", **warm_row})
    report.rows.insert(
        0, {"algorithm": f"{pipe.warmstart} (warm start)", "sec": round(warm_sec, 2),
            **warm_quality.row()},
    )


def _run_serving(spec: JobSpec, graph: BipartiteGraph, report: RunReport) -> None:
    from ..sharding import LatencyModel
    from ..workloads import ServingConfig, ServingSimulator

    s = spec.serving
    # Every [serving] key but `servers` is a ServingConfig field of the same name.
    knobs = dataclasses.asdict(s)
    config = ServingConfig(num_servers=knobs.pop("servers"), seed=spec.seed, **knobs)
    model = LatencyModel(base_ms=1.0, sigma=1.0, size_ms_per_record=0.02)
    start = time.perf_counter()
    outcome = ServingSimulator(graph, config, latency_model=model).run()
    report.elapsed_sec = time.perf_counter() - start
    report.label = f"serving shp-{s.method} on {s.servers} servers"
    report.assignment = np.asarray(outcome.final_assignment)
    report.k = s.servers
    report.rows = outcome.rows()
    report.meters = {
        "rounds": s.rounds,
        "total_migrated": int(outcome.total_migrated()),
        "records": int(graph.num_data),
    }
    for row in outcome.rows():
        report.metrics.append({"record": "round", **row})


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

def run(
    spec: JobSpec,
    graph: BipartiteGraph | None = None,
    smoke: bool = False,
) -> RunReport:
    """Execute a job spec end to end and return its report.

    ``graph`` short-circuits :func:`load_graph_spec` for callers that
    already hold a graph in memory (``graph.remove_small_queries`` still
    honored).  ``smoke=True`` first shrinks the spec via
    :func:`smoke_spec` — same code paths, tiny budgets — for CI.
    """
    if smoke:
        spec = smoke_spec(spec)
    if graph is None:
        graph = load_graph_spec(spec)
    elif spec.graph.remove_small_queries:
        graph = graph.remove_small_queries()
    report = RunReport(spec=spec, label="", graph_name=graph.name or "", elapsed_sec=0.0)
    if spec.kind == "serving":
        _run_serving(spec, graph, report)
    elif spec.kind == "stream-refine":
        _run_stream_refine(spec, graph, report)
    else:
        _run_partition(spec, graph, report)
    if spec.output.assignment and report.assignment is not None:
        save_assignment(spec.output.assignment, report.assignment, report.k or 0)
    if spec.output.artifacts:
        report.artifacts = write_artifacts(report, spec.output.artifacts, graph)
    return report


# ----------------------------------------------------------------------
# run artifacts
# ----------------------------------------------------------------------

def write_artifacts(
    report: RunReport, out_dir: str | Path, graph: BipartiteGraph | None = None
) -> Path:
    """Write ``manifest.json`` + ``assignment.npz`` + ``metrics.jsonl``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "repro_version": __version__,
        "kind": report.kind,
        "label": report.label,
        "elapsed_sec": report.elapsed_sec,
        "spec": report.spec.to_dict(),
        "meters": report.meters,
        "quality": report.quality.row() if report.quality else None,
    }
    if graph is not None:
        manifest["graph"] = {
            "name": graph.name,
            "num_queries": int(graph.num_queries),
            "num_data": int(graph.num_data),
            "num_edges": int(graph.num_edges),
        }
    (out / MANIFEST_NAME).write_text(
        json.dumps(manifest, indent=2, default=_jsonable) + "\n", encoding="utf-8"
    )
    if report.assignment is not None:
        save_assignment(out / ASSIGNMENT_NAME, report.assignment, report.k or 0)
    with (out / METRICS_NAME).open("w", encoding="utf-8") as handle:
        for record in report.metrics:
            handle.write(json.dumps(record, default=_jsonable) + "\n")
    return out


def load_run(run_dir: str | Path) -> RunArtifacts:
    """Read a run-artifact directory back (the reproducibility record)."""
    run_dir = Path(run_dir)
    manifest_path = run_dir / MANIFEST_NAME
    if not manifest_path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {run_dir}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assignment, k = None, None
    assignment_path = run_dir / ASSIGNMENT_NAME
    if assignment_path.exists():
        from ..core.persistence import load_assignment

        assignment, k = load_assignment(assignment_path)
    metrics: list[dict] = []
    metrics_path = run_dir / METRICS_NAME
    if metrics_path.exists():
        for line in metrics_path.read_text(encoding="utf-8").splitlines():
            if line.strip():
                metrics.append(json.loads(line))
    return RunArtifacts(manifest=manifest, assignment=assignment, k=k, metrics=metrics)


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value).__name__}")
