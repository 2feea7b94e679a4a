"""Declarative job specifications: one typed tree describing a whole run.

A :class:`JobSpec` names *what* to execute — the graph source, the
algorithm and its knobs, the execution substrate, the serving scenario, and
where to put the outputs — without encoding *how*; ``repro.api.runner.run``
turns it into an actual run.  Specs round-trip losslessly through plain
dicts (``to_dict`` / ``from_dict``), load from TOML or JSON files, and
accept ``--set dotted.key=value`` overrides, so a benchmark, a CI smoke
job, and a future multi-host run can all be reproduced from a single file::

    kind = "partition"
    seed = 7

    [graph]
    source = "dataset"
    dataset = "soc-Pokec"
    scale = 0.002

    [algorithm]
    name = "shp-2"
    k = 8

Validation is strict: unknown keys and bad enum values raise
:class:`SpecError` naming the offending dotted path (``algorithm.naem``,
``execution.backend``), and registry-backed fields (algorithm name,
objective, backend, matcher options) are checked against the live
registries so a newly registered plugin is immediately addressable.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .registry import BACKENDS, OBJECTIVES, PARTITIONERS, Registry

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python 3.10 fallback
    try:
        import tomli as tomllib  # type: ignore[no-redef]
    except ModuleNotFoundError:
        tomllib = None  # type: ignore[assignment]

__all__ = [
    "SpecError",
    "GraphSpec",
    "AlgorithmSpec",
    "ExecutionSpec",
    "PipelineSpec",
    "ServingSpec",
    "OutputSpec",
    "JobSpec",
    "load_spec",
    "parse_override",
    "apply_overrides",
]

GRAPH_SOURCES = ("file", "dataset", "darwini")
JOB_KINDS = ("partition", "serving", "stream-refine")
#: Accepted for compatibility with specs that still write the key; it has
#: one legal value and selects nothing (the engine runs one kind of program).
VERTEX_MODES = ("columnar",)
SERVING_METHODS = ("2", "k")
LOCAL_BACKEND = "local"


class SpecError(ValueError):
    """A job spec failed validation; the message names the dotted path."""


# ----------------------------------------------------------------------
# validation helpers — every error names the dotted path of the bad field
# ----------------------------------------------------------------------

def _check_type(value: Any, types: type | tuple, path: str) -> None:
    if isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise SpecError(f"{path}: expected {_type_names(types)}, got bool {value!r}")
    if not isinstance(value, types):
        raise SpecError(
            f"{path}: expected {_type_names(types)}, got {type(value).__name__} {value!r}"
        )


def _type_names(types: type | tuple) -> str:
    if not isinstance(types, tuple):
        types = (types,)
    return " or ".join(t.__name__ for t in types)


def _check_choice(value: Any, choices: Iterable[str], path: str) -> None:
    choices = tuple(choices)
    if value not in choices:
        raise SpecError(
            f"{path}: must be one of {', '.join(map(repr, choices))}; got {value!r}"
        )


def _check_registry(value: Any, registry: Registry, path: str) -> None:
    _check_type(value, str, path)
    if value not in registry:
        raise SpecError(
            f"{path}: unknown {registry.kind} {value!r}; "
            f"known: {', '.join(registry.names())}"
        )


def _build(cls: type, data: Any, path: str) -> Any:
    """Construct a spec dataclass from a mapping, rejecting unknown keys."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise SpecError(f"{path}: expected a table/mapping, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = [key for key in data if key not in known]
    if unknown:
        raise SpecError(
            f"unknown key {path + '.' + str(unknown[0])!r} "
            f"(known: {', '.join(sorted(known))})"
        )
    return cls(**dict(data))


# ----------------------------------------------------------------------
# the spec tree
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class GraphSpec:
    """Where the hypergraph comes from, plus preprocessing flags.

    ``source`` selects one of three origins: ``"file"`` (``path`` to a
    ``.hgr`` / ``.tsv`` / ``.npz`` file), ``"dataset"`` (a Table 1 registry
    name built at ``scale``), or ``"darwini"`` (a generated Darwini-like
    social workload of ``users`` vertices).  ``remove_small_queries``
    applies the standard degree-≥2 preprocessing before partitioning.
    """

    source: str = "file"
    path: str | None = None
    dataset: str | None = None
    scale: float = 0.01
    users: int = 4000
    avg_degree: int = 30
    clustering: float = 0.4
    remove_small_queries: bool = True

    def __post_init__(self) -> None:
        p = "graph"
        _check_choice(self.source, GRAPH_SOURCES, f"{p}.source")
        if self.path is not None:
            _check_type(self.path, str, f"{p}.path")
        if self.dataset is not None:
            _check_type(self.dataset, str, f"{p}.dataset")
        _check_type(self.scale, (int, float), f"{p}.scale")
        _check_type(self.users, int, f"{p}.users")
        _check_type(self.avg_degree, int, f"{p}.avg_degree")
        _check_type(self.clustering, (int, float), f"{p}.clustering")
        _check_type(self.remove_small_queries, bool, f"{p}.remove_small_queries")
        if self.scale <= 0:
            raise SpecError(f"{p}.scale: must be positive, got {self.scale!r}")
        if self.users < 1:
            raise SpecError(f"{p}.users: must be at least 1, got {self.users!r}")

    def require_source_fields(self) -> None:
        """Cross-field checks deferred to run time, so a partially built
        spec (e.g. the all-defaults ``JobSpec()``) stays constructible."""
        if self.source == "file" and not self.path:
            raise SpecError("graph.path: required when graph.source = 'file'")
        if self.source == "dataset" and not self.dataset:
            raise SpecError("graph.dataset: required when graph.source = 'dataset'")


@dataclass(frozen=True)
class AlgorithmSpec:
    """Which partitioner to run and its quality knobs.

    ``name`` is any :data:`~repro.api.registry.PARTITIONERS` entry.  ``p``
    and ``objective`` apply only to algorithms whose registry metadata
    accepts them (the runner routes knobs by metadata, so e.g. ``random``
    ignores ``objective`` instead of crashing).
    ``options`` is a free-form table of extra keyword arguments forwarded
    verbatim to the partitioner / :class:`~repro.core.config.SHPConfig`
    (``matcher``, ``move_damping``, ``max_iterations``, ...).
    """

    name: str = "shp-2"
    k: int = 2
    epsilon: float = 0.05
    p: float = 0.5
    objective: str = "pfanout"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = "algorithm"
        _check_registry(self.name, PARTITIONERS, f"{p}.name")
        _check_type(self.k, int, f"{p}.k")
        _check_type(self.epsilon, (int, float), f"{p}.epsilon")
        _check_type(self.p, (int, float), f"{p}.p")
        _check_registry(self.objective, OBJECTIVES, f"{p}.objective")
        _check_type(self.options, Mapping, f"{p}.options")
        # k = 1 is degenerate but legal for the trivial baselines
        # (random/hash); SHP's own k >= 2 floor is enforced by SHPConfig.
        if self.k < 1:
            raise SpecError(f"{p}.k: must be at least 1, got {self.k!r}")
        if not 0.0 < self.p <= 1.0:
            raise SpecError(f"{p}.p: must be in (0, 1], got {self.p!r}")
        if self.epsilon < 0:
            raise SpecError(f"{p}.epsilon: must be non-negative, got {self.epsilon!r}")
        for key in self.options:
            _check_type(key, str, f"{p}.options key")
        if not isinstance(self.options, dict):
            object.__setattr__(self, "options", dict(self.options))


@dataclass(frozen=True)
class ExecutionSpec:
    """Execution substrate: in-process, or the vertex-centric engine.

    ``backend`` is ``"local"`` (the vectorized in-process optimizer) or any
    :data:`~repro.api.registry.BACKENDS` entry — ``"sim"`` (in-process
    workers), ``"mp"`` (one OS process per worker), ``"rpc"`` (workers over
    TCP; see ``docs/running-distributed.md``).  ``workers`` and
    ``combiner`` apply to engine backends only; ``vertex_mode`` is a
    compatibility key whose only value is ``"columnar"``.
    ``combiner = true`` enables the protocol's message combiner (net-delta
    combining for SHP — fewer bytes, bitwise-identical result).
    ``refine_workers`` instead parallelizes the *local* shp-2 optimizer's
    level-fused refinement across shared-memory gain workers; the result
    stays bitwise-identical to serial per seed (the deterministic-merge
    invariant — see ``docs/architecture.md``).

    The remaining fields configure the rpc backend: ``hosts`` lists
    externally launched ``repro rpc-worker`` endpoints as
    ``["host:port", ...]`` (omit it to auto-spawn localhost workers);
    ``connect_timeout`` / ``step_timeout`` bound worker startup and the
    per-superstep barrier wait before a worker is declared dead.
    """

    backend: str = LOCAL_BACKEND
    workers: int = 4
    refine_workers: int = 1
    vertex_mode: str = "columnar"
    combiner: bool = False
    hosts: list | None = None
    connect_timeout: float = 10.0
    step_timeout: float = 600.0

    def __post_init__(self) -> None:
        p = "execution"
        _check_type(self.backend, str, f"{p}.backend")
        if self.backend != LOCAL_BACKEND and self.backend not in BACKENDS:
            raise SpecError(
                f"{p}.backend: must be {LOCAL_BACKEND!r} or one of "
                f"{', '.join(map(repr, BACKENDS.names()))}; got {self.backend!r}"
            )
        _check_type(self.workers, int, f"{p}.workers")
        if self.vertex_mode == "dict":
            raise SpecError(
                f"{p}.vertex_mode: the per-vertex 'dict' reference is no longer "
                "an execution mode — it lives in tests/oracles/ as a test "
                "oracle; drop the key (the engine always runs columnar)"
            )
        _check_choice(self.vertex_mode, VERTEX_MODES, f"{p}.vertex_mode")
        if self.workers < 1:
            raise SpecError(f"{p}.workers: must be at least 1, got {self.workers!r}")
        _check_type(self.refine_workers, int, f"{p}.refine_workers")
        if self.refine_workers < 1:
            raise SpecError(
                f"{p}.refine_workers: must be at least 1, got {self.refine_workers!r}"
            )
        _check_type(self.combiner, bool, f"{p}.combiner")
        if self.combiner and self.backend == LOCAL_BACKEND:
            raise SpecError(
                f"{p}.combiner: message combining is an engine feature; "
                f"pick an engine backend ({', '.join(map(repr, BACKENDS.names()))})"
            )
        if self.hosts is not None:
            _check_type(self.hosts, (list, tuple), f"{p}.hosts")
            if self.backend != "rpc":
                raise SpecError(
                    f"{p}.hosts: only the 'rpc' backend takes worker hosts "
                    f"(got backend {self.backend!r})"
                )
            for i, item in enumerate(self.hosts):
                _check_type(item, str, f"{p}.hosts[{i}]")
                if ":" not in item:
                    raise SpecError(
                        f"{p}.hosts[{i}]: expected 'host:port', got {item!r}"
                    )
            if not self.hosts:
                raise SpecError(f"{p}.hosts: must list at least one host:port")
            if not isinstance(self.hosts, list):
                object.__setattr__(self, "hosts", list(self.hosts))
        _check_type(self.connect_timeout, (int, float), f"{p}.connect_timeout")
        _check_type(self.step_timeout, (int, float), f"{p}.step_timeout")
        if self.connect_timeout <= 0:
            raise SpecError(
                f"{p}.connect_timeout: must be positive, got {self.connect_timeout!r}"
            )
        if self.step_timeout <= 0:
            raise SpecError(
                f"{p}.step_timeout: must be positive, got {self.step_timeout!r}"
            )

    @property
    def is_local(self) -> bool:
        return self.backend == LOCAL_BACKEND


@dataclass(frozen=True)
class PipelineSpec:
    """The warm-start stage of a ``kind = 'stream-refine'`` job.

    ``warmstart`` names any :data:`~repro.api.registry.PARTITIONERS` entry
    used to produce the initial assignment — by default ``"streaming"``,
    the single-pass out-of-core partitioner, which is the configuration
    that scales past RAM.  ``options`` is forwarded verbatim to the
    warm-start partitioner.  The refinement stage is described by the
    ordinary ``[algorithm]`` / ``[execution]`` tables: the runner hands
    the warm assignment to the distributed engine via ``initial=``.
    """

    warmstart: str = "streaming"
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = "pipeline"
        _check_registry(self.warmstart, PARTITIONERS, f"{p}.warmstart")
        _check_type(self.options, Mapping, f"{p}.options")
        for key in self.options:
            _check_type(key, str, f"{p}.options key")
        if not isinstance(self.options, dict):
            object.__setattr__(self, "options", dict(self.options))


@dataclass(frozen=True)
class ServingSpec:
    """The online serving scenario (kind = 'serving')."""

    servers: int = 16
    rounds: int = 3
    queries_per_round: int = 2000
    skew: float = 0.8
    churn_fraction: float = 0.05
    migration_budget: float = 0.10
    repair_iterations: int = 15
    method: str = "2"

    def __post_init__(self) -> None:
        p = "serving"
        _check_type(self.servers, int, f"{p}.servers")
        _check_type(self.rounds, int, f"{p}.rounds")
        _check_type(self.queries_per_round, int, f"{p}.queries_per_round")
        _check_type(self.skew, (int, float), f"{p}.skew")
        _check_type(self.churn_fraction, (int, float), f"{p}.churn_fraction")
        _check_type(self.migration_budget, (int, float), f"{p}.migration_budget")
        _check_type(self.repair_iterations, int, f"{p}.repair_iterations")
        _check_choice(self.method, SERVING_METHODS, f"{p}.method")
        if self.servers < 2:
            raise SpecError(f"{p}.servers: must be at least 2, got {self.servers!r}")
        if self.rounds < 1:
            raise SpecError(f"{p}.rounds: must be at least 1, got {self.rounds!r}")
        if not 0.0 <= self.churn_fraction <= 1.0:
            raise SpecError(
                f"{p}.churn_fraction: must be in [0, 1], got {self.churn_fraction!r}"
            )


@dataclass(frozen=True)
class OutputSpec:
    """Where run outputs land.

    ``assignment`` writes the final assignment to one file, binary
    (``.npz``) or plain text (anything else) by extension.  ``artifacts``
    names a run-artifact directory that receives ``manifest.json`` (the
    resolved spec + timings + meters), ``assignment.npz``, and
    ``metrics.jsonl`` — the reproducibility record ``load_run`` reads back.
    """

    assignment: str | None = None
    artifacts: str | None = None

    def __post_init__(self) -> None:
        p = "output"
        if self.assignment is not None:
            _check_type(self.assignment, str, f"{p}.assignment")
        if self.artifacts is not None:
            _check_type(self.artifacts, str, f"{p}.artifacts")


@dataclass(frozen=True)
class JobSpec:
    """The root of the spec tree: one declarative, reproducible job."""

    kind: str = "partition"
    seed: int = 0
    graph: GraphSpec = field(default_factory=GraphSpec)
    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    serving: ServingSpec = field(default_factory=ServingSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self) -> None:
        _check_choice(self.kind, JOB_KINDS, "kind")
        _check_type(self.seed, int, "seed")

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict form (JSON/TOML-serializable, lossless)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "JobSpec":
        """Build and validate a spec from a plain dict.

        Unknown keys anywhere in the tree raise :class:`SpecError` naming
        the dotted path of the offender.
        """
        if not isinstance(data, Mapping):
            raise SpecError(f"job spec: expected a mapping, got {type(data).__name__}")
        data = dict(data)
        sections = {
            "graph": GraphSpec,
            "algorithm": AlgorithmSpec,
            "execution": ExecutionSpec,
            "pipeline": PipelineSpec,
            "serving": ServingSpec,
            "output": OutputSpec,
        }
        kwargs: dict[str, Any] = {}
        for name, section_cls in sections.items():
            if name in data:
                kwargs[name] = _build(section_cls, data.pop(name), name)
        for scalar in ("kind", "seed"):
            if scalar in data:
                kwargs[scalar] = data.pop(scalar)
        if data:
            raise SpecError(
                f"unknown key {next(iter(data))!r} "
                f"(top-level keys: kind, seed, {', '.join(sections)})"
            )
        return cls(**kwargs)

    @classmethod
    def from_file(
        cls, path: str | Path, overrides: Iterable[str] = ()
    ) -> "JobSpec":
        """Load a TOML/JSON spec file and apply ``--set`` overrides."""
        data = load_spec(path)
        apply_overrides(data, overrides)
        return cls.from_dict(data)

    def with_(self, **kwargs: Any) -> "JobSpec":
        """Copy with top-level fields replaced (sections are specs)."""
        return dataclasses.replace(self, **kwargs)


# ----------------------------------------------------------------------
# file loading and --set overrides
# ----------------------------------------------------------------------

def load_spec(path: str | Path) -> dict:
    """Read a spec file into a plain dict (TOML by default, JSON by suffix)."""
    path = Path(path)
    if not path.exists():
        raise SpecError(f"spec file not found: {path}")
    if path.suffix.lower() == ".json":
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    if tomllib is None:  # pragma: no cover - Python 3.10 without tomli
        raise SpecError(
            "TOML specs need Python 3.11+ (or the 'tomli' package); "
            "JSON specs work everywhere"
        )
    try:
        return tomllib.loads(path.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"{path}: invalid TOML: {exc}") from exc


def parse_override(item: str) -> tuple[list[str], Any]:
    """Parse one ``dotted.key=value`` override into (path, typed value).

    The value is parsed with TOML literal semantics (``8`` → int, ``0.5``
    → float, ``true`` → bool, ``"x"`` / ``[1, 2]`` → string / array); a
    bare word that is not a TOML literal is taken as a string, so
    ``--set algorithm.name=shp-k`` needs no quoting.
    """
    key, sep, raw = item.partition("=")
    key = key.strip()
    if not sep or not key:
        raise SpecError(f"override {item!r}: expected dotted.key=value")
    parts = [part.strip() for part in key.split(".")]
    if not all(parts):
        raise SpecError(f"override {item!r}: empty path component in {key!r}")
    raw = raw.strip()
    value: Any = raw
    if tomllib is not None:
        try:
            value = tomllib.loads(f"v = {raw}")["v"]
        except tomllib.TOMLDecodeError:
            value = raw
    else:  # pragma: no cover - Python 3.10 without tomli
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
    return parts, value


def apply_overrides(data: dict, overrides: Iterable[str]) -> dict:
    """Apply ``--set`` items to a spec dict in place (and return it)."""
    for item in overrides:
        parts, value = parse_override(item)
        node = data
        for depth, part in enumerate(parts[:-1]):
            child = node.setdefault(part, {})
            if not isinstance(child, dict):
                raise SpecError(
                    f"override {item!r}: {'.'.join(parts[: depth + 1])!r} "
                    "is not a table"
                )
            node = child
        node[parts[-1]] = value
    return data
