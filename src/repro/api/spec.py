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

An option is declared once, here, as ``name: type = option(default, ...)``:
bounds, literal ``choices`` or the ``registry`` backing it, and — where a
legacy subcommand exposes it — its flag spelling and help sentence.
Validation (:func:`check_options`), the ``partition`` / ``compare`` /
``serve-sim`` flags (``repro.cli``) and the README key table are derived
from those lines.  Validation is strict: unknown keys, wrong types,
out-of-range numbers and bad enum values raise :class:`SpecError` naming
the offending dotted path (``algorithm.naem``, ``execution.backend``);
registry-backed fields are checked against the live registries, so a newly
registered plugin is immediately addressable.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import numbers
import operator
import typing
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .registry import BACKENDS, OBJECTIVES, PARTITIONERS

try:  # Python 3.11+
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - 3.10: the `tomli` dependency
    import tomli as tomllib  # type: ignore[no-redef]

__all__ = [
    "SpecError",
    "OWNED_OPTIONS",
    "option",
    "same_option",
    "check_option",
    "check_options",
    "iter_options",
    "option_choices",
    "option_range",
    "build_spec",
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

LOCAL_BACKEND = "local"
#: Partitioner knobs that are spec keys of their own: an ``options`` table
#: refuses them, naming the key to set instead.
OWNED_OPTIONS = {
    "k": "algorithm.k", "p": "algorithm.p", "objective": "algorithm.objective",
    "epsilon": "algorithm.epsilon", "seed": "seed", "refine_workers": "execution.refine_workers",
}


class SpecError(ValueError):
    """A job spec failed validation; the message names the dotted path."""


# ----------------------------------------------------------------------
# declaring an option, and the one validation pass over the declarations
# ----------------------------------------------------------------------

#: Bound keywords of :func:`option`: name -> (holds(value, bound), symbol).
_BOUNDS = {"gt": (operator.gt, ">"), "ge": (operator.ge, ">="), "le": (operator.le, "<=")}
_OPTION_KEYS = {*_BOUNDS, "choices", "registry", "flags", "metavar", "help"}
#: What an annotation accepts from TOML/JSON or a library caller: any
#: integer (numpy's included) is an int and a float, any mapping a dict, a
#: tuple a list (a bool is never a number; see _check_type).
_ACCEPTS: dict[Any, tuple[type, ...]] = {
    int: (numbers.Integral,), float: (numbers.Real,), dict: (Mapping,), list: (list, tuple),
}


def option(default: Any, **known: Any) -> Any:
    """Declare one spec field: its default plus everything else known about it.

    ``gt`` / ``ge`` / ``le`` bound a number; ``choices`` (a literal tuple)
    and / or ``registry`` (read live, so new plugins are legal at once)
    enumerate a string; ``flags``, ``metavar`` and ``help`` are its spelling
    on the legacy subcommands (``{default}`` in ``help`` is filled in from
    the default).  The annotation supplies the type.
    """
    unknown = set(known) - _OPTION_KEYS
    if unknown:
        raise TypeError(f"option() got unknown keys {sorted(unknown)}")
    return field(default=default, metadata=known)


def same_option(cls: type, name: str) -> Any:
    """Declare on a library config the option ``cls.name`` already is: its
    default, bounds, choices and help are read from that one line."""
    f = cls.__dataclass_fields__[name]
    return option(f.default, **f.metadata)


@functools.cache
def _hints(cls: type) -> dict[str, Any]:
    return typing.get_type_hints(cls)


def _members(annotation: Any) -> tuple[Any, ...]:
    """``X | None`` -> ``(X, NoneType)``; a plain type -> ``(X,)``."""
    return typing.get_args(annotation) or (annotation,)


def _check_type(value: Any, annotation: Any, path: str) -> None:
    for tp in _members(annotation):
        if isinstance(value, _ACCEPTS.get(tp, tp)) and not (
            isinstance(value, bool) and tp in (int, float)
        ):
            return
    names = " or ".join("None" if tp is type(None) else tp.__name__ for tp in _members(annotation))
    raise SpecError(f"{path}: expected {names}, got {type(value).__name__} {value!r}")


def option_range(f: dataclasses.Field) -> str:
    """A numeric field's declared bounds as text (``'> 0, <= 1'``), or ``''``."""
    return ", ".join(
        f"{symbol} {f.metadata[key]}" for key, (_, symbol) in _BOUNDS.items() if key in f.metadata
    )


def option_choices(f: dataclasses.Field) -> list[str] | None:
    """The values an enumerated field accepts — literal ``choices`` first,
    then the registry's names, read live — else ``None``."""
    sources = [f.metadata[key] for key in ("choices", "registry") if key in f.metadata]
    return [name for source in sources for name in source] if sources else None


def check_option(f: dataclasses.Field, annotation: Any, value: Any, path: str) -> None:
    """Validate one value against a field's declaration: the type from the
    annotation, range and choices from :func:`option`; the error starts
    with ``path``."""
    _check_type(value, annotation, path)
    if value is None:
        return
    for key, (holds, _) in _BOUNDS.items():
        if key in f.metadata and not holds(value, f.metadata[key]):
            raise SpecError(f"{path}: must be {option_range(f)}; got {value!r}")
    allowed = option_choices(f)
    # `in` on a registry also resolves aliases and spelling variants.
    if allowed is not None and value not in allowed and value not in f.metadata.get("registry", ()):
        what = f.metadata["registry"].kind if "registry" in f.metadata else f.name
        raise SpecError(f"{path}: unknown {what} {value!r}; known: {', '.join(allowed)}")


def check_options(spec: Any, prefix: str = "") -> None:
    """Validate every field of a declared dataclass (:func:`check_option`),
    each under its dotted path.  Mapping / tuple values are normalised to
    ``dict`` / ``list`` in place."""
    hints = _hints(type(spec))
    for f in dataclasses.fields(spec):
        path = f"{prefix}.{f.name}" if prefix else f.name
        value = getattr(spec, f.name)
        check_option(f, hints[f.name], value, path)
        if isinstance(value, Mapping):
            for key in value:
                _check_type(key, str, f"{path} key")
            if not isinstance(value, dict):
                object.__setattr__(spec, f.name, dict(value))
        elif isinstance(value, tuple):
            object.__setattr__(spec, f.name, list(value))


def check_option_table(table: Mapping, name: str, path: str, owned: Mapping[str, str]) -> None:
    """Validate an ``options`` table against what partitioner ``name`` takes.

    An entry registered with ``config=`` (the SHP family) takes the fields
    of that declared dataclass, each checked by :func:`check_option` under
    ``path.<key>``; any other takes the named parameters of its callable.
    ``owned`` maps a key the spec sets itself to the key to write instead.
    """
    if not table:
        return
    config = PARTITIONERS.meta(name).get("config")
    if config is not None:
        known = {f.name: f for f in dataclasses.fields(config)}
    else:
        parameters = inspect.signature(PARTITIONERS.get(name)).parameters.values()
        known = {p.name: p for p in parameters if p.kind is not p.VAR_KEYWORD and p.name != "graph"}
    for key, value in table.items():
        if key in owned:
            raise SpecError(f"{path}.{key}: set {owned[key]} instead")
        if key not in known:
            raise SpecError(
                f"{path}.{key}: unknown {'SHP ' if config else ''}option for {name!r}; "
                f"known: {', '.join(known) or 'none'}"
            )
        if config is not None:
            check_option(known[key], _hints(config)[key], value, f"{path}.{key}")


def iter_options(cls: type, prefix: str = "") -> Iterator[tuple[str, dataclasses.Field, type]]:
    """``(dotted.key, field, type)`` for every option of a spec tree, nested
    sections expanded, in declaration order (``X | None`` reports ``X``)."""
    for f in dataclasses.fields(cls):
        tp = next(t for t in _members(_hints(cls)[f.name]) if t is not type(None))
        if dataclasses.is_dataclass(tp):
            yield from iter_options(tp, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f, tp


def build_spec(cls: type, data: Any, path: str = "") -> Any:
    """Construct a spec dataclass — nested sections included — from a
    mapping, rejecting unknown keys by dotted path."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise SpecError(
            f"{path or 'job spec'}: expected a table/mapping, got {type(data).__name__}"
        )
    hints = _hints(cls)
    kwargs: dict[str, Any] = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else str(key)
        if key not in hints:
            raise SpecError(f"unknown key {dotted!r} (known: {', '.join(hints)})")
        section = dataclasses.is_dataclass(hints[key])
        kwargs[key] = build_spec(hints[key], value, dotted) if section else value
    return cls(**kwargs)


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

    source: str = option("file", choices=("file", "dataset", "darwini"))
    path: str | None = option(None, flags=("input",), help="graph file (.hgr / .tsv / .npz)")
    dataset: str | None = option(None)
    scale: float = option(0.01, gt=0, flags=("--scale",))
    users: int = option(
        4000, ge=1, flags=("--users",),
        help="users in the generated workload (no input file; default: {default})",
    )
    avg_degree: int = option(
        30, ge=0, flags=("--avg-degree",),
        help="average friend count in the generated workload (default: {default})",
    )
    clustering: float = option(0.4, ge=0, le=1)
    remove_small_queries: bool = option(True)

    def __post_init__(self) -> None:
        check_options(self, "graph")

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
    and ``objective`` apply only to the SHP family (``random`` ignores
    ``objective`` instead of crashing).  ``options`` holds the partitioner's
    remaining knobs — for the SHP family the other
    :class:`~repro.core.config.SHPConfig` fields (``matcher``,
    ``move_damping``, ``max_iterations``, ...), each checked against its
    declaration there when the :class:`JobSpec` is built.
    """

    name: str = option(
        "shp-2", registry=PARTITIONERS, flags=("--algorithm",),
        help="partitioner (default: {default})",
    )
    # k = 1 is degenerate but legal for the trivial baselines (random/hash);
    # the SHP family's k >= 2 floor is a JobSpec rule.
    k: int = option(2, ge=1, flags=("-k",), help="number of buckets")
    epsilon: float = option(0.05, ge=0, flags=("--epsilon",), help="imbalance bound")
    p: float = option(0.5, gt=0, le=1, flags=("-p",), help="fanout probability")
    objective: str = option("pfanout", registry=OBJECTIVES, flags=("--objective",))
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_options(self, "algorithm")


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

    backend: str = option(
        LOCAL_BACKEND, choices=(LOCAL_BACKEND,), registry=BACKENDS, flags=("--backend",),
        help="execution backend: 'local' (in-process vectorized optimizer), "
        "'sim' (vertex-centric engine, simulated workers), "
        "'mp' (vertex-centric engine, one OS process per worker), "
        "'rpc' (workers over TCP; see docs/running-distributed.md)",
    )
    workers: int = option(
        4, ge=1, flags=("--workers",),
        help="cluster worker count for engine backends (default: {default})",
    )
    refine_workers: int = option(
        1, ge=1, flags=("--refine-workers",),
        help="shared-memory gain workers for the local shp-2 refinement "
        "(--backend local); assignments stay bitwise-identical to serial "
        "per seed (default: {default})",
    )
    # Accepted for compatibility with specs that still write the key; it has
    # one legal value and selects nothing (the engine runs one kind of program).
    vertex_mode: str = option("columnar", choices=("columnar",))
    combiner: bool = option(
        False, flags=("--combiner",),
        help="combine messages per destination before transmission "
        "(engine backends; fewer wire bytes, bitwise-identical result)",
    )
    hosts: list | None = option(
        None, flags=("--hosts",), metavar="HOST:PORT",
        help="rpc worker endpoint (repeatable); with --backend rpc and no "
        "--hosts, localhost workers are spawned automatically",
    )
    connect_timeout: float = option(10.0, gt=0)
    step_timeout: float = option(600.0, gt=0)

    def __post_init__(self) -> None:
        p = "execution"
        if self.vertex_mode == "dict":
            raise SpecError(
                f"{p}.vertex_mode: the per-vertex 'dict' reference is no longer "
                "an execution mode — it lives in tests/oracles/ as a test "
                "oracle; drop the key (the engine always runs columnar)"
            )
        check_options(self, p)
        if self.combiner and self.is_local:
            raise SpecError(
                f"{p}.combiner: message combining is an engine feature; "
                f"pick an engine backend ({', '.join(map(repr, BACKENDS.names()))})"
            )
        if self.hosts is None:
            return
        if self.backend != "rpc":
            raise SpecError(
                f"{p}.hosts: only the 'rpc' backend takes worker hosts "
                f"(got backend {self.backend!r})"
            )
        if not self.hosts:
            raise SpecError(f"{p}.hosts: must list at least one host:port")
        # The rule is the dialling code's own (imported here: the backends
        # load lazily, and ``distributed`` imports this package's registry).
        from ..distributed.backend_rpc import parse_endpoint

        for i, item in enumerate(self.hosts):
            _check_type(item, str, f"{p}.hosts[{i}]")
            try:
                parse_endpoint(item)
            except ValueError as exc:
                raise SpecError(f"{p}.hosts[{i}]: {exc}") from None

    @property
    def is_local(self) -> bool:
        return self.backend == LOCAL_BACKEND


@dataclass(frozen=True)
class PipelineSpec:
    """The warm-start stage of a ``kind = 'stream-refine'`` job.

    ``warmstart`` names any :data:`~repro.api.registry.PARTITIONERS` entry
    used to produce the initial assignment — by default ``"streaming"``,
    the single-pass out-of-core partitioner, which is the configuration
    that scales past RAM.  ``options`` holds the warm-start partitioner's
    own knobs, checked like ``algorithm.options`` when the :class:`JobSpec`
    is built.  The refinement stage is described by the
    ordinary ``[algorithm]`` / ``[execution]`` tables: the runner hands
    the warm assignment to the distributed engine via ``initial=``.
    """

    warmstart: str = option("streaming", registry=PARTITIONERS)
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_options(self, "pipeline")


@dataclass(frozen=True)
class ServingSpec:
    """The online serving scenario (kind = 'serving')."""

    servers: int = option(
        16, ge=2, flags=("--servers",), help="storage servers (default: {default})"
    )
    rounds: int = option(3, ge=1, flags=("--rounds",), help="serving rounds (default: {default})")
    queries_per_round: int = option(
        2000, ge=0, flags=("--queries",), help="sampled queries per round (default: {default})"
    )
    # skew < 0 is an anti-skewed sample and legal; so is a budget above 1.
    skew: float = option(0.8, flags=("--skew",), help="Zipf traffic skew (default: {default})")
    churn_fraction: float = option(
        0.05, ge=0, le=1, flags=("--churn",),
        help="fraction of queries rewired per round (default: {default})",
    )
    migration_budget: float = option(
        0.10, ge=0, flags=("--budget",),
        help="migration budget: max fraction of records moved per repair (default: {default:.2f})",
    )
    repair_iterations: int = option(
        15, ge=0, flags=("--repair-iterations",),
        help="refinement iterations per incremental repair (default: {default})",
    )
    method: str = option(
        "2", choices=("2", "k"), flags=("--method",),
        help="incremental repair driver (default: shp-{default})",
    )

    def __post_init__(self) -> None:
        check_options(self, "serving")


@dataclass(frozen=True)
class OutputSpec:
    """Where run outputs land.

    ``assignment`` writes the final assignment to one file, binary
    (``.npz``) or plain text (anything else) by extension.  ``artifacts``
    names a run-artifact directory that receives ``manifest.json`` (the
    resolved spec + timings + meters), ``assignment.npz``, and
    ``metrics.jsonl`` — the reproducibility record ``load_run`` reads back.
    """

    assignment: str | None = option(
        None, flags=("-o", "--output"),
        help="write assignment (.npz archive, or plain text one bucket per line)",
    )
    artifacts: str | None = option(None)

    def __post_init__(self) -> None:
        check_options(self, "output")


@dataclass(frozen=True)
class JobSpec:
    """The root of the spec tree: one declarative, reproducible job."""

    kind: str = option("partition", choices=("partition", "serving", "stream-refine"))
    seed: int = option(0, ge=0, flags=("--seed",))
    graph: GraphSpec = field(default_factory=GraphSpec)
    algorithm: AlgorithmSpec = field(default_factory=AlgorithmSpec)
    execution: ExecutionSpec = field(default_factory=ExecutionSpec)
    pipeline: PipelineSpec = field(default_factory=PipelineSpec)
    serving: ServingSpec = field(default_factory=ServingSpec)
    output: OutputSpec = field(default_factory=OutputSpec)

    def __post_init__(self) -> None:
        check_options(self)
        # The two ``options`` tables hold what their partitioner declares,
        # minus the knobs that are spec keys of their own.
        name, k = self.algorithm.name, self.algorithm.k
        shp = PARTITIONERS.meta(name).get("config") is not None
        if shp and k < 2:
            raise SpecError(f"algorithm.k: k must be at least 2 for {name!r}; got {k}")
        owned = dict(OWNED_OPTIONS)
        if shp and not self.execution.is_local:
            owned["swap_mode"] = (
                f"execution.backend = {LOCAL_BACKEND!r} (the engine's swaps are always 'bernoulli')"
            )
        check_option_table(self.algorithm.options, name, "algorithm.options", owned)
        # A warm start is handed k (it follows algorithm.k), epsilon and the seed.
        check_option_table(
            self.pipeline.options, self.pipeline.warmstart, "pipeline.options",
            {key: OWNED_OPTIONS[key] for key in ("k", "epsilon", "seed")},
        )
        refines = self.kind == "stream-refine"
        if refines and self.execution.is_local:
            raise SpecError(
                "execution.backend: kind 'stream-refine' refines on the "
                "vertex-centric engine; pick one of "
                f"{', '.join(map(repr, BACKENDS.names()))}"
            )
        # The vertex-centric engine runs the algorithms whose registry entry
        # names an ``engine_mode``; both ways of reaching it need one.
        on_engine = refines or (self.kind == "partition" and not self.execution.is_local)
        engine_mode = PARTITIONERS.meta(name).get("engine_mode")
        if on_engine and not engine_mode:
            capable = ", ".join(
                n for n in PARTITIONERS.names() if PARTITIONERS.meta(n).get("engine_mode")
            )
            if refines:
                raise SpecError(
                    f"algorithm.name: kind 'stream-refine' needs an engine-capable "
                    f"refinement algorithm ({capable}); got {name!r}"
                )
            raise SpecError(
                f"execution.backend: {self.execution.backend!r} supports {capable} "
                f"(got algorithm.name = {name!r}); other algorithms need backend 'local'"
            )
        # Engine mode "2" bisects every bucket of a level in the same cycle.
        if on_engine and engine_mode == "2" and k & (k - 1):
            raise SpecError(
                f"algorithm.k: {name!r} on an engine backend requires k to be a "
                f"power of two; got {k}"
            )

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
        return build_spec(cls, data)

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
    try:
        return parts, tomllib.loads(f"v = {raw}")["v"]
    except tomllib.TOMLDecodeError:
        return parts, raw


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
