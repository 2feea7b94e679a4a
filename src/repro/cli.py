"""Command-line interface: one declarative runner behind every subcommand.

Usage (also via ``python -m repro``):

    repro run job.toml --set algorithm.k=16
    repro partition INPUT.hgr -k 16 --algorithm shp-2 -o assignment.npz
    repro partition INPUT.hgr -k 16 --backend mp --workers 4
    repro evaluate INPUT.hgr assignment.txt -k 16
    repro compare INPUT.hgr -k 16 --objective cliquenet
    repro generate soc-Pokec --scale 0.01 -o pokec.hgr
    repro convert pokec.hgr pokec.rgs
    repro serve-sim --servers 16 --rounds 3 --queries 2000
    repro datasets
    repro rpc-worker --port 7077

Every execution subcommand (``run``, ``partition``, ``compare``,
``serve-sim``) builds a :class:`repro.api.JobSpec` and calls the same
:func:`repro.api.run` runner, so legacy flags and spec files produce
bitwise-identical assignments per seed.  The legacy flags are not declared
here: :data:`SPEC_FLAGS` lists which spec keys each subcommand exposes, and
spelling, type, default, choices and help are read from the field
declarations in :mod:`repro.api.spec`.  Input formats are detected from
the extension: ``.hgr`` (hMetis), ``.tsv`` (query/data edge list), ``.npz``
(this package's archive format), ``.rgs`` (the mmap-able binary store —
``repro convert`` produces it).  Assignments are written as plain text
(one bucket id per line) or as an ``.npz`` archive, by output extension.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from collections.abc import Iterable, Mapping
from pathlib import Path
from typing import Any

from .api import AlgorithmSpec, JobSpec, SpecError
from .api.spec import build_spec, iter_options, option_choices
from .bench import format_table
from .hypergraph import (
    DATASETS,
    GraphValidationError,
    dataset_names,
    graph_stats,
    load_dataset,
    load_graph,
    save_graph,
)

__all__ = ["main", "build_parser", "add_spec_flags", "spec_from_args"]

_KNOBS = ("algorithm.epsilon", "algorithm.p", "algorithm.objective", "seed")
_REQUIRED = {"required": True, "default": None}  # no spec default stands in for -k
#: The spec-backed flags of each legacy subcommand, in ``--help`` order: a
#: dotted spec key, or ``(key, {argparse overrides})`` where one command
#: words or requires a flag differently.  Everything else — spelling, type,
#: default, choices, help — is read from the field's declaration.
SPEC_FLAGS: dict[str, tuple] = {
    "partition": (
        "graph.path", ("algorithm.k", _REQUIRED), "algorithm.name", *_KNOBS,
        "execution.backend", "execution.workers", "execution.refine_workers",
        "execution.combiner", "execution.hosts", "output.assignment",
    ),
    "compare": (
        ("graph.path", {"help": "graph file"}),
        ("algorithm.k", {**_REQUIRED, "help": None}),
        *_KNOBS,
    ),
    # A bucket count and no job: rooted at AlgorithmSpec (no JobSpec pairing rules).
    "evaluate": (("k", {"default": None, "help": "bucket count (default: stored or max+1)"}),),
    "generate": ("graph.scale", "seed"),
    "serve-sim": (
        ("graph.path", {
            "nargs": "?",
            "help": "graph file (.hgr / .tsv / .npz); omitted = generate a Darwini workload",
        }),
        "graph.users", "graph.avg_degree", "serving.servers", "serving.rounds",
        "serving.queries_per_round", "serving.skew", "serving.churn_fraction",
        "serving.migration_budget", "serving.repair_iterations", "serving.method", "seed",
    ),
}

#: How a field's type reads on a command line (a ``str`` needs nothing).
_ARGPARSE: dict[type, dict[str, Any]] = {
    int: {"type": int}, float: {"type": float}, list: {"action": "append", "default": []},
}


def add_spec_flags(
    parser: argparse.ArgumentParser, refs: Iterable[Any], root: type = JobSpec
) -> None:
    """Add one flag per referenced spec field, derived from its declaration.

    ``refs`` are dotted keys of ``root`` (or ``(key, overrides)`` pairs).
    The ``dest -> key`` map is left on the parser as the ``spec_keys``
    default, which is all :func:`spec_from_args` needs.
    """
    options = {key: (f, kind) for key, f, kind in iter_options(root)}
    spec_keys: dict[str, str] = {}
    for ref in refs:
        key, overrides = (ref, {}) if isinstance(ref, str) else ref
        f, kind = options[key]
        kwargs: dict[str, Any] = {"action": "store_true"} if kind is bool else {
            "default": f.default, "choices": option_choices(f),
            "metavar": f.metadata.get("metavar"), **_ARGPARSE.get(kind, {}),
        }
        if "help" in f.metadata:
            kwargs["help"] = f.metadata["help"].format(default=f.default)
        action = parser.add_argument(*f.metadata["flags"], **{**kwargs, **overrides})
        spec_keys[action.dest] = key
    parser.set_defaults(spec_keys=spec_keys)


def spec_from_args(
    args: argparse.Namespace, fixed: Mapping[str, Any] | None = None, root: type = JobSpec
) -> Any:
    """The one ``args -> spec`` function: each flag lands on its dotted key.

    ``fixed`` adds keys a subcommand implies rather than exposes (``kind``,
    ``graph.source``).  A flag that was not given (``None``, or no
    occurrence of a repeatable one) leaves its key to the spec default.
    """
    values = {key: getattr(args, dest) for dest, key in args.spec_keys.items()}
    data: dict[str, Any] = {}
    for key, value in {**values, **(fixed or {})}.items():
        if value is None or value == []:
            continue
        section, _, name = key.rpartition(".")
        (data.setdefault(section, {}) if section else data)[name] = value
    try:
        return build_spec(root, data)
    except SpecError as exc:
        raise SystemExit(f"error: {exc}") from exc


#: What loading a graph can raise on bad input — a missing or unreadable
#: file (``OSError``), a malformed one (``GraphValidationError`` and the
#: store's ``StorageError`` are ``ValueError``s): one ``error:`` line each.
_LOAD_ERRORS = (ValueError, OSError)


def _api_run(spec: JobSpec, graph=None, smoke: bool = False):
    """Invoke the runner, converting API errors into CLI exits."""
    from .api import run

    try:
        return run(spec, graph=graph, smoke=smoke)
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0] if exc.args else exc}") from exc
    except _LOAD_ERRORS as exc:  # SpecError is a ValueError too
        raise SystemExit(f"error: {exc}") from exc


def _cmd_run(args: argparse.Namespace) -> int:
    """Execute one or more declarative job-spec files."""
    if args.sanitize:
        from .analysis import sanitizers

        sanitizers.enable(strict=True)
    for spec_path in args.spec:
        try:
            spec = JobSpec.from_file(spec_path, overrides=args.overrides)
        except SpecError as exc:
            raise SystemExit(f"error: {spec_path}: {exc}") from exc
        try:
            report = _api_run(spec, smoke=args.smoke)
        except Exception as exc:
            if args.sanitize:
                from .analysis import sanitizers

                san_report = sanitizers.sanitizer_report()
                if san_report.findings:
                    print(san_report.render_human())
                    if isinstance(exc, sanitizers.SanitizerError):
                        return san_report.exit_code or 1
            raise
        print(format_table(report.rows, title=report.title()))
        if spec.output.assignment:
            print(f"assignment written to {spec.output.assignment}")
        if report.artifacts is not None:
            print(f"run artifacts written to {report.artifacts}/")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    report = _api_run(spec)
    if spec.output.assignment:
        print(f"assignment written to {spec.output.assignment}")
    print(format_table(report.rows, title=f"{report.graph_name or spec.graph.path}"))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .core.persistence import load_assignment
    from .objectives import evaluate_partition

    spec_from_args(args, root=AlgorithmSpec)  # a given -k is algorithm.k's declaration
    try:
        graph = load_graph(args.input)
        assignment, stored_k = load_assignment(args.assignment)
    except _LOAD_ERRORS as exc:
        raise SystemExit(f"error: {exc}") from exc
    if assignment.size != graph.num_data:
        raise SystemExit(
            f"assignment has {assignment.size} entries, graph has {graph.num_data} data vertices"
        )
    k = args.k or stored_k or int(assignment.max()) + 1
    try:
        quality = evaluate_partition(graph, assignment.astype("int32"), k)
    except GraphValidationError as exc:
        raise SystemExit(f"error: {exc}") from exc
    print(format_table([quality.row()], title=f"{graph.name or args.input}"))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = spec_from_args(args)
    graph = load_dataset(args.dataset, scale=spec.graph.scale, seed=spec.seed)
    try:
        save_graph(graph, args.output)
    except GraphValidationError as exc:
        raise SystemExit(f"error: {exc}") from exc
    stats = graph_stats(graph)
    print(format_table([stats.row()], title=f"generated {args.dataset} -> {args.output}"))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    """Stream-convert a graph into the mmap-able ``.rgs`` binary store."""
    from .storage import convert_to_store

    try:
        header = convert_to_store(
            args.input, args.output, chunk_edges=args.chunk_edges, name=args.name
        )
    except _LOAD_ERRORS as exc:
        raise SystemExit(f"error: {exc}") from exc
    out_bytes = Path(args.output).stat().st_size
    print(
        format_table(
            [
                {
                    "queries": header.num_queries,
                    "data": header.num_data,
                    "edges": header.num_edges,
                    "sections": len(header.sections),
                    "MiB": round(out_bytes / (1 << 20), 2),
                }
            ],
            title=f"converted {args.input} -> {args.output}",
        )
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Run several partitioners through the shared runner and rank by fanout.

    Every algorithm knob (-p, --objective) is routed through
    the same JobSpec path as ``partition``, so SHP variants honor them here
    too instead of silently running with defaults.
    """
    from .api import load_graph_spec

    names = args.algorithms or ["random", "label-prop", "shp-2", "shp-k", "mondriaan-like"]
    base = spec_from_args(args)
    # Load (and prune, as graph.remove_small_queries says) once;
    # run(graph=...) skips the per-spec file reload.
    try:
        graph = load_graph_spec(base)
    except _LOAD_ERRORS as exc:
        raise SystemExit(f"error: {exc}") from exc
    rows = []
    for name in names:
        spec = base.with_(
            algorithm=dataclasses.replace(base.algorithm, name=name)
        )
        report = _api_run(spec, graph=graph)
        rows.extend(report.rows)
    rows.sort(key=lambda row: row["fanout"])
    title = f"{Path(args.input).stem} (k={args.k})"
    print(format_table(rows, title=title))
    return 0


def _cmd_serve_sim(args: argparse.Namespace) -> int:
    """Run the online serving loop: replay → churn → in-budget repair → replay."""
    spec = spec_from_args(
        args, {"kind": "serving", "graph.source": "file" if args.input else "darwini"}
    )
    report = _api_run(spec)
    serving = spec.serving
    if not args.input:
        print(f"generated Darwini-like workload: {report.graph_name or 'workload'}")
    print(
        format_table(
            report.rows,
            title=(
                f"serving loop on {report.graph_name or 'workload'} — {serving.servers} servers, "
                f"{100 * serving.churn_fraction:.0f}% churn/round, "
                f"{100 * serving.migration_budget:.0f}% migration budget"
            ),
        )
    )
    print(
        f"total records migrated across {serving.rounds} rounds: "
        f"{report.meters['total_migrated']} of {report.meters['records']}"
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Run reprolint; exit status is the unsuppressed-finding count."""
    import json as _json

    from .analysis import lint_paths

    if args.san:
        # Non-strict: collect runtime findings instead of raising, then
        # fold them into the static report below.
        from .analysis import sanitizers

        sanitizers.enable(strict=False)
    paths = args.paths or ["src"]
    try:
        report = lint_paths(paths, select=args.select, ignore=args.ignore)
    except (FileNotFoundError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        raise SystemExit(f"error: {message}") from exc
    if args.san:
        report = sanitizers.merge_runtime_findings(report)
    if args.format == "json":
        print(_json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_human(show_suppressed=args.show_suppressed))
    return report.exit_code


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = [
        {
            "name": spec.name,
            "family": spec.family,
            "paper |Q|": spec.paper_q,
            "paper |D|": spec.paper_d,
            "paper |E|": spec.paper_e,
        }
        for spec in DATASETS.values()
    ]
    print(format_table(rows, title="Table 1 dataset registry (synthetic stand-ins)"))
    return 0


def _cmd_rpc_worker(args: argparse.Namespace) -> int:
    """Run one RPC worker process (the remote end of ``--backend rpc``)."""
    from .distributed import serve_worker

    def ready(port: int) -> None:
        print(f"repro rpc-worker listening on {args.host}:{port}", flush=True)

    try:
        serve_worker(
            args.host, args.port, serve_forever=not args.once, ready=ready
        )
    except KeyboardInterrupt:
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree (exposed for docs and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Social Hash Partitioner (SHP) reproduction — hypergraph partitioning CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    r = sub.add_parser(
        "run", help="execute a declarative job spec (TOML/JSON; see examples/jobs/)"
    )
    r.add_argument("spec", nargs="+", help="job spec file(s)")
    r.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a spec field by dotted path (e.g. --set algorithm.k=16); repeatable",
    )
    r.add_argument(
        "--smoke", action="store_true",
        help="shrink the job for CI smoke runs (same code paths, tiny budgets)",
    )
    r.add_argument(
        "--sanitize", action="store_true",
        help="enable the runtime sanitizer (shared-write disjointness; "
        "equivalent to REPRO_SAN=1) and fail on violations",
    )
    r.set_defaults(func=_cmd_run)

    p = sub.add_parser("partition", help="partition a hypergraph")
    add_spec_flags(p, SPEC_FLAGS["partition"])
    p.set_defaults(func=_cmd_partition)

    cv = sub.add_parser(
        "convert",
        help="stream-convert a graph to the mmap-able .rgs binary store "
        "(bounded memory; see docs/architecture.md 'Storage layer')",
    )
    cv.add_argument("input", help="source graph (.hgr / .tsv / .npz)")
    cv.add_argument("output", help="output store file (.rgs)")
    cv.add_argument(
        "--chunk-edges", type=int, default=1 << 20,
        help="edges held in memory at once during conversion (default: ~1M)",
    )
    cv.add_argument(
        "--name", default=None,
        help="dataset name stamped into the store header (default: input stem)",
    )
    cv.set_defaults(func=_cmd_convert)

    e = sub.add_parser("evaluate", help="evaluate an existing assignment")
    e.add_argument("input", help="graph file")
    e.add_argument("assignment", help="assignment file (.npz, or one bucket id per line)")
    add_spec_flags(e, SPEC_FLAGS["evaluate"], root=AlgorithmSpec)
    e.set_defaults(func=_cmd_evaluate)

    c = sub.add_parser("compare", help="run several partitioners and rank by fanout")
    add_spec_flags(c, SPEC_FLAGS["compare"])
    c.add_argument(
        "--algorithms", nargs="*",
        choices=option_choices(AlgorithmSpec.__dataclass_fields__["name"]),
        help="subset to compare (default: a representative five)",
    )
    c.set_defaults(func=_cmd_compare)

    g = sub.add_parser("generate", help="generate a Table 1 dataset stand-in")
    g.add_argument("dataset", choices=dataset_names())
    add_spec_flags(g, SPEC_FLAGS["generate"])
    g.add_argument("-o", "--output", required=True, help="output file (.hgr / .tsv / .npz)")
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser(
        "serve-sim",
        help="online serving loop: traffic replay + graph churn + incremental repair",
    )
    add_spec_flags(s, SPEC_FLAGS["serve-sim"])
    s.set_defaults(func=_cmd_serve_sim)

    li = sub.add_parser(
        "lint",
        help="run the repo's determinism/wire-safety static checks "
        "(reprolint; see docs/development.md)",
    )
    li.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src)",
    )
    li.add_argument(
        "--select", action="append", metavar="CODE",
        help="run only these rule codes (repeatable, e.g. --select REP002)",
    )
    li.add_argument(
        "--ignore", action="append", metavar="CODE",
        help="skip these rule codes (repeatable)",
    )
    li.add_argument(
        "--format", default="human", choices=("human", "json"),
        help="output format (default: human)",
    )
    li.add_argument(
        "--show-suppressed", action="store_true",
        help="also list suppressed findings with their reasons",
    )
    li.add_argument(
        "--san", action="store_true",
        help="also enable the runtime sanitizer and fold any runtime "
        "violations collected in this process into the report",
    )
    li.set_defaults(func=_cmd_lint)

    d = sub.add_parser("datasets", help="list the dataset registry")
    d.set_defaults(func=_cmd_datasets)

    w = sub.add_parser(
        "rpc-worker",
        help="serve as a distributed-engine worker over TCP "
        "(see docs/running-distributed.md)",
    )
    w.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default: loopback only; the worker unpickles "
        "whatever connects, so pass 0.0.0.0 or a private interface "
        "explicitly to serve a trusted cluster network)",
    )
    w.add_argument(
        "--port", type=int, default=0,
        help="port to listen on (default: 0 = auto-assign and print)",
    )
    w.add_argument(
        "--once", action="store_true",
        help="exit after serving one master connection (default: keep "
        "serving jobs until killed)",
    )
    w.set_defaults(func=_cmd_rpc_worker)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
