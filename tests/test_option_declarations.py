"""An option is declared once: what is derived from the JobSpec fields.

Every user-visible option is one ``name: type = option(default, ...)``
line in ``repro/api/spec.py``; validation, the ``partition`` / ``compare``
/ ``serve-sim`` flags and the README key table are derived from it.  These
tests pin that (a) nothing visible moved when the hand-written versions
were deleted — the parser surface and the default spec are literals
captured at the parent commit — (b) a new field really needs no edit
outside its declaration, (c) the registries behind the choices load and
resolve (what survives of the retired REP005 lint rule), and (d) the
library dataclasses, which keep their own defaults as a separate public
API, have not drifted from the spec's.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
from dataclasses import dataclass

import pytest

from repro.api import BACKENDS, MATCHERS, OBJECTIVES, PARTITIONERS, JobSpec, Registry, SpecError
from repro.api.spec import check_options, iter_options, option
from repro.cli import add_spec_flags, build_parser, spec_from_args


def parser_surface(parser: argparse.ArgumentParser) -> dict:
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [
            (tuple(a.option_strings), a.dest, a.nargs, getattr(a.type, "__name__", a.type),
             a.default, a.choices and tuple(a.choices), a.required, a.help)
            for a in command._actions if not isinstance(a, argparse._HelpAction)
        ]
        for name, command in sub.choices.items()
    }


class TestNothingVisibleMoved:
    def test_parser_surface_is_the_parents(self):
        assert parser_surface(build_parser()) == PARSER_SURFACE

    def test_default_spec_is_the_parents(self):
        assert JobSpec().to_dict() == DEFAULT_SPEC

    def test_there_are_still_36_keys(self):
        assert len(list(iter_options(JobSpec))) == 36


class TestOneLineEdit:
    """A toy spec gets its checks *and* its flags from the helpers alone."""

    @dataclass(frozen=True)
    class Toy:
        depth: int = option(3, ge=1, flags=("-d", "--depth"), help="levels (default: {default})")
        mode: str = option("fast", choices=("fast", "exact"), flags=("--mode",))

        def __post_init__(self) -> None:
            check_options(self, "toy")

    def parser(self) -> argparse.ArgumentParser:
        parser = argparse.ArgumentParser(exit_on_error=False)
        add_spec_flags(parser, ("depth", "mode"), root=self.Toy)
        return parser

    def test_flags_come_from_the_declaration(self):
        depth, mode = (a for a in self.parser()._actions if a.dest in ("depth", "mode"))
        assert (depth.option_strings, depth.type, depth.default) == (["-d", "--depth"], int, 3)
        assert depth.help == "levels (default: 3)"
        assert (mode.option_strings, mode.choices) == (["--mode"], ["fast", "exact"])
        assert mode.default == "fast"
        with pytest.raises(argparse.ArgumentError, match="invalid choice"):
            self.parser().parse_args(["--mode", "sloppy"])

    def test_args_land_on_the_fields(self):
        args = self.parser().parse_args(["-d", "5", "--mode", "exact"])
        assert spec_from_args(args, root=self.Toy) == self.Toy(depth=5, mode="exact")
        assert spec_from_args(self.parser().parse_args([]), root=self.Toy) == self.Toy()

    def test_validation_comes_from_the_declaration(self):
        for kwargs, message in [
            ({"depth": 0}, r"^toy\.depth: must be >= 1; got 0$"),
            ({"depth": True}, r"^toy\.depth: expected int, got bool True$"),
            ({"depth": 2.0}, r"^toy\.depth: expected int, got float 2\.0$"),
            ({"mode": "sloppy"}, r"^toy\.mode: unknown mode 'sloppy'; known: fast, exact$"),
        ]:
            with pytest.raises(SpecError, match=message):
                self.Toy(**kwargs)
        with pytest.raises(SystemExit, match=r"^error: toy\.depth: must be >= 1"):
            spec_from_args(self.parser().parse_args(["-d", "0"]), root=self.Toy)

    def test_a_misspelt_declaration_keyword_is_an_error(self):
        with pytest.raises(TypeError, match="gte"):
            option(1, gte=0)


class TestRegistriesResolve:
    """REP005's surviving half: a typo'd loader module or a dangling alias
    fails here, not at a user's prompt."""

    @pytest.mark.parametrize("registry", [PARTITIONERS, OBJECTIVES, BACKENDS, MATCHERS],
                             ids=lambda r: r.kind)
    def test_every_name_and_alias_resolves(self, registry):
        assert registry.names(), f"{registry.kind} registry loaded no entries"
        for name in registry.names():
            assert registry.canonical(name) == name and registry.get(name) is not None
        for alias, target in registry._lookup.items():
            assert target in registry._entries and registry.canonical(alias) == target

    def test_a_broken_lazy_loader_raises_on_first_use(self):
        broken = Registry("partitioner", loader="repro.no_such_module")
        for _ in range(2):  # not latched as "loaded": the real error repeats
            with pytest.raises(ModuleNotFoundError, match="no_such_module"):
                broken.names()

    def test_cli_choices_are_the_live_registry(self):
        """Choices are read when the parser is built, so a partitioner
        registered after import is a legal ``--algorithm`` at once."""
        PARTITIONERS.register("zz-test-only")(lambda graph, k, **_: None)
        try:
            surface = parser_surface(build_parser())
            for command, flag in [("partition", "--algorithm"), ("compare", "--algorithms")]:
                row = next(r for r in surface[command] if flag in r[0])
                assert row[5] == tuple(PARTITIONERS.names()) and "zz-test-only" in row[5]
        finally:
            del PARTITIONERS._entries["zz-test-only"], PARTITIONERS._meta["zz-test-only"]
            del PARTITIONERS._lookup["zztestonly"]


class TestLibraryDefaultsHaveNotDrifted:
    """``SHPConfig`` / ``ServingConfig`` / ``ClusterSpec`` / ``RpcBackend`` are
    a public API of their own and keep their defaults; each must equal the
    spec default that is copied into it."""

    @staticmethod
    def library_default(owner, name):
        if dataclasses.is_dataclass(owner):
            return owner.__dataclass_fields__[name].default
        return inspect.signature(owner).parameters[name].default

    def test_spec_defaults_equal_library_defaults(self):
        from repro.core.config import SHPConfig
        from repro.distributed import ClusterSpec, RpcBackend
        from repro.workloads import ServingConfig

        spec = JobSpec()
        pairs = [(spec.algorithm, name, SHPConfig, name) for name in ("epsilon", "p", "objective")]
        pairs += [
            (spec.serving, f.name, ServingConfig, "num_servers" if f.name == "servers" else f.name)
            for f in dataclasses.fields(spec.serving)
        ]
        pairs += [
            (spec.execution, "workers", ClusterSpec, "num_workers"),
            (spec.execution, "connect_timeout", RpcBackend, "connect_timeout"),
            (spec.execution, "step_timeout", RpcBackend, "step_timeout"),
        ]
        assert len(pairs) == 3 + 8 + 3
        for section, key, owner, name in pairs:
            assert getattr(section, key) == self.library_default(owner, name), (
                f"{type(section).__name__}.{key} drifted from {owner.__name__}.{name}"
            )


# ----------------------------------------------------------------------
# Captured at the parent commit (PR 17, 1d3a9b3) with `parser_surface`
# above and `JobSpec().to_dict()`, before any flag or check was derived.
# Per action: (option_strings, dest, nargs, type, default, choices,
# required, help).  Edit only when a flag or default changes on purpose.
# ----------------------------------------------------------------------

PARSER_SURFACE = {'run': [((), 'spec', '+', None, None, None, True, 'job spec file(s)'),
         (('--set',), 'overrides', None, None, [], None, False,
          'override a spec field by dotted path (e.g. --set algorithm.k=16); repeatable'),
         (('--smoke',), 'smoke', 0, None, False, None, False,
          'shrink the job for CI smoke runs (same code paths, tiny budgets)'),
         (('--sanitize',), 'sanitize', 0, None, False, None, False,
          'enable the runtime sanitizer (shared-write disjointness; equivalent to REPRO_SAN=1) '
          'and fail on violations')],
 'partition': [((), 'input', None, None, None, None, True, 'graph file (.hgr / .tsv / .npz)'),
               (('-k',), 'k', None, 'int', None, None, True, 'number of buckets'),
               (('--algorithm',), 'algorithm', None, None, 'shp-2',
                ('random', 'hash', 'label-prop', 'streaming', 'shp-k', 'shp-2', 'mondriaan-like', 'zoltan-like',
                 'parkway-like', 'spectral'),
                False, 'partitioner (default: shp-2)'),
               (('--epsilon',), 'epsilon', None, 'float', 0.05, None, False, 'imbalance bound'),
               (('-p',), 'p', None, 'float', 0.5, None, False, 'fanout probability'),
               (('--objective',), 'objective', None, None, 'pfanout', ('pfanout', 'fanout', 'cliquenet'), False,
                None),
               (('--seed',), 'seed', None, 'int', 0, None, False, None),
               (('--backend',), 'backend', None, None, 'local', ('local', 'sim', 'mp', 'rpc'), False,
                "execution backend: 'local' (in-process vectorized optimizer), 'sim' (vertex-centric engine, "
                "simulated workers), 'mp' (vertex-centric engine, one OS process per worker), 'rpc' (workers over "
                'TCP; see docs/running-distributed.md)'),
               (('--workers',), 'workers', None, 'int', 4, None, False,
                'cluster worker count for engine backends (default: 4)'),
               (('--refine-workers',), 'refine_workers', None, 'int', 1, None, False,
                'shared-memory gain workers for the local shp-2 refinement (--backend local); assignments stay '
                'bitwise-identical to serial per seed (default: 1)'),
               (('--combiner',), 'combiner', 0, None, False, None, False,
                'combine messages per destination before transmission (engine backends; fewer wire bytes, '
                'bitwise-identical result)'),
               (('--hosts',), 'hosts', None, None, [], None, False,
                'rpc worker endpoint (repeatable); with --backend rpc and no --hosts, localhost workers are spawned '
                'automatically'),
               (('-o', '--output'), 'output', None, None, None, None, False,
                'write assignment (.npz archive, or plain text one bucket per line)')],
 'convert': [((), 'input', None, None, None, None, True, 'source graph (.hgr / .tsv / .npz)'),
             ((), 'output', None, None, None, None, True, 'output store file (.rgs)'),
             (('--chunk-edges',), 'chunk_edges', None, 'int', 1048576, None, False,
              'edges held in memory at once during conversion (default: ~1M)'),
             (('--name',), 'name', None, None, None, None, False,
              'dataset name stamped into the store header (default: input stem)')],
 'evaluate': [((), 'input', None, None, None, None, True, 'graph file'),
              ((), 'assignment', None, None, None, None, True, 'assignment file (.npz, or one bucket id per line)'),
              (('-k',), 'k', None, 'int', 0, None, False, 'bucket count (default: stored or max+1)')],
 'compare': [((), 'input', None, None, None, None, True, 'graph file'),
             (('-k',), 'k', None, 'int', None, None, True, None),
             (('--epsilon',), 'epsilon', None, 'float', 0.05, None, False, 'imbalance bound'),
             (('-p',), 'p', None, 'float', 0.5, None, False, 'fanout probability'),
             (('--objective',), 'objective', None, None, 'pfanout', ('pfanout', 'fanout', 'cliquenet'), False, None),
             (('--seed',), 'seed', None, 'int', 0, None, False, None),
             (('--algorithms',), 'algorithms', '*', None, None,
              ('random', 'hash', 'label-prop', 'streaming', 'shp-k', 'shp-2', 'mondriaan-like', 'zoltan-like',
               'parkway-like', 'spectral'),
              False, 'subset to compare (default: a representative five)')],
 'generate': [((), 'dataset', None, None, None,
               ('email-Enron', 'soc-Epinions', 'web-Stanford', 'web-BerkStan', 'soc-Pokec', 'soc-LJ', 'FB-10M',
                'FB-50M', 'FB-2B', 'FB-5B', 'FB-10B'),
               True, None),
              (('--scale',), 'scale', None, 'float', 0.01, None, False, None),
              (('--seed',), 'seed', None, 'int', 0, None, False, None),
              (('-o', '--output'), 'output', None, None, None, None, True, 'output file (.hgr / .tsv / .npz)')],
 'serve-sim': [((), 'input', '?', None, None, None, False,
                'graph file (.hgr / .tsv / .npz); omitted = generate a Darwini workload'),
               (('--users',), 'users', None, 'int', 4000, None, False,
                'users in the generated workload (no input file; default: 4000)'),
               (('--avg-degree',), 'avg_degree', None, 'int', 30, None, False,
                'average friend count in the generated workload (default: 30)'),
               (('--servers',), 'servers', None, 'int', 16, None, False, 'storage servers (default: 16)'),
               (('--rounds',), 'rounds', None, 'int', 3, None, False, 'serving rounds (default: 3)'),
               (('--queries',), 'queries', None, 'int', 2000, None, False,
                'sampled queries per round (default: 2000)'),
               (('--skew',), 'skew', None, 'float', 0.8, None, False, 'Zipf traffic skew (default: 0.8)'),
               (('--churn',), 'churn', None, 'float', 0.05, None, False,
                'fraction of queries rewired per round (default: 0.05)'),
               (('--budget',), 'budget', None, 'float', 0.1, None, False,
                'migration budget: max fraction of records moved per repair (default: 0.10)'),
               (('--repair-iterations',), 'repair_iterations', None, 'int', 15, None, False,
                'refinement iterations per incremental repair (default: 15)'),
               (('--method',), 'method', None, None, '2', ('2', 'k'), False,
                'incremental repair driver (default: shp-2)'),
               (('--seed',), 'seed', None, 'int', 0, None, False, None)],
 'lint': [((), 'paths', '*', None, None, None, True, 'files or directories to lint (default: src)'),
          (('--select',), 'select', None, None, None, None, False,
           'run only these rule codes (repeatable, e.g. --select REP002)'),
          (('--ignore',), 'ignore', None, None, None, None, False, 'skip these rule codes (repeatable)'),
          (('--format',), 'format', None, None, 'human', ('human', 'json'), False, 'output format (default: human)'),
          (('--show-suppressed',), 'show_suppressed', 0, None, False, None, False,
           'also list suppressed findings with their reasons'),
          (('--san',), 'san', 0, None, False, None, False,
           'also enable the runtime sanitizer and fold any runtime violations collected in this process into the '
           'report')],
 'datasets': [],
 'rpc-worker': [(('--host',), 'host', None, None, '127.0.0.1', None, False,
                 'interface to bind (default: loopback only; the worker unpickles whatever connects, so pass 0.0.0.0 '
                 'or a private interface explicitly to serve a trusted cluster network)'),
                (('--port',), 'port', None, 'int', 0, None, False,
                 'port to listen on (default: 0 = auto-assign and print)'),
                (('--once',), 'once', 0, None, False, None, False,
                 'exit after serving one master connection (default: keep serving jobs until killed)')]}

DEFAULT_SPEC = {'kind': 'partition',
 'seed': 0,
 'graph': {'source': 'file',
           'path': None,
           'dataset': None,
           'scale': 0.01,
           'users': 4000,
           'avg_degree': 30,
           'clustering': 0.4,
           'remove_small_queries': True},
 'algorithm': {'name': 'shp-2', 'k': 2, 'epsilon': 0.05, 'p': 0.5, 'objective': 'pfanout', 'options': {}},
 'execution': {'backend': 'local',
               'workers': 4,
               'refine_workers': 1,
               'vertex_mode': 'columnar',
               'combiner': False,
               'hosts': None,
               'connect_timeout': 10.0,
               'step_timeout': 600.0},
 'pipeline': {'warmstart': 'streaming', 'options': {}},
 'serving': {'servers': 16,
             'rounds': 3,
             'queries_per_round': 2000,
             'skew': 0.8,
             'churn_fraction': 0.05,
             'migration_budget': 0.1,
             'repair_iterations': 15,
             'method': '2'},
 'output': {'assignment': None, 'artifacts': None}}
