"""An option is declared once: what is derived from the declarations.

Every user-visible option is one ``name: type = option(default, ...)``
line — the job-spec keys in ``repro/api/spec.py``, the library knobs on
``SHPConfig`` / ``ServingConfig`` — and validation, the CLI flags and the
README key table are derived from it.  These tests pin that (a) nothing
visible moved when the hand-written versions were deleted — the parser
surface and the default spec are literals captured at the parent commit —
(b) a new field really needs no edit outside its declaration, (c) the
registries behind the choices load and resolve (what survives of the
retired REP005 lint rule), and (d) the library configs are declarations
too: an ``options`` table is checked against them when the spec is built,
so a bad value is one line naming ``algorithm.options.<key>`` before any
graph is loaded, through the library, ``JobSpec`` and ``repro run --set``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import BACKENDS, MATCHERS, OBJECTIVES, PARTITIONERS, JobSpec, Registry, SpecError
from repro.api.spec import _BOUNDS, _hints, check_options, iter_options, option
from repro.cli import add_spec_flags, build_parser, main, spec_from_args
from repro.core.config import SHPConfig
from repro.workloads import ServingConfig


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


def numeric_options(config: type) -> list[tuple[str, type, dict]]:
    """``(name, int | float, bounds)`` of every bounded numeric field."""
    return [
        (f.name, _hints(config)[f.name], {k: f.metadata[k] for k in _BOUNDS if k in f.metadata})
        for f in dataclasses.fields(config)
        if _hints(config)[f.name] in (int, float) and any(k in f.metadata for k in _BOUNDS)
    ]


def just_outside(kind: type, bounds: dict):
    """One value per declared bound that misses it by the smallest step."""
    step = (lambda x, way: x + way) if kind is int else (lambda x, way: math.nextafter(x, way * math.inf))
    return [
        *([step(bounds["ge"], -1)] if "ge" in bounds else []),
        *([bounds["gt"]] if "gt" in bounds else []),
        *([step(bounds["le"], +1)] if "le" in bounds else []),
    ]


class TestLibraryConfigsAreDeclarations:
    """``SHPConfig`` / ``ServingConfig`` use the spec's own ``option()`` lines."""

    @pytest.mark.parametrize("config", [SHPConfig, ServingConfig])
    def test_every_field_carries_a_declaration(self, config):
        for f in dataclasses.fields(config):
            assert f.metadata, f"{config.__name__}.{f.name} is a bare default, not an option()"
            if _hints(config)[f.name] in (int, float) and f.name not in ("seed", "skew"):
                assert any(k in f.metadata for k in _BOUNDS), f"{f.name} has no range"
        assert (len(dataclasses.fields(SHPConfig)), len(dataclasses.fields(ServingConfig))) == (19, 11)

    def test_shared_defaults_are_read_not_restated(self):
        """What the deleted drift test compared is one literal now: the
        library side reads the spec field's default (and bounds)."""
        from repro.distributed import ClusterSpec, MultiprocessBackend, RpcBackend

        spec = JobSpec()
        for name in ("p", "objective", "epsilon"):
            assert SHPConfig.__dataclass_fields__[name].default is getattr(spec.algorithm, name)
        for f in dataclasses.fields(spec.serving):
            twin = ServingConfig.__dataclass_fields__["num_servers" if f.name == "servers" else f.name]
            assert twin.default is f.default and twin.metadata == f.metadata
        assert ClusterSpec().num_workers is spec.execution.workers
        assert RpcBackend().connect_timeout == spec.execution.connect_timeout
        assert RpcBackend().step_timeout == MultiprocessBackend().step_timeout
        assert MultiprocessBackend().step_timeout == spec.execution.step_timeout

    def test_post_init_holds_no_hand_written_check(self):
        import inspect

        for config in (SHPConfig, ServingConfig):
            assert "raise" not in inspect.getsource(config.__post_init__)

    def test_numpy_scalars_are_numbers(self):
        np = pytest.importorskip("numpy")
        config = SHPConfig(k=np.int64(8), p=np.float32(0.5), max_iterations=np.int32(3))
        assert config.k == 8
        with pytest.raises(SpecError, match=r"^k: expected int, got bool"):
            SHPConfig(k=True)

    @pytest.mark.parametrize("name, kind, bounds", numeric_options(ServingConfig))
    def test_serving_config_ranges(self, name, kind, bounds):
        for bad in (*just_outside(kind, bounds), "abc"):
            with pytest.raises(ValueError, match=rf"^{name}: "):
                ServingConfig(**{name: bad})


@pytest.fixture(scope="module")
def job_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("options") / "job.json"
    path.write_text(json.dumps({
        "graph": {"source": "darwini", "users": 300, "avg_degree": 6},
        "algorithm": {"name": "shp-2", "k": 4},
    }))
    return str(path)


def run_refuses(job_file, overrides, message):
    """`repro run --set ...` exits with one `error:` line, before a graph loads."""
    import repro.api.runner as runner

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "load_graph_spec", lambda *a, **k: pytest.fail("a graph was loaded"))
        argv = ["run", job_file, *(arg for item in overrides for arg in ("--set", item))]
        with pytest.raises(SystemExit, match=rf"^error: \S+: {message}") as exit_info:
            main(argv)
    assert "\n" not in str(exit_info.value)


class TestOptionTablesAreCheckedWhereTheSpecIsBuilt:
    """The hole in the strict spec: ``algorithm.options`` / ``pipeline.options``."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_out_of_range_and_mistyped_values_name_their_key(self, job_file, data):
        name, kind, bounds = data.draw(st.sampled_from(numeric_options(SHPConfig)))
        wrong_type = ["abc", True, *([2.5] if kind is int else [])]
        bad = data.draw(st.sampled_from([*just_outside(kind, bounds), *wrong_type]))
        with pytest.raises(ValueError, match=rf"^{name}: "):
            SHPConfig(**{name: bad})
        path = rf"algorithm\.options\.{name}: "
        with pytest.raises(SpecError, match="^" + path):
            JobSpec.from_dict({"algorithm": {"options": {name: bad}}})
        literal = json.dumps(bad)  # a TOML literal too: number, "string" or true
        run_refuses(job_file, [f"algorithm.options.{name}={literal}"], path)

    #: One row per probe in ISSUE 23's Motivation; each ran (or died in a
    #: kernel) at the parent.
    PROBES = [
        ({"algorithm": {"k": 8, "options": {"k": 4}}},
         r"algorithm\.options\.k: set algorithm\.k instead$"),
        ({"algorithm": {"options": {"seed": 99}}}, r"algorithm\.options\.seed: set seed instead$"),
        ({"algorithm": {"options": {"refine_workers": 2}}},
         r"algorithm\.options\.refine_workers: set execution\.refine_workers instead$"),
        ({"algorithm": {"options": {"swap_mode": "strict"}}, "execution": {"backend": "sim"}},
         r"algorithm\.options\.swap_mode: set execution\.backend = 'local' \(the engine's swaps are "
         r"always 'bernoulli'\) instead$"),
        ({"algorithm": {"options": {"num_bins": 0}}},
         r"algorithm\.options\.num_bins: must be >= 1; got 0$"),
        ({"algorithm": {"options": {"num_bins": "abc"}}},
         r"algorithm\.options\.num_bins: expected int, got str 'abc'$"),
        ({"algorithm": {"options": {"iterations_per_bisection": 2.5}}},
         r"algorithm\.options\.iterations_per_bisection: expected int, got float 2\.5$"),
        ({"algorithm": {"options": {"move_damping": "x"}}},
         r"algorithm\.options\.move_damping: expected float, got str 'x'$"),
        ({"algorithm": {"options": {"max_iterations": -5}}},
         r"algorithm\.options\.max_iterations: must be >= 0; got -5$"),
        ({"algorithm": {"options": {"convergence_fraction": -1}}},
         r"algorithm\.options\.convergence_fraction: must be >= 0, <= 1; got -1$"),
        ({"algorithm": {"options": {"matcher": "greedy"}}},
         r"algorithm\.options\.matcher: unknown matcher 'greedy'; known: uniform, histogram$"),
        ({"algorithm": {"name": "random", "options": {"flavour": 1}}},
         r"algorithm\.options\.flavour: unknown option for 'random'; known: k, seed$"),
        ({"algorithm": {"name": "label-prop", "options": {"max_iteration": 3}}},
         r"algorithm\.options\.max_iteration: unknown option for 'label-prop'; known: .*max_iterations"),
        ({"pipeline": {"options": {"chunk_vertice": 7}}},
         r"pipeline\.options\.chunk_vertice: unknown option for 'streaming'; known: k, epsilon, seed$"),
        ({"pipeline": {"options": {"k": 9}}},
         r"pipeline\.options\.k: set algorithm\.k instead$"),
        ({"pipeline": {"warmstart": "shp-2", "options": {"num_bins": 0}}},
         r"pipeline\.options\.num_bins: must be >= 1; got 0$"),
    ]

    @pytest.mark.parametrize("data, message", PROBES, ids=[m.split(":")[0].replace("\\", "") for _, m in PROBES])
    def test_a_bad_table_is_one_line_before_any_graph_is_loaded(self, job_file, data, message):
        with pytest.raises(SpecError, match="^" + message):
            JobSpec.from_dict(data)
        overrides = [
            f"{section}.{key}={json.dumps(value)}"
            for section, table in data.items() for key, value in table.items() if key != "options"
        ] + [
            f"{section}.options.{key}={json.dumps(value)}"
            for section, table in data.items() for key, value in table.get("options", {}).items()
        ]
        run_refuses(job_file, overrides, message)

    def test_legal_tables_stay_legal(self):
        """Every declared key at a legal value, the local swap mode, an SHP
        warm start's own p, a baseline's named parameter."""
        JobSpec.from_dict({"algorithm": {"options": {
            "max_iterations": 0, "iterations_per_bisection": 7, "convergence_fraction": 0,
            "matcher": "uniform", "swap_mode": "bernoulli", "allow_negative_gains": False,
            "use_final_pfanout": False, "epsilon_schedule": False, "move_damping": 0.5,
            "num_bins": 1, "min_gain": 1e-9, "track_metrics": "full", "move_penalty": 0,
        }}})
        JobSpec.from_dict({"algorithm": {"name": "label-prop", "options": {"max_iterations": 3}}})
        JobSpec.from_dict({"pipeline": {"warmstart": "shp-k", "options": {"p": 0.3, "num_bins": 8}}})
        assert JobSpec() == JobSpec.from_dict({})

    def test_generate_scale_and_seed_are_spec_keys(self, tmp_path):
        """`generate --scale -1` was a TypeError (int() of a complex) traceback."""
        out = str(tmp_path / "g.hgr")
        with pytest.raises(SystemExit, match=r"^error: graph\.scale: must be > 0; got -1\.0$"):
            main(["generate", "email-Enron", "--scale", "-1", "-o", out])
        with pytest.raises(SystemExit, match=r"^error: seed: must be >= 0; got -3$"):
            main(["generate", "email-Enron", "--seed", "-3", "-o", out])
        with pytest.raises(SystemExit, match=r"^error: algorithm\.k: must be >= 1; got 0$"):
            main(["evaluate", out, out, "-k", "0"])

    @pytest.mark.parametrize("backend, expected", [
        ("sim", {}),
        ("mp", {"step_timeout": 7.5}),
        ("rpc", {"step_timeout": 7.5, "connect_timeout": 2.5, "hosts": ["127.0.0.1:7077"]}),
    ])
    def test_connection_keys_reach_the_backend_that_has_them(self, monkeypatch, backend, expected):
        """`execution.step_timeout` used to be handed to rpc only; the one
        assembly also pins the engine's swap mode."""
        import repro.api.runner as runner
        from repro.distributed_shp import DistributedSHP

        monkeypatch.setattr(DistributedSHP, "run", lambda job, graph, initial=None: job)
        execution = {"backend": backend, "workers": 2, "step_timeout": 7.5, "connect_timeout": 2.5}
        if backend == "rpc":
            execution["hosts"] = ["127.0.0.1:7077"]
        spec = JobSpec.from_dict({
            "seed": 3, "algorithm": {"k": 4, "options": {"num_bins": 8}}, "execution": execution,
        })
        job = runner._run_engine(spec, graph=None)
        assert type(job.backend).name == backend
        assert {key: getattr(job.backend, key) for key in expected} == expected
        assert job.config == SHPConfig(k=4, seed=3, num_bins=8, swap_mode="bernoulli")


# ----------------------------------------------------------------------
# Captured at the parent commit (PR 17, 1d3a9b3) with `parser_surface`
# above and `JobSpec().to_dict()`, before any flag or check was derived.
# Per action: (option_strings, dest, nargs, type, default, choices,
# required, help).  Edit only when a flag or default changes on purpose
# (PR 23: `evaluate -k` derives from `algorithm.k`; not given is None, not 0).
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
              (('-k',), 'k', None, 'int', None, None, False, 'bucket count (default: stored or max+1)')],
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
