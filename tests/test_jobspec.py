"""JobSpec round-trips, file loading, --set overrides, and validation errors."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import (
    AlgorithmSpec,
    ExecutionSpec,
    GraphSpec,
    JobSpec,
    OutputSpec,
    ServingSpec,
    SpecError,
    apply_overrides,
    parse_override,
)
from repro.api.registry import BACKENDS, MATCHERS, OBJECTIVES, PARTITIONERS


class TestRoundTrip:
    def test_default_spec_round_trips(self):
        spec = JobSpec()
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_full_spec_round_trips(self):
        spec = JobSpec(
            kind="serving",
            seed=11,
            graph=GraphSpec(source="darwini", users=500, avg_degree=7),
            algorithm=AlgorithmSpec(
                name="shp-k", k=8, objective="cliquenet", options={"move_damping": 0.5}
            ),
            execution=ExecutionSpec(backend="sim", workers=3, combiner=True),
            serving=ServingSpec(servers=4, rounds=2),
            output=OutputSpec(assignment="a.npz", artifacts="runs/x"),
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_is_json_serializable(self):
        spec = JobSpec(algorithm=AlgorithmSpec(options={"max_iterations": 3}))
        reloaded = json.loads(json.dumps(spec.to_dict()))
        assert JobSpec.from_dict(reloaded) == spec

    @settings(max_examples=25, deadline=None)
    @given(
        kind=st.sampled_from(["partition", "serving", "stream-refine"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        name=st.sampled_from(PARTITIONERS.names()),
        k=st.integers(min_value=2, max_value=64),
        epsilon=st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
        p=st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
        objective=st.sampled_from(OBJECTIVES.names()),
        backend=st.sampled_from(["local", *BACKENDS.names()]),
        workers=st.integers(min_value=1, max_value=8),
        source=st.sampled_from(["dataset", "darwini"]),
        options=st.fixed_dictionaries({}, optional={
            "num_bins": st.integers(min_value=1, max_value=64),
            "move_damping": st.floats(min_value=0.1, max_value=1.0),
            "matcher": st.sampled_from(MATCHERS.names()),
        }),
    )
    def test_round_trip_property(
        self, kind, seed, name, k, epsilon, p, objective, backend, workers,
        source, options,
    ):
        """from_dict(to_dict(s)) == s over the whole enum/range grid."""
        # An engine partition job needs an engine-capable algorithm, a
        # stream-refine job that and an engine backend: other pairings are
        # rejected at construction (tested on their own below).
        engine_mode = PARTITIONERS.meta(name).get("engine_mode")
        # ... on the engine shp-2 bisects level-synchronously: k = 2^n.
        engine_capable = bool(engine_mode) and (engine_mode != "2" or k & (k - 1) == 0)
        # ... and an options table only what its partitioner declares: these
        # three keys are SHPConfig's.
        assume(not options or PARTITIONERS.meta(name).get("config") is not None)
        assume({
            "serving": True,
            "partition": backend == "local" or engine_capable,
            "stream-refine": backend != "local" and engine_capable,
        }[kind])
        spec = JobSpec(
            kind=kind,
            seed=seed,
            graph=GraphSpec(source=source, dataset="email-Enron", scale=0.01),
            algorithm=AlgorithmSpec(
                name=name, k=k, epsilon=epsilon, p=p, objective=objective, options=options,
            ),
            execution=ExecutionSpec(backend=backend, workers=workers),
        )
        assert JobSpec.from_dict(spec.to_dict()) == spec


class TestValidationErrors:
    @pytest.mark.parametrize(
        "data, dotted_path",
        [
            ({"bogus": 1}, "bogus"),
            ({"graph": {"sources": "file"}}, "graph.sources"),
            ({"algorithm": {"naem": "shp-2"}}, "algorithm.naem"),
            ({"execution": {"backendd": "sim"}}, "execution.backendd"),
            ({"serving": {"server": 4}}, "serving.server"),
            ({"output": {"assignments": "x"}}, "output.assignments"),
        ],
    )
    def test_unknown_keys_name_dotted_path(self, data, dotted_path):
        with pytest.raises(SpecError, match=dotted_path.replace(".", r"\.")):
            JobSpec.from_dict(data)

    @pytest.mark.parametrize(
        "data, dotted_path",
        [
            ({"kind": "banana"}, "kind"),
            ({"graph": {"source": "url", "path": "x"}}, "graph.source"),
            ({"algorithm": {"name": "nope"}}, "algorithm.name"),
            ({"algorithm": {"objective": "nope"}}, "algorithm.objective"),
            # A retired key, not an enum any more: strict validation still
            # names it (see test_level_mode_is_an_unknown_key).
            ({"algorithm": {"level_mode": "nope"}}, "algorithm.level_mode"),
            ({"execution": {"backend": "smoke-signal"}}, "execution.backend"),
            ({"execution": {"vertex_mode": "nope"}}, "execution.vertex_mode"),
            ({"serving": {"method": "3"}}, "serving.method"),
        ],
    )
    def test_bad_enums_name_dotted_path(self, data, dotted_path):
        with pytest.raises(SpecError, match=dotted_path.replace(".", r"\.")):
            JobSpec.from_dict(data)

    def test_vertex_mode_is_a_compatibility_key(self):
        """`execution.vertex_mode` is still accepted (old specs write it) but
        selects nothing; asking for the retired per-vertex mode says where
        that reference went."""
        spec = JobSpec.from_dict({"execution": {"backend": "sim", "vertex_mode": "columnar"}})
        assert spec.execution.vertex_mode == "columnar"
        with pytest.raises(SpecError, match=r"execution\.vertex_mode.*tests/oracles"):
            JobSpec.from_dict({"execution": {"vertex_mode": "dict"}})

    def test_level_mode_is_an_unknown_key(self):
        """`algorithm.level_mode` left with the loop mode (PR 14); unlike
        `vertex_mode` it is not kept as a compatibility key."""
        with pytest.raises(SpecError, match=r"unknown key 'algorithm\.level_mode'"):
            JobSpec.from_dict({"algorithm": {"level_mode": "fused"}})

    @pytest.mark.parametrize("backend", ["local", "sim"])
    def test_unknown_shp_option_names_dotted_path(self, backend):
        """An `algorithm.options` key SHPConfig does not have is a SpecError
        when the JobSpec is built, for the local and the engine path alike
        (it used to surface at run time, once a TypeError from the
        dataclass constructor)."""
        with pytest.raises(
            SpecError, match=r"algorithm\.options\.bogus: unknown SHP option.*known:.*seed"
        ):
            JobSpec(
                algorithm=AlgorithmSpec(name="shp-2", k=4, options={"bogus": 1}),
                execution=ExecutionSpec(backend=backend, workers=2),
            )

    @pytest.mark.parametrize(
        "data, dotted_path",
        [
            ({"seed": "zero"}, "seed"),
            ({"algorithm": {"k": 2.5}}, "algorithm.k"),
            ({"algorithm": {"k": True}}, "algorithm.k"),
            ({"graph": {"scale": "big"}}, "graph.scale"),
            ({"execution": {"workers": "four"}}, "execution.workers"),
        ],
    )
    def test_bad_types_name_dotted_path(self, data, dotted_path):
        with pytest.raises(SpecError, match=dotted_path.replace(".", r"\.")):
            JobSpec.from_dict(data)

    @pytest.mark.parametrize(
        "data, dotted_path",
        [
            ({"algorithm": {"k": 0}}, "algorithm.k"),
            ({"algorithm": {"p": 0.0}}, "algorithm.p"),
            ({"algorithm": {"epsilon": -0.1}}, "algorithm.epsilon"),
            ({"graph": {"scale": 0.0}}, "graph.scale"),
            ({"execution": {"workers": 0}}, "execution.workers"),
            ({"serving": {"servers": 1}}, "serving.servers"),
            ({"serving": {"churn_fraction": 1.5}}, "serving.churn_fraction"),
            # Ranges that used to be checked nowhere (the job ran on a
            # silently different input) or deep inside the run.
            ({"serving": {"queries_per_round": -5}}, "serving.queries_per_round"),
            ({"serving": {"migration_budget": -1}}, "serving.migration_budget"),
            ({"serving": {"repair_iterations": -1}}, "serving.repair_iterations"),
            ({"serving": {"rounds": 0}}, "serving.rounds"),
            ({"graph": {"avg_degree": -1}}, "graph.avg_degree"),
            ({"graph": {"clustering": 5}}, "graph.clustering"),
            ({"graph": {"clustering": -1}}, "graph.clustering"),
            ({"graph": {"users": 0}}, "graph.users"),
            ({"execution": {"connect_timeout": 0}}, "execution.connect_timeout"),
            ({"execution": {"step_timeout": -1.0}}, "execution.step_timeout"),
            ({"algorithm": {"p": float("nan")}}, "algorithm.p"),
            # execution.hosts entries: 'host:port', non-empty host, port 1-65535.
            *(
                ({"execution": {"backend": "rpc", "hosts": [entry]}}, r"^execution.hosts\[0\]")
                for entry in ("h:notaport", ":7077", "h:", "h:70:71", "h:0", "h:65536", "h")
            ),
            ({"execution": {"backend": "rpc", "hosts": ["h:7077", 7078]}}, r"^execution.hosts\[1\]"),
            ({"execution": {"backend": "rpc", "hosts": []}}, "^execution.hosts"),
            ({"execution": {"backend": "sim", "hosts": ["h:7077"]}}, "^execution.hosts"),
            # ... by the rule the rpc backend dials with (`parse_endpoint`): a port
            # socket would wrap, one int() would transliterate, a second colon.
            *(
                ({"execution": {"backend": "rpc", "hosts": [entry]}}, r"^execution.hosts\[0\]")
                for entry in ("127.0.0.1:99999", "h:٣٣٣٣", "a:b:80")
            ),
        ],
    )
    def test_bad_ranges_name_dotted_path(self, data, dotted_path):
        with pytest.raises(SpecError, match=dotted_path.replace(".", r"\.")):
            JobSpec.from_dict(data)

    @pytest.mark.parametrize(
        "data, message",
        [
            # Both rules used to fire only once the job ran, after the graph
            # was loaded; they are one JobSpec check now.
            (
                {"algorithm": {"name": "random"}, "execution": {"backend": "sim"}},
                r"^execution\.backend: 'sim' supports shp-k, shp-2 "
                r"\(got algorithm\.name = 'random'\); other algorithms need backend 'local'$",
            ),
            (
                {"kind": "stream-refine", "algorithm": {"name": "label-prop"},
                 "execution": {"backend": "mp"}},
                r"^algorithm\.name: kind 'stream-refine' needs an engine-capable "
                r"refinement algorithm \(shp-k, shp-2\); got 'label-prop'$",
            ),
            # ... and this one later still, inside the stream-refine runner.
            (
                {"kind": "stream-refine"},
                r"^execution\.backend: kind 'stream-refine' refines on the "
                r"vertex-centric engine; pick one of 'sim', 'mp', 'rpc'$",
            ),
        ],
    )
    def test_engine_needs_an_engine_mode_algorithm(self, data, message):
        with pytest.raises(SpecError, match=message):
            JobSpec.from_dict(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"algorithm": {"name": "shp-2", "k": 6}, "execution": {"backend": "sim"}},
            {"kind": "stream-refine", "algorithm": {"name": "shp-2", "k": 12},
             "execution": {"backend": "mp"}},
        ],
    )
    def test_engine_shp2_needs_a_power_of_two_k(self, data):
        """Used to surface from ``DistributedSHP.__init__``, after the graph
        was loaded; it is the third engine cross-field rule of the spec."""
        k = data["algorithm"]["k"]
        with pytest.raises(
            SpecError,
            match=rf"^algorithm\.k: 'shp-2' on an engine backend requires k to be "
                  rf"a power of two; got {k}$",
        ):
            JobSpec.from_dict(data)
        # Same k: legal locally, legal for shp-k on the engine.
        JobSpec.from_dict({"algorithm": data["algorithm"]})
        JobSpec.from_dict({**data, "algorithm": {"name": "shp-k", "k": k}})

    def test_engine_mode_rule_leaves_other_pairings_alone(self):
        # serving replays locally whatever the backend says; engine-capable
        # algorithms pass on every backend.
        JobSpec.from_dict({"kind": "serving", "algorithm": {"name": "random"},
                           "execution": {"backend": "sim"}})
        JobSpec.from_dict({"algorithm": {"name": "shp-k"}, "execution": {"backend": "rpc"}})
        JobSpec.from_dict({"algorithm": {"name": "random"}})

    def test_legal_edge_values_stay_legal(self):
        """What is meaningful today is not bounded: an anti-skewed sample, a
        migration budget above 1, zero queries / repairs, the closed ends."""
        spec = JobSpec.from_dict({
            "serving": {"skew": -0.5, "migration_budget": 1.5, "queries_per_round": 0,
                        "repair_iterations": 0, "churn_fraction": 1},
            "graph": {"clustering": 1.0, "avg_degree": 0, "scale": 2},
            "algorithm": {"p": 1, "epsilon": 0},
            "execution": {"backend": "rpc", "hosts": ("10.0.0.1:7077", "node-b:65535")},
        })
        assert spec.execution.hosts == ["10.0.0.1:7077", "node-b:65535"]  # tuple -> list
        assert spec.graph.scale == 2 and spec.serving.churn_fraction == 1  # int passes for float

    def test_objective_aliases_resolve(self):
        spec = JobSpec.from_dict({"algorithm": {"objective": "clique-net"}})
        assert spec.algorithm.objective == "clique-net"  # stored as written

    def test_missing_source_fields_deferred_to_run_time(self):
        spec = JobSpec.from_dict({"graph": {"source": "file"}})
        with pytest.raises(SpecError, match=r"graph\.path"):
            spec.graph.require_source_fields()
        spec = JobSpec.from_dict({"graph": {"source": "dataset"}})
        with pytest.raises(SpecError, match=r"graph\.dataset"):
            spec.graph.require_source_fields()


class TestOverrides:
    @pytest.mark.parametrize(
        "item, path, value",
        [
            ("algorithm.k=16", ["algorithm", "k"], 16),
            ("algorithm.p=0.25", ["algorithm", "p"], 0.25),
            ("graph.remove_small_queries=false", ["graph", "remove_small_queries"], False),
            ("algorithm.name=shp-k", ["algorithm", "name"], "shp-k"),
            ('algorithm.name="shp-k"', ["algorithm", "name"], "shp-k"),
            ("algorithm.options.move_damping=0.5",
             ["algorithm", "options", "move_damping"], 0.5),
        ],
    )
    def test_parse_override_types(self, item, path, value):
        parts, parsed = parse_override(item)
        assert parts == path
        assert parsed == value and type(parsed) is type(value)

    def test_parse_override_rejects_missing_equals(self):
        with pytest.raises(SpecError, match="dotted.key=value"):
            parse_override("algorithm.k")

    def test_apply_overrides_creates_tables(self):
        data: dict = {}
        apply_overrides(data, ["algorithm.options.max_iterations=3", "seed=9"])
        assert data == {"algorithm": {"options": {"max_iterations": 3}}, "seed": 9}

    def test_apply_overrides_rejects_non_table_path(self):
        with pytest.raises(SpecError, match="not a table"):
            apply_overrides({"seed": 1}, ["seed.nested=2"])

    def test_overrides_feed_validation(self):
        data = JobSpec().to_dict()
        apply_overrides(data, ["algorithm.k=0"])
        with pytest.raises(SpecError, match=r"algorithm\.k"):
            JobSpec.from_dict(data)


class TestFileLoading:
    def test_toml_load_with_overrides(self, tmp_path):
        path = tmp_path / "job.toml"
        path.write_text(
            "kind = 'partition'\nseed = 5\n"
            "[graph]\nsource = 'dataset'\ndataset = 'email-Enron'\nscale = 0.01\n"
            "[algorithm]\nname = 'shp-2'\nk = 4\n"
        )
        spec = JobSpec.from_file(path, overrides=["algorithm.k=8", "seed=9"])
        assert spec.algorithm.k == 8
        assert spec.seed == 9
        assert spec.graph.dataset == "email-Enron"

    def test_json_load(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"kind": "partition", "algorithm": {"k": 4}}))
        spec = JobSpec.from_file(path)
        assert spec.algorithm.k == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(SpecError, match="not found"):
            JobSpec.from_file(tmp_path / "nope.toml")

    def test_invalid_toml(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("kind = [unterminated")
        with pytest.raises(SpecError, match="invalid TOML"):
            JobSpec.from_file(path)

    def test_unknown_key_in_file_names_path(self, tmp_path):
        path = tmp_path / "job.toml"
        path.write_text("[algorithm]\nkk = 4\n")
        with pytest.raises(SpecError, match=r"algorithm\.kk"):
            JobSpec.from_file(path)


class TestWith:
    def test_with_replaces_sections(self):
        spec = JobSpec()
        other = spec.with_(algorithm=dataclasses.replace(spec.algorithm, k=16))
        assert other.algorithm.k == 16
        assert spec.algorithm.k == 2  # original untouched
