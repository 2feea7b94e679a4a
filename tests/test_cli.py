"""Tests for the command-line interface."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.hypergraph import community_bipartite, write_hmetis


@pytest.fixture
def graph_file(tmp_path):
    graph = community_bipartite(200, 300, 2000, num_communities=8, seed=3)
    path = tmp_path / "g.hgr"
    write_hmetis(graph, path)
    return path, graph


class TestPartitionCommand:
    def test_partition_writes_assignment(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        out = tmp_path / "assign.txt"
        rc = main(["partition", str(path), "-k", "4", "-o", str(out), "--seed", "1"])
        assert rc == 0
        assignment = np.loadtxt(out, dtype=np.int64)
        assert assignment.size == graph.num_data
        assert assignment.max() < 4
        assert "fanout" in capsys.readouterr().out

    @pytest.mark.parametrize("algorithm", ["shp-k", "random", "label-prop"])
    def test_other_algorithms(self, graph_file, algorithm, capsys):
        path, _ = graph_file
        rc = main(["partition", str(path), "-k", "4", "--algorithm", algorithm])
        assert rc == 0
        assert algorithm in capsys.readouterr().out

    def test_objective_flag(self, graph_file, capsys):
        path, _ = graph_file
        rc = main(["partition", str(path), "-k", "4", "--objective", "cliquenet"])
        assert rc == 0

    def test_bad_format_rejected(self, tmp_path):
        bad = tmp_path / "g.parquet"
        bad.write_text("")
        with pytest.raises(SystemExit):
            main(["partition", str(bad), "-k", "4"])

    def test_bad_flag_values_exit_cleanly(self, graph_file):
        """Spec validation errors surface as SystemExit, not tracebacks."""
        path, _ = graph_file
        with pytest.raises(SystemExit, match="workers"):
            main(["partition", str(path), "-k", "4", "--backend", "sim", "--workers", "0"])
        with pytest.raises(SystemExit, match="k must be at least 2"):
            main(["partition", str(path), "-k", "1"])  # shp-2 needs k >= 2

    def test_bad_rpc_host_is_a_spec_error_before_anything_spawns(self, graph_file, monkeypatch):
        """`--hosts h:notaport` used to validate and die at connect time."""
        import repro.api.runner as runner

        monkeypatch.setattr(runner, "run", lambda *a, **k: pytest.fail("the job started"))
        path, _ = graph_file
        with pytest.raises(SystemExit, match=r"^error: execution\.hosts\[0\]: .*'h:notaport'"):
            main(["partition", str(path), "-k", "4", "--backend", "rpc", "--hosts", "h:notaport"])

    def test_engine_shp2_with_odd_k_is_refused_before_the_graph_is_read(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["partition", "/nonexistent.hgr", "-k", "6", "--algorithm", "shp-2",
                  "--backend", "sim"])
        assert exit_info.value.code == (
            "error: algorithm.k: 'shp-2' on an engine backend requires k to be a "
            "power of two; got 6"
        )

    def test_k1_allowed_for_trivial_baselines(self, graph_file, capsys):
        path, _ = graph_file
        rc = main(["partition", str(path), "-k", "1", "--algorithm", "random"])
        assert rc == 0

    def test_npz_output_round_trips(self, graph_file, tmp_path, capsys):
        """Regression: -o out.npz used to write plain text regardless of
        extension; it must honor the extension and round-trip binary."""
        from repro.core.persistence import load_assignment

        path, graph = graph_file
        out = tmp_path / "assign.npz"
        rc = main(["partition", str(path), "-k", "4", "-o", str(out), "--seed", "1"])
        assert rc == 0
        with np.load(out) as archive:  # genuinely an npz archive, not text
            assert set(archive.files) >= {"assignment", "k"}
        assignment, k = load_assignment(out)
        assert assignment.size == graph.num_data and k == 4
        # text and npz outputs carry the identical assignment per seed
        txt = tmp_path / "assign.txt"
        main(["partition", str(path), "-k", "4", "-o", str(txt), "--seed", "1"])
        np.testing.assert_array_equal(assignment, np.loadtxt(txt, dtype=np.int64))


class TestEvaluateCommand:
    def test_round_trip(self, graph_file, tmp_path, capsys):
        path, graph = graph_file
        out = tmp_path / "assign.txt"
        main(["partition", str(path), "-k", "4", "-o", str(out), "--seed", "1"])
        capsys.readouterr()
        rc = main(["evaluate", str(path), str(out)])
        assert rc == 0
        assert "fanout" in capsys.readouterr().out

    def test_length_mismatch_rejected(self, graph_file, tmp_path):
        path, _ = graph_file
        short = tmp_path / "short.txt"
        short.write_text("0\n1\n")
        with pytest.raises(SystemExit):
            main(["evaluate", str(path), str(short)])

    def test_npz_assignment_uses_stored_k(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        out = tmp_path / "assign.npz"
        main(["partition", str(path), "-k", "4", "-o", str(out), "--seed", "1"])
        capsys.readouterr()
        rc = main(["evaluate", str(path), str(out)])
        assert rc == 0
        out_text = capsys.readouterr().out
        assert "fanout" in out_text
        # stored k=4 is honored even though no -k flag was passed
        first_data_row = [line for line in out_text.splitlines() if "|" in line][1]
        assert first_data_row.split("|")[0].strip() == "4"

    def test_out_of_range_assignment_rejected(self, graph_file, tmp_path, capsys):
        """Regression: evaluate must reject bucket ids outside [0, k)."""
        path, graph = graph_file
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(["9"] * graph.num_data) + "\n")
        with pytest.raises(SystemExit, match="outside"):
            main(["evaluate", str(path), str(bad), "-k", "4"])


    @pytest.mark.parametrize("command", ["evaluate", "convert"])
    def test_malformed_graph_file_is_an_error_line_not_a_traceback(self, tmp_path, command):
        bad = tmp_path / "bad.tsv"
        bad.write_text("0\t1\n5\n")
        other = tmp_path / ("assign.txt" if command == "evaluate" else "out.rgs")
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(bad), str(other)])
        # argparse-style exit: a message (non-zero status), not an exception
        # escaping main().
        assert str(exit_info.value.code).startswith("error: line 2:")


@pytest.mark.parametrize(
    "argv",
    [
        ["partition", "{missing}.hgr", "-k", "4"],
        ["partition", "{missing}.rgs", "-k", "4", "--backend", "sim"],
        ["evaluate", "{missing}.npz", "a.txt", "-k", "4"],
        ["evaluate", "{graph}", "{missing}.txt", "-k", "4"],
        ["compare", "{missing}.hgr", "-k", "4"],
        ["serve-sim", "{missing}.hgr"],
        ["run", "{spec}"],
        ["partition", "{truncated}", "-k", "4"],
    ],
)
def test_unreadable_graph_is_one_error_line_not_a_traceback(graph_file, tmp_path, argv):
    """``OSError`` (no such file) and ``StorageError`` (a truncated store)
    used to escape ``main()`` as tracebacks from every graph-loading
    subcommand but ``convert``."""
    path, _ = graph_file
    missing = tmp_path / "nonexistent"
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps({"graph": {"source": "file", "path": f"{missing}.hgr"}}))
    truncated = tmp_path / "truncated.rgs"
    truncated.write_bytes(b"RGS")
    names = {"missing": missing, "graph": path, "spec": spec, "truncated": truncated}
    with pytest.raises(SystemExit) as exit_info:
        main([arg.format(**names) for arg in argv])
    message = str(exit_info.value.code)
    assert message.startswith("error: ") and "\n" not in message
    assert ("truncated" if "{truncated}" in argv[1] else "nonexistent") in message


class TestGenerateCommand:
    @pytest.mark.parametrize("suffix", [".hgr", ".tsv", ".npz"])
    def test_generate_formats(self, tmp_path, suffix, capsys):
        out = tmp_path / f"g{suffix}"
        rc = main(["generate", "email-Enron", "--scale", "0.01", "-o", str(out)])
        assert rc == 0
        assert out.exists()

    def test_generated_file_loads_back(self, tmp_path, capsys):
        out = tmp_path / "g.hgr"
        main(["generate", "soc-Epinions", "--scale", "0.01", "-o", str(out)])
        capsys.readouterr()
        rc = main(["partition", str(out), "-k", "2"])
        assert rc == 0


class TestDatasetsCommand:
    def test_lists_registry(self, capsys):
        rc = main(["datasets"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FB-10B" in out and "email-Enron" in out


class TestRunCommand:
    def _write_spec(self, tmp_path, graph_path, **extra):
        data = {
            "kind": "partition",
            "seed": 1,
            "graph": {"source": "file", "path": str(graph_path)},
            "algorithm": {"name": "shp-2", "k": 4},
            **extra,
        }
        spec_path = tmp_path / "job.json"
        spec_path.write_text(json.dumps(data))
        return spec_path

    def test_run_spec_file(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        spec_path = self._write_spec(tmp_path, path)
        rc = main(["run", str(spec_path)])
        assert rc == 0
        assert "fanout" in capsys.readouterr().out

    def test_run_with_overrides_and_artifacts(self, graph_file, tmp_path, capsys):
        from repro.api import load_run

        path, _ = graph_file
        out_dir = tmp_path / "artifacts"
        spec_path = self._write_spec(tmp_path, path)
        rc = main([
            "run", str(spec_path),
            "--set", f"output.artifacts={json.dumps(str(out_dir))}",
            "--set", "algorithm.k=8",
        ])
        assert rc == 0
        assert "run artifacts written" in capsys.readouterr().out
        artifacts = load_run(out_dir)
        assert artifacts.manifest["spec"]["algorithm"]["k"] == 8
        assert artifacts.assignment.max() < 8

    def test_run_smoke_flag(self, graph_file, tmp_path, capsys):
        path, _ = graph_file
        spec_path = self._write_spec(tmp_path, path)
        rc = main(["run", str(spec_path), "--smoke"])
        assert rc == 0

    def test_run_bad_spec_exits(self, graph_file, tmp_path):
        path, _ = graph_file
        spec_path = self._write_spec(tmp_path, path, algorithm={"name": "nope", "k": 4})
        with pytest.raises(SystemExit, match="unknown partitioner"):
            main(["run", str(spec_path)])

    def test_run_unknown_shp_option_exits(self, graph_file, tmp_path):
        # Where a spec that moved the removed `level_mode` into options
        # lands: a one-line error naming the key, not a TypeError traceback.
        path, _ = graph_file
        spec_path = self._write_spec(
            tmp_path, path,
            algorithm={"name": "shp-2", "k": 4, "options": {"level_mode": "loop"}},
        )
        with pytest.raises(SystemExit, match=r"algorithm\.options\.level_mode: unknown"):
            main(["run", str(spec_path)])

    def test_run_stream_refine_on_local_exits_before_loading_the_graph(self, tmp_path):
        # The pairing used to be refused inside the stream-refine runner,
        # after the graph was loaded: here the graph file does not exist.
        spec_path = self._write_spec(tmp_path, tmp_path / "missing.hgr", kind="stream-refine")
        with pytest.raises(
            SystemExit, match=r"^error: \S+job\.json: execution\.backend: kind 'stream-refine' refines on"
        ):
            main(["run", str(spec_path)])

    def test_run_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit, match="not found"):
            main(["run", str(tmp_path / "nope.toml")])


class TestCompareCommand:
    def test_compare_default_set(self, graph_file, capsys):
        path, _ = graph_file
        rc = main(["compare", str(path), "-k", "4", "--algorithms", "random", "shp-2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "shp-2" in out and "random" in out

    def test_compare_ranks_by_fanout(self, graph_file, capsys):
        path, _ = graph_file
        main(["compare", str(path), "-k", "4", "--algorithms", "random", "shp-2"])
        out = capsys.readouterr().out
        data_rows = [line for line in out.splitlines() if "|" in line][1:]  # skip header
        assert "shp-2" in data_rows[0]  # optimized result listed first


class TestServeSimCommand:
    @pytest.mark.parametrize("flags, message", [
        (["--queries", "-5"], r"^error: serving\.queries_per_round: must be >= 0; got -5$"),
        (["--budget", "-1"], r"^error: serving\.migration_budget: must be >= 0; got -1\.0$"),
        (["--churn", "1.5"], r"^error: serving\.churn_fraction: "),
    ])
    def test_out_of_range_flags_are_one_line_spec_errors(self, flags, message, monkeypatch):
        """They used to surface as numpy's `negative dimensions are not
        allowed`, or as a pathless `budget must be non-negative` raised
        after the initial partition had already run."""
        import repro.api.runner as runner

        monkeypatch.setattr(runner, "run", lambda *a, **k: pytest.fail("the job started"))
        with pytest.raises(SystemExit, match=message):
            main(["serve-sim", "--users", "300", *flags])


class TestRpcWorkerCommand:
    def test_binds_loopback_unless_told_otherwise(self):
        """The worker unpickles whatever connects: exposing it beyond the
        local machine must be an explicit --host."""
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["rpc-worker"]).host == "127.0.0.1"
        assert parser.parse_args(["rpc-worker", "--host", "0.0.0.0"]).host == "0.0.0.0"
