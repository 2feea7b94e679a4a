"""Legacy CLI flags and JobSpec files are two skins over one runner.

The acceptance contract of the job-spec redesign: for every seed, the
assignment produced by the legacy flag surface (``repro partition ...``)
is bitwise-identical to the one produced by the equivalent declarative
spec (``repro run job.toml`` / ``repro.api.run``).  These tests pin that
so the thin CLI adapters can never drift from the runner.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import (
    AlgorithmSpec,
    ExecutionSpec,
    GraphSpec,
    JobSpec,
    run,
)
from repro.cli import main
from repro.core.persistence import load_assignment
from repro.hypergraph import community_bipartite, write_hmetis


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    graph = community_bipartite(180, 260, 1800, num_communities=8, seed=2)
    path = tmp_path_factory.mktemp("parity") / "g.hgr"
    write_hmetis(graph, path)
    return path


def _cli_assignment(tmp_path, argv_tail):
    out = tmp_path / "cli_assign.npz"
    rc = main(["partition", *argv_tail, "-o", str(out)])
    assert rc == 0
    assignment, _ = load_assignment(out)
    return assignment


PARITY_GRID = [
    # (algorithm, k, seed, extra CLI flags, extra AlgorithmSpec fields, execution)
    ("shp-2", 4, 1, [], {}, {}),
    ("shp-2", 8, 3, ["--refine-workers", "2"], {}, {"refine_workers": 2}),
    ("shp-2", 4, 5, ["--objective", "cliquenet", "-p", "0.8"],
     {"objective": "cliquenet", "p": 0.8}, {}),
    ("shp-k", 4, 2, [], {}, {}),
    ("shp-k", 5, 7, ["--objective", "fanout"], {"objective": "fanout"}, {}),
    ("random", 4, 1, [], {}, {}),
    ("label-prop", 4, 9, [], {}, {}),
    ("mondriaan-like", 4, 4, [], {}, {}),
    ("shp-2", 4, 6, ["--backend", "sim", "--workers", "3"], {},
     {"backend": "sim", "workers": 3}),
    ("shp-k", 4, 8, ["--backend", "sim", "--workers", "2", "--combiner"],
     {}, {"backend": "sim", "workers": 2, "combiner": True}),
]


@pytest.mark.parametrize(
    "algorithm, k, seed, cli_flags, spec_fields, execution",
    PARITY_GRID,
    ids=[f"{row[0]}-k{row[1]}-s{row[2]}-{row[5].get('backend', 'local')}"
         for row in PARITY_GRID],
)
def test_legacy_flags_vs_spec_bitwise(
    graph_file, tmp_path, algorithm, k, seed, cli_flags, spec_fields, execution
):
    cli = _cli_assignment(
        tmp_path,
        [str(graph_file), "-k", str(k), "--algorithm", algorithm,
         "--seed", str(seed), *cli_flags],
    )
    spec = JobSpec(
        seed=seed,
        graph=GraphSpec(source="file", path=str(graph_file)),
        algorithm=AlgorithmSpec(name=algorithm, k=k, **spec_fields),
        execution=ExecutionSpec(**execution),
    )
    via_spec = run(spec).assignment
    np.testing.assert_array_equal(cli, via_spec)


def test_spec_file_vs_flags_bitwise(graph_file, tmp_path):
    """The full path: `repro run job.json` == `repro partition` flags."""
    spec_path = tmp_path / "job.json"
    out = tmp_path / "from_file.npz"
    spec_path.write_text(json.dumps({
        "seed": 3,
        "graph": {"source": "file", "path": str(graph_file)},
        "algorithm": {"name": "shp-2", "k": 4},
        "output": {"assignment": str(out)},
    }))
    rc = main(["run", str(spec_path)])
    assert rc == 0
    from_file, _ = load_assignment(out)
    cli = _cli_assignment(
        tmp_path, [str(graph_file), "-k", "4", "--seed", "3"]
    )
    np.testing.assert_array_equal(from_file, cli)


def test_compare_honors_algorithm_knobs(graph_file, tmp_path, capsys):
    """`compare` routes -p/--objective through the same JobSpec
    path as `partition` (it used to silently drop them)."""
    rc = main([
        "compare", str(graph_file), "-k", "4", "--seed", "5",
        "--objective", "cliquenet", "-p", "0.8", "--algorithms", "shp-2",
    ])
    assert rc == 0
    compare_out = capsys.readouterr().out
    cli = _cli_assignment(
        tmp_path,
        [str(graph_file), "-k", "4", "--seed", "5", "--objective", "cliquenet",
         "-p", "0.8"],
    )
    from repro.bench.tables import _cell
    from repro.hypergraph import load_graph
    from repro.objectives import evaluate_partition

    graph = load_graph(graph_file).remove_small_queries()
    fanout = evaluate_partition(graph, cli.astype(np.int32), 4).fanout
    # compare renders the same rounded fanout the knob-honoring run achieves
    assert _cell(round(fanout, 4)) in compare_out
