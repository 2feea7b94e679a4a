"""Harness self-test: the perf ledger still measures what it says it does.

One ``--smoke --trace 1`` run (inputs ~20x smaller, one rep per workload)
drives all six workloads plus the traced pass; the rest checks the
harness's own tables against ``BENCHMARK.json`` and the live program, so a
renamed entry point fails here instead of silently zeroing a layer.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))  # the harness files are scripts, not a package

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import ledger  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RUN = [sys.executable, str(HERE / "run.py")]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf_smoke")
    out, trace_out = tmp / "bench.json", tmp / "trace.json"
    proc = subprocess.run(
        [*RUN, "--smoke", "--trace", "1", "--seed", "7", "--out", str(out),
         "--trace-out", str(trace_out), "--data-dir", str(tmp / "data")],
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    return {
        "stdout": proc.stdout,
        "ledger": json.loads(out.read_text(encoding="utf-8")),
        "trace": json.loads(trace_out.read_text(encoding="utf-8")),
        "path": out,
    }


def test_benchmark_json_is_the_generated_manifest():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert manifest == ledger.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in manifest["workloads"])
    assert 1 <= len(manifest["end_to_end"]) <= 16 and 1 <= len(manifest["per_layer"]) <= 128
    assert all(UNIT.fullmatch(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in manifest["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= manifest[
        "end_to_end"
    ][0].items()
    # 4 + 22 runs per workload, each --seconds of reps plus ~8 s of start-up,
    # set-ups and reference job, inside the driver's 3420 s.
    runs = 4 + 22 * len(manifest["workloads"])
    assert runs * (manifest["run_seconds"] + 8) <= 3420 * 0.9


def test_every_boundary_resolves_to_a_live_callable():
    import repro.api.runner  # noqa: F401  (loads the registries' targets)

    for boundary in tracing.BOUNDARIES:
        owner, name, raw = tracing.resolve(boundary)
        if not isinstance(owner, type):
            sites = list(tracing._function_sites(raw))
            assert sites, f"{boundary.module}:{boundary.attr} is bound nowhere"


def test_installed_wrappers_are_restored():
    import repro.api.runner as runner
    from repro.core.shp_2 import SHP2Partitioner

    before = (runner.run, SHP2Partitioner.partition, runner.load_graph)
    with tracing.installed(tracing.Tracer()):
        assert runner.run is not before[0] and runner.load_graph is not before[2]
    assert (runner.run, SHP2Partitioner.partition, runner.load_graph) == before


def test_smoke_run_prints_every_metric_of_every_workload(smoke):
    workloads = smoke["ledger"]["workloads"]
    for name in inputs.TIMED:
        entry = workloads[name]
        assert entry["failed"] == 0 and entry["failures"] == []
        for metric in ledger.END_TO_END:
            if metric.name in entry["omitted"]:
                assert not ledger.applies(metric.name, name)
                continue
            cell = entry["end_to_end"][metric.name]
            assert cell["unit"] == metric.unit and cell["n"] >= 1
            if metric.everywhere:
                assert cell["median"] > 0
            assert f"  {metric.name} " in smoke["stdout"]
        for metric in layers.PER_LAYER:
            assert entry["per_layer"][metric.name]["unit"] == metric.unit
            assert f"    {metric.name} " in smoke["stdout"]
        # job_s is the measured wall time over the host's slowdown around it.
        cells = entry["end_to_end"]
        for job_s, wall_s, slowdown in zip(*(cells[k]["values"] for k in
                                             ("job_s", "wall_s", "host_slowdown"))):
            assert slowdown > 0 and job_s == pytest.approx(wall_s / slowdown)
    manifest = ledger.manifest()
    last = json.loads(smoke["stdout"].strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 12
    for name in inputs.TIMED:  # all six interleaved: keyed by workload
        assert list(last["metrics"][name]) == [m["name"] for m in manifest["per_layer"]]


def test_the_manifest_lists_the_layer_metrics_its_workloads_exercise(smoke):
    workloads = smoke["ledger"]["workloads"]

    def exercised(metric, names):
        return any(workloads[w]["per_layer"][metric.name]["value"] is not None for w in names)

    listed = {m["name"] for m in ledger.manifest()["per_layer"]}
    for metric in layers.PER_LAYER:
        assert exercised(metric, workloads), f"{metric.name} is never measured"
        # engine_sim is the reference pass of the two driven engine workloads.
        assert (metric.name in listed) == exercised(metric, (*inputs.DRIVEN, "engine_sim")), (
            metric.name
        )


def test_engine_backends_agree_on_logical_meters(smoke):
    workloads = smoke["ledger"]["workloads"]
    for name in ("distributed.messages.count", "distributed.messages.remote_bytes",
                 "distributed.backend.supersteps"):
        values = {w: workloads[w]["per_layer"][name]["value"]
                  for w in ("engine_sim", "engine_mp", "engine_rpc")}
        assert len(set(values.values())) == 1 and None not in values.values(), values
    assert workloads["engine_rpc"]["end_to_end"]["wire_mib"]["median"] > 0


def test_chrome_trace_has_one_process_per_job(smoke):
    events = smoke["trace"]["traceEvents"]
    jobs = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert jobs == set(inputs.WORKLOADS)
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all(e["dur"] >= 0 and e["cat"] for e in spans)


def test_corrupted_assignment_trips_the_checks():
    from repro.core import shp_2
    from repro.hypergraph import darwini_bipartite

    graph = darwini_bipartite(600, avg_degree=10, seed=3).remove_small_queries()
    good = shp_2(graph, 4, seed=3).assignment
    fanout = checks.independent_fanout(graph, good, 4)

    def check(assignment, reported=fanout):
        return checks.check_partition(graph, assignment, 4, 0.05, False, reported, seed=3)

    assert check(good) == []
    out_of_range = good.copy()
    out_of_range[0] = 4
    assert any("range" in msg for msg in check(out_of_range))
    assert any("shape" in msg for msg in check(good[:-1]))
    lopsided = good.copy()
    lopsided[: graph.num_data // 2] = 0
    assert any("largest bucket" in msg for msg in check(lopsided))
    assert any("recomputed" in msg for msg in check(good, reported=fanout * 1.001))
    shuffled = np.random.default_rng(0).permutation(good)
    assert checks.assignment_digest(shuffled) != checks.assignment_digest(good)
    assert checks.check_reps_agree([{"digest": "a"}, {"digest": "b"}])


def test_compare_same_file_is_ok_and_a_slower_job_is_worse(smoke, tmp_path):
    same = subprocess.run([*RUN, "--compare", str(smoke["path"]), str(smoke["path"])],
                          capture_output=True, text=True, timeout=60)
    assert same.returncode == 0 and "worse" not in same.stdout
    slower = json.loads(smoke["path"].read_text(encoding="utf-8"))
    cell = slower["workloads"]["ingest"]["end_to_end"]["job_s"]
    for key in ("median", "min", "q1", "q3"):
        cell[key] *= 2.0
    cell["values"] = [v * 2.0 for v in cell["values"]]
    doctored = tmp_path / "slower.json"
    doctored.write_text(json.dumps(slower), encoding="utf-8")
    worse = subprocess.run([*RUN, "--compare", str(smoke["path"]), str(doctored)],
                           capture_output=True, text=True, timeout=60)
    assert worse.returncode == 1
    assert re.search(r"ingest\s+job_s.*worse", worse.stdout)


def test_sets_write_the_noise_document_where_told(tmp_path):
    committed = (HERE / "baseline" / "noise.json").read_bytes()
    noise_out = tmp_path / "noise.json"
    proc = subprocess.run(
        [*RUN, "--smoke", "--workload", "ingest", "--sets", "2", "--noise-out", str(noise_out),
         "--data-dir", str(tmp_path / "data")],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    noise = json.loads(noise_out.read_text(encoding="utf-8"))
    assert noise["sets"] == 2 and noise["smoke"] is True
    assert len(noise["noise"]["ingest"]["job_s"]["set_medians"]) == 2
    assert (HERE / "baseline" / "noise.json").read_bytes() == committed
    alone = subprocess.run([*RUN, "--smoke", "--sets", "2"], capture_output=True, text=True,
                           timeout=60)
    assert alone.returncode == 2 and "--noise-out" in alone.stderr


def test_a_noisy_base_is_unresolved_not_worse():
    def document(values):
        return {"workloads": {"ingest": {"end_to_end": {"job_s": ledger.summarize(values, "s")}}}}

    quiet, noisy, slow = [1.0, 1.01, 1.02], [1.0, 1.2, 1.6], [1.5, 1.51, 1.52]

    def verdict(base, change):
        return ledger.compare(document(base), document(change))[0][0]["verdict"]

    assert verdict(quiet, slow) == "worse"
    assert verdict(noisy, slow) == "unresolved"
    assert verdict(noisy, [0.9, 0.95, 0.99]) == "ok"  # every run better than every base run


def test_committed_ledger_backs_every_stated_share_and_noise_fits_the_bounds():
    baseline = json.loads((HERE / "baseline" / "BENCH_11.json").read_text(encoding="utf-8"))
    assert baseline["smoke"] is False
    assert {name: baseline["workloads"][name]["why"] for name in inputs.TIMED} == {
        name: inputs.WORKLOADS[name].why for name in inputs.TIMED
    }
    assert ledger.share_failures(baseline) == []
    noise = json.loads((HERE / "baseline" / "noise.json").read_text(encoding="utf-8"))
    bounds = {m.name: m.bound for m in ledger.END_TO_END}
    for workload, metrics in noise["noise"].items():
        for name, cell in metrics.items():
            assert cell["bound"] == bounds[name]
            if cell["bound"] is not None:  # wall_s / host_slowdown: reported only
                assert cell["max_pairwise_rel_diff"] <= cell["bound"] + 1e-12, (
                    workload, name, cell)


def test_without_the_program_it_fails_fast_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns(".work", "__pycache__", "baseline"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "local_serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
