"""The perf ledger: six workloads, end-to-end job metrics, per-layer trace.

    python3 benchmarks/perf/run.py [--seed 7] [--out BENCH.json]      all six workloads
    python3 benchmarks/perf/run.py --workload engine_rpc --trace 1    one workload + trace
    python3 benchmarks/perf/run.py --compare A.json B.json            two ledger files
    python3 benchmarks/perf/run.py --sets 3 --noise-out noise.json    noise calibration

One run = set-up (inputs generated from ``--seed``, written as files) and
then reps: each rep is one job in a fresh child process (``job.py``),
timed inside the child after imports, checked for correctness, and run
round-robin across the scheduled workloads (rep *i* of every workload
before rep *i + 1*) so a burst of host noise lands on all of them.  A
workload keeps getting reps until it has used ``--seconds`` of wall time.
``setup_s`` and ``job_s`` are host-corrected seconds: wall time divided by
the host's slowdown, which a fixed probe kernel measures right before and
after each job and each set-up (``hostspeed.py``).
Set-up is sampled again at the start of rounds 2 and 3 (``setup_s`` is the
median), and ``--sets N`` interleaves N such runs round by round.
End-to-end metrics come from untraced reps only; ``--trace 1`` alternates
a traced rep after every untraced one and reports the per-layer metrics.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1`` (flat for a
single ``--workload``, keyed by workload otherwise).  Exit status is
non-zero when any rep raised, timed out or failed a correctness check.
See README.md next to this file.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import ledger  # noqa: E402
import tracing  # noqa: E402
from layers import DRIVEN_PER_LAYER, PER_LAYER, layer_metrics  # noqa: E402

#: Hard limit on one rep; a hang must never stall the benchmark.
REP_TIMEOUT_S = 150.0
#: Untraced reps every workload gets even when one rep exceeds --seconds.
#: Set-up is sampled as often and its median reported: ``setup_s`` is bounded
#: in BENCHMARK.json (a later change that moves work into set-up or import
#: time is held to it), so one slow write must not read as a regression.
MIN_REPS = 3


def child_env(data_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # Spill files and sockets of the job stay inside the checkout.
    env["TMPDIR"] = str(data_dir)
    return env


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------

def shm_segments() -> set[str]:
    """Names of this user's ``multiprocessing.shared_memory`` segments."""
    try:
        return {
            entry.name
            for entry in os.scandir("/dev/shm")
            if entry.name.startswith("psm_") and entry.stat().st_uid == os.getuid()
        }
    except OSError:
        return set()


def group_members(pgid: int) -> list[int]:
    """Live processes of a process group (zombies have ended; init reaps them)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text(encoding="ascii", errors="replace")
        except OSError:
            continue  # exited between listdir and read
        # After the parenthesised command name: state, ppid, pgrp, ...
        state, _ppid, pgrp = stat.rsplit(")", 1)[1].split()[:3]
        if int(pgrp) == pgid and state != "Z":
            members.append(int(entry))
    return members


def kill_group(pgid: int, deadline_s: float = 5.0) -> None:
    """SIGKILL a rep's process group and wait until every member is gone.

    Worker processes (``mp`` workers, refine pool, ``rpc-worker`` peers)
    inherit the rep's process group, so this also reaps workers orphaned
    by a crashed or timed-out job.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return
    deadline = time.monotonic() + deadline_s
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


def run_rep(workload: str, args: argparse.Namespace, data_dir: Path, trace: bool) -> dict:
    """One job in its own process group, under a timeout; never raises."""
    out = data_dir / "rep.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "job.py"), "--workload", workload,
           "--seed", str(args.seed), "--data-dir", str(data_dir), "--out", str(out)]
    cmd += ["--smoke"] * args.smoke + ["--trace"] * trace
    segments_before = shm_segments()
    proc = subprocess.Popen(
        cmd, env=child_env(data_dir), cwd=ROOT, start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    failure = None
    try:
        _, stderr = proc.communicate(timeout=REP_TIMEOUT_S)
        if proc.returncode != 0:
            failure = f"exit status {proc.returncode}: {stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        failure = f"timed out after {REP_TIMEOUT_S:.0f}s"
    finally:
        kill_group(proc.pid)
        proc.communicate()
    if failure is None and not out.exists():
        failure = "job wrote no result"
    if failure is not None:
        # A SIGKILLed mp / pool run cannot unlink its shared segments.
        for name in shm_segments() - segments_before:
            Path("/dev/shm", name).unlink(missing_ok=True)
        return {"workload": workload, "traced": trace, "failures": [failure]}
    return json.loads(out.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# set-up and measurement
# ----------------------------------------------------------------------

def warm_up(data_dir: Path) -> float:
    """Import the program once in a child (compiles / pages in what every
    rep imports before its clock starts); timed, because work a later
    change moves to import time must show in ``setup_s``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.api.runner, repro.storage, repro.workloads"],
        env=child_env(data_dir), cwd=ROOT, check=True,
    )
    return time.perf_counter() - start


def set_up(graph: str, args: argparse.Namespace, data_dir: Path) -> tuple[float, dict]:
    """One input graph from ``--seed`` -> files: seconds taken, shape written."""
    start = time.perf_counter()
    shape = inputs.build_graph(graph, args.seed, data_dir, args.smoke)
    if graph == "engine":
        inputs.assert_store_backed(args.seed, data_dir, args.smoke)
    return time.perf_counter() - start, shape


class SetState:
    """What one set of the schedule has run so far."""

    def __init__(self, schedule: list[str]):
        #: set-up samples (seconds) per input graph; workloads that read
        #: the same graph share them.
        self.setups: dict[str, list[float]] = {}
        self.references: dict[str, dict] = {}
        self.reps: dict[str, list[dict]] = {w: [] for w in schedule}
        self.traced: dict[str, list[dict]] = {w: [] for w in schedule}
        self.attempted = {w: 0 for w in schedule}
        self.failures: dict[str, list[str]] = {w: [] for w in schedule}
        self.spent = {w: 0.0 for w in schedule}


def measure(schedule: list[str], args: argparse.Namespace, data_dir: Path) -> list[dict]:
    """Set up, run the interleaved reps, check, and summarise ``--sets`` sets.

    Sets are interleaved like workloads are: every set takes set-up sample
    *i*, then rep *i* of every workload, before any set takes the next.
    The host's speed drifts for minutes at a time (README "Noise
    calibration and bounds"), so sets run one after the other would each
    sample a different host; interleaved, they differ by what two runs of
    the same code differ by when compared side by side.
    """
    # This process's own one-time imports are not set-up work; what the
    # program costs to import is in every set-up sample (``warm_up``).
    import repro.api  # noqa: F401
    import repro.hypergraph  # noqa: F401
    import repro.storage  # noqa: F401

    trace = bool(args.trace)
    sets = [SetState(schedule) for _ in range(args.sets)]
    graphs = list(dict.fromkeys(inputs.WORKLOADS[w].graph for w in schedule))
    shapes: dict[str, dict] = {}

    def rep(state: SetState, workload: str, owner: str, traced_rep: bool) -> dict:
        result = run_rep(workload, args, data_dir, traced_rep)
        state.attempted[owner] += 1
        state.failures[owner] += [f"{workload}: {msg}" for msg in result["failures"]]
        return result

    min_reps = 1 if args.smoke else MIN_REPS
    for round_index in itertools.count():
        # Alternate which set goes first, so none always runs right after set-up.
        first = round_index % len(sets)
        states = sets[first:] + sets[:first]
        if round_index < min_reps:
            # Each of the first rounds starts by setting up again (same seed,
            # same files): the set-up samples are spread over the run like
            # the reps, so one burst does not land on all of them.  Each
            # sample adds an import warm-up of its own.
            for state in states:
                with hostspeed.timed() as clock:
                    warm_s = warm_up(data_dir)
                    built = {graph: set_up(graph, args, data_dir) for graph in graphs}
                for graph, (seconds, shapes[graph]) in built.items():
                    # Host-corrected, like job_s.
                    state.setups.setdefault(graph, []).append(
                        (seconds + warm_s) / clock["slowdown"]
                    )
        if round_index == 0:
            # Reference jobs that are not scheduled themselves run once, up
            # front (they read the same input files as the workload they check).
            for state in states:
                for w in schedule:
                    ref = inputs.WORKLOADS[w].reference
                    if ref is not None and ref not in schedule and ref not in state.references:
                        state.references[ref] = rep(state, ref, w, trace)
        busy = False
        for state in states:
            for w in schedule:
                if len(state.reps[w]) >= min_reps and state.spent[w] >= args.seconds:
                    continue
                busy = True
                start = time.perf_counter()
                state.reps[w].append(rep(state, w, w, False))
                if trace:
                    state.traced[w].append(rep(state, w, w, True))
                state.spent[w] += time.perf_counter() - start
        if not busy:
            break
    return [summarise(state, schedule, shapes, trace) for state in sets]


def summarise(state: SetState, schedule: list[str], shapes: dict, trace: bool) -> dict:
    """Cross-rep checks and the per-workload summary of one set."""

    def reference_of(workload: str, want_traced: bool) -> dict | None:
        """A usable run of the workload's reference job, if it has one."""
        name = inputs.WORKLOADS[workload].reference
        if name in state.references:
            candidates = [state.references[name]]
        else:
            candidates = (state.traced if want_traced else state.reps).get(name, [])
        return next((r for r in candidates if not r["failures"]), None)

    def per_layer(result: dict, reference: dict | None, untraced: dict | None) -> dict:
        values = layer_metrics(result, reference, untraced)
        return {m.name: {"value": values[m.name], "unit": m.unit} for m in PER_LAYER}

    summary: dict = {}
    for w in schedule:
        wl = inputs.WORKLOADS[w]
        failures, attempted = state.failures[w], state.attempted[w]
        good = [r for r in state.reps[w] if not r["failures"]]
        good_traced = [r for r in state.traced[w] if not r["failures"]]
        failures += checks.check_reps_agree(good + good_traced)
        if wl.reference is not None and good:
            ref = reference_of(w, want_traced=False)
            if ref is None:
                failures.append(f"no usable {wl.reference} reference run")
            else:
                failures += checks.check_matches_reference(good[0], ref)
        failed = min(attempted, len(failures))
        end_to_end = {"setup_s": ledger.summarize(state.setups[wl.graph], "s")}
        omitted = []
        for metric in ledger.END_TO_END[1:]:
            if metric.name == "failed_frac":
                end_to_end[metric.name] = ledger.summarize([failed / attempted], metric.unit)
            elif not ledger.applies(metric.name, w):
                omitted.append(metric.name)
            elif good:
                end_to_end[metric.name] = ledger.summarize(
                    [r[metric.name] for r in good], metric.unit
                )
        summary[w] = {
            "why": wl.why,
            "input": shapes[wl.graph],
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "end_to_end": end_to_end,
            "omitted": omitted,
        }
        if good and good_traced:
            # The traced rep with the median job time stands for the pass.
            chosen = sorted(good_traced, key=lambda r: r["job_s"])[len(good_traced) // 2]
            untraced = {name: cell["median"] for name, cell in end_to_end.items()}
            summary[w]["per_layer"] = per_layer(chosen, reference_of(w, True), untraced)
            summary[w]["traced_wall_s"] = chosen["wall_s"]
            summary[w]["spans"] = chosen["spans"]
    # A reference-only pass (engine_sim) is its own per-layer column.
    for name, ref in state.references.items():
        if trace and not ref["failures"]:
            summary[name] = {
                "why": inputs.WORKLOADS[name].why,
                "reference_only": True,
                "per_layer": per_layer(ref, None, None),
                "spans": ref["spans"],
            }
    return summary


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------

def print_report(summary: dict, trace: bool) -> None:
    for workload, entry in summary.items():
        if entry.get("reference_only"):
            print(f"\n== {workload} (reference pass, per-layer only)")
        else:
            print(f"\n== {workload}  reps={entry['end_to_end'].get('job_s', {}).get('n', 0)} "
                  f"attempted={entry['attempted']} failed={entry['failed']}")
            for metric in ledger.END_TO_END:
                cell = entry["end_to_end"].get(metric.name)
                if cell is None:
                    print(f"  {metric.name:<24} omitted")
                    continue
                print(f"  {metric.name:<24} {cell['median']:>14.6g} {metric.unit:<6} "
                      f"min {cell['min']:.6g}  q1 {cell['q1']:.6g}  q3 {cell['q3']:.6g}  "
                      f"n {cell['n']}")
            for message in entry["failures"]:
                print(f"  FAILED: {message}")
        if trace and "per_layer" in entry:
            for name, cell in entry["per_layer"].items():
                value = "not exercised" if cell["value"] is None else f"{cell['value']:.6g}"
                print(f"    {name:<46} {value:>14} {cell['unit']}")


def driver_line(summary: dict, schedule: list[str], trace: bool, single: bool) -> dict:
    """The contract's last line: correct / attempted / failed / metrics.

    The metrics are the ones BENCHMARK.json names, no more: the pool and
    serving rows of the per-layer table are printed above it only.
    """
    def metrics_of(workload: str) -> dict:
        entry = summary[workload]
        if trace:
            cells = entry.get("per_layer", {})
            return {m.name: {"value": cells[m.name]["value"] or 0.0, "unit": m.unit}
                    for m in DRIVEN_PER_LAYER if m.name in cells}
        return {
            m.name: {"value": entry["end_to_end"][m.name]["median"], "unit": m.unit}
            for m in ledger.END_TO_END
            if m.everywhere and m.name in entry["end_to_end"]
        }

    attempted = sum(summary[w]["attempted"] for w in schedule)
    failed = sum(summary[w]["failed"] for w in schedule)
    metrics = metrics_of(schedule[0]) if single else {w: metrics_of(w) for w in schedule}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def ledger_document(summary: dict, args: argparse.Namespace) -> dict:
    return {
        "schema": 1,
        "issue": 11,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": ledger.fingerprint(ROOT),
        "workloads": {
            w: {k: v for k, v in entry.items() if k != "spans"} for w, entry in summary.items()
        },
    }


def print_compare(base_path: str, change_path: str) -> int:
    rows, any_worse = ledger.compare(ledger.load(base_path), ledger.load(change_path))
    print(f"{'workload':<14} {'metric':<22} {'base':>12} {'change':>12} {'delta':>8} "
          f"{'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<14} {row['metric']:<22} {row['base']:>12.6g} "
              f"{row['change']:>12.6g} {row['delta']:>+8.1%} {row['bound']:>6.1%}  "
              f"{row['verdict']}")
    return 1 if any_worse else 0


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", help="run one workload (default: all six, interleaved)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall time of reps per workload (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced reps and report per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="inputs ~20x smaller, one rep (the harness self-test)")
    parser.add_argument("--out", type=Path, help="write the ledger JSON here")
    parser.add_argument("--trace-out", type=Path, help="write the Chrome trace here")
    parser.add_argument("--data-dir", type=Path,
                        help="where inputs are written (default: a scratch directory "
                             "under benchmarks/perf, removed afterwards)")
    parser.add_argument("--sets", type=int, default=1,
                        help="noise calibration: repeat the whole schedule N times "
                             "(needs --noise-out)")
    parser.add_argument("--noise-out", type=Path,
                        help="with --sets: write each metric's set medians and their "
                             "largest pairwise difference here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"))
    args = parser.parse_args(argv)

    if args.compare:
        return print_compare(*args.compare)
    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2

    if (args.sets > 1) != (args.noise_out is not None):
        parser.error("--sets N (N > 1) and --noise-out FILE go together")
    if args.workload is not None and args.workload not in inputs.TIMED:
        parser.error(f"--workload must be one of {', '.join(inputs.TIMED)}")
    if args.seconds is None:
        args.seconds = 0.0 if args.smoke else float(ledger.RUN_SECONDS)
    schedule = [args.workload] if args.workload else list(inputs.TIMED)

    own_dir = args.data_dir is None
    data_dir = (HERE / ".work" / f"run-{os.getpid()}") if own_dir else args.data_dir
    data_dir.mkdir(parents=True, exist_ok=True)
    try:
        sets = measure(schedule, args, data_dir.resolve())
    finally:
        if own_dir:
            shutil.rmtree(data_dir, ignore_errors=True)
            with contextlib.suppress(OSError):  # another run may still use it
                data_dir.parent.rmdir()
    summary = sets[-1]
    print_report(summary, bool(args.trace))

    if args.out:
        args.out.write_text(json.dumps(ledger_document(summary, args), indent=1) + "\n",
                            encoding="utf-8")
    if args.trace_out and args.trace:
        jobs = {w: entry["spans"] for w, entry in summary.items() if "spans" in entry}
        args.trace_out.write_text(
            json.dumps(tracing.chrome_trace(jobs), separators=(",", ":")) + "\n",
            encoding="utf-8",
        )
    if args.noise_out:
        documents = [ledger_document(s, args) for s in sets]
        noise = {"seed": args.seed, "sets": args.sets, "seconds": args.seconds,
                 "smoke": args.smoke, "environment": documents[0]["environment"],
                 "noise": ledger.noise(documents)}
        args.noise_out.write_text(json.dumps(noise, indent=1) + "\n", encoding="utf-8")

    line = driver_line(summary, schedule, bool(args.trace), single=args.workload is not None)
    print(json.dumps(line))
    return 0 if all(s[w]["failed"] == 0 for s in sets for w in schedule) else 1


if __name__ == "__main__":
    sys.exit(main())
