"""The ledger: metric catalogue, summary statistics, compare and noise rules.

End-to-end metrics are what someone who submits a partitioning job pays
or gets.  The harness bounds seven (:data:`END_TO_END`); three of them do
not exist on every workload (no workers -> no worker RSS, no sockets -> no
wire bytes, and a failure *fraction* is 0 on a healthy run), so the
driver-facing ``BENCHMARK.json`` — whose end-to-end metrics must be
present and non-zero on every workload — bounds the other four and
carries worker RSS and wire MiB as unbounded ``job.*`` rows of the
per-layer list, and failures through its ``attempted`` / ``failed`` keys.
``--compare`` applies all seven bounds.

The two timings, ``setup_s`` and ``job_s``, are *host-corrected* seconds
(``hostspeed.py``): wall time divided by the host's slowdown measured
right around it.  The wall time as measured (``wall_s``) and the slowdown
(``host_slowdown``) are kept beside them, unbounded: on this shared host
they say more about the neighbours than about the program.

``BENCHMARK.json`` lists four of the six workloads (``inputs.DRIVEN``):
the driver's time limit is fixed, so every workload it runs shortens the
others' runs, and the corrected timings need about ten reps a run to
repeat (README "Noise calibration and bounds").
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path

import inputs
from layers import DRIVEN_PER_LAYER

#: Wall time of reps per driver run.  The driver makes 4 + 22 x 4 = 92 runs
#: in 3420 s, ~37 s each; a run is this plus ~6 s of start-up, three
#: set-ups and the reference job.
RUN_SECONDS = 25


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the base median by which the metric may get worse before a
    #: change counts as a regression (``--compare`` and BENCHMARK.json);
    #: ``None``: reported, never judged.
    bound: float | None
    #: defined (and non-zero) on every workload -> listed in BENCHMARK.json.
    everywhere: bool = True


# Bounds.  The two timings take the 0.25 a BENCHMARK.json may state: the
# benchmark driver measured the wall-time ``job_s`` of the first version of
# this harness spreading by 0.16-0.44 over ten runs on its host, and the
# host-corrected one spreads by 0.06-0.08 on the build VM (README "Noise
# calibration and bounds"), which a noisier host can double.  Memory: the
# issue's 0.10.  Fanout repeats exactly at one seed, but the driver takes
# medians over ten different seeds, and from one generated graph to the next
# it moved by up to 0.078 (inter-quartile distance / median, ``serving``):
# 0.10, the spread rounded up to 0.05.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("job_s", "s", "lower", 0.25),
    Metric("peak_rss_mib", "MiB", "lower", 0.10),
    Metric("fanout", "ratio", "lower", 0.10),
    Metric("peak_worker_rss_mib", "MiB", "lower", 0.10, everywhere=False),
    Metric("wire_mib", "MiB", "lower", 0.0, everywhere=False),
    Metric("failed_frac", "ratio", "lower", 0.0, everywhere=False),
    Metric("wall_s", "s", "lower", None, everywhere=False),
    Metric("host_slowdown", "ratio", "lower", None, everywhere=False),
)


def applies(metric: str, workload: str) -> bool:
    """Whether an end-to-end metric exists on a workload (else: omitted)."""
    wl = inputs.WORKLOADS[workload]
    if metric == "peak_worker_rss_mib":
        return wl.workers
    if metric == "wire_mib":
        return workload == "engine_rpc"
    return True


def manifest() -> dict:
    """The contents of ``BENCHMARK.json`` (generated, then pinned by the self-test)."""
    return {
        "command": ["python3", "benchmarks/perf/run.py"],
        "paths": ["benchmarks/perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": inputs.WORKLOADS[name].why} for name in inputs.DRIVEN
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
            if m.everywhere
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in DRIVEN_PER_LAYER
        ],
    }


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(values: list[float], unit: str) -> dict:
    """Median, min, quartiles, n and the raw values of one metric."""
    q1, q3 = quartiles(values)
    return {
        "unit": unit,
        "median": statistics.median(values),
        "min": min(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def spread(summary: dict) -> float:
    """Inter-quartile distance as a share of the median."""
    return (summary["q3"] - summary["q1"]) / summary["median"] if summary["median"] else 0.0


# ----------------------------------------------------------------------
# compare: two ledger files -> one row per metric x workload
# ----------------------------------------------------------------------

def compare(base: dict, change: dict) -> tuple[list[dict], bool]:
    """Rows of (workload, metric, base, change, delta, bound, verdict).

    ``unresolved``: the base's own run-to-run spread (inter-quartile
    distance / median) exceeds the bound, so this pair of files cannot tell
    a regression from noise — unless every run of the change reads better
    than every run of the base, which is ``ok``.  With a base that quiet,
    ``worse``: the change's median is worse than the base's by more than
    the bound.  Otherwise ``ok``.
    """
    rows, any_worse = [], False
    for workload, base_wl in base["workloads"].items():
        change_wl = change["workloads"].get(workload)
        if change_wl is None or "end_to_end" not in base_wl:
            continue  # engine_sim is a per-layer column only
        for metric in END_TO_END:
            a = base_wl["end_to_end"].get(metric.name)
            b = change_wl["end_to_end"].get(metric.name)
            if a is None or b is None or metric.bound is None:
                continue
            sign = 1.0 if metric.better == "lower" else -1.0
            scale = abs(a["median"]) or 1.0
            delta = sign * (b["median"] - a["median"]) / scale
            all_better = max(sign * v for v in b["values"]) < min(sign * v for v in a["values"])
            if spread(a) > metric.bound and not all_better:
                verdict = "unresolved"
            elif delta > metric.bound + 1e-12:
                verdict = "worse"
            else:
                verdict = "ok"
            any_worse |= verdict == "worse"
            rows.append(
                {
                    "workload": workload,
                    "metric": metric.name,
                    "unit": metric.unit,
                    "base": a["median"],
                    "change": b["median"],
                    "delta": delta,
                    "bound": metric.bound,
                    "verdict": verdict,
                }
            )
    return rows, any_worse


def noise(sets: list[dict]) -> dict:
    """Per metric x workload: each set's median and their max pairwise spread."""
    out: dict = {}
    timed = [w for w, entry in sets[0]["workloads"].items() if "end_to_end" in entry]
    for workload in timed:
        for metric in END_TO_END:
            medians = [
                s["workloads"][workload]["end_to_end"][metric.name]["median"]
                for s in sets
                if metric.name in s["workloads"][workload]["end_to_end"]
            ]
            if len(medians) != len(sets):
                continue
            low, high = min(medians), max(medians)
            out.setdefault(workload, {})[metric.name] = {
                "set_medians": medians,
                "max_pairwise_rel_diff": (high - low) / low if low else 0.0,
                "bound": metric.bound,
            }
    return out


def share_failures(document: dict) -> list[str]:
    """Where a traced ledger contradicts a workload's stated time shares.

    Each workload's ``why`` says where its job's time goes
    (``inputs.Workload.shares``); a share is per-layer seconds over the
    wall time of the traced job they were read from.
    """
    failures = []
    for name in inputs.TIMED:
        entry = document["workloads"][name]
        layer = {k: cell["value"] or 0.0 for k, cell in entry["per_layer"].items()}
        for metrics, low, high in inputs.WORKLOADS[name].shares:
            share = sum(layer[m] for m in metrics) / entry["traced_wall_s"]
            if not low <= share <= high:
                failures.append(
                    f"{name}: {' + '.join(metrics)} is {share:.1%} of the job, "
                    f"stated {low:.0%}..{high:.0%}"
                )
    return failures


# ----------------------------------------------------------------------
# environment fingerprint
# ----------------------------------------------------------------------

def fingerprint(root: Path) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as info:
        for line in info:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
    }


def load(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
