"""Out-of-core ingest: chunked ``.rgs`` conversion vs in-memory text parse.

The storage subsystem's two load-time claims, measured head to head on a
synthetic ~1M-edge graph:

* **Bounded RSS** — ``convert_to_store`` streams hMetis text into the
  binary store through fixed-size chunks and spill buckets, so its peak
  RSS must stay well below the materialize-everything text reader's.
* **mmap is (nearly) free** — ``GraphStore.open().view()`` maps the CSR
  arrays without copying, so opening the store must be ≥10x faster than
  re-parsing the text file.

Peak RSS is a process-lifetime maximum, so each measurement runs in its
own subprocess, with an import-only subprocess as the interpreter
baseline.  The probe reads ``VmHWM`` from ``/proc/self/status`` (reset by
exec) rather than ``ru_maxrss``, which a child inherits from the parent's
forked image and would report the test runner's peak instead.  Timing/RSS floors
are asserted at full scale only; smoke mode just proves the ingest paths
still execute and agree bit-for-bit.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
from conftest import smoke_mode

from repro.bench import format_table
from repro.hypergraph import community_bipartite, read_hmetis, write_hmetis
from repro.storage import convert_to_store, open_store_view

#: Full-scale synthetic graph: ~1M pins through the chunked writer.
FULL_EDGES = 1_000_000
SMOKE_EDGES = 30_000
#: Converter chunk size: small enough that bounded-RSS is a real claim
#: (64k-edge chunks against a 1M-edge graph).
CHUNK_EDGES = 1 << 16

_MEASURE = r"""
import json, resource, sys, time


def peak_kb():
    try:  # VmHWM: this process's own high-water mark (reset by exec)
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    # Fallback (non-Linux): lifetime max, inherited across fork.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


mode, src, dst = sys.argv[1], sys.argv[2], sys.argv[3]
if mode not in ("baseline", "text", "convert", "mmap"):
    raise SystemExit(f"unknown mode {mode}")
# Imports happen before the clock starts: they belong to the interpreter
# baseline (both in time and in RSS), not to the ingest path under test.
import numpy  # noqa: F401
from repro.hypergraph import read_hmetis  # noqa: F401
from repro.storage import convert_to_store, open_store_view  # noqa: F401

start = time.perf_counter()
if mode == "text":
    graph = read_hmetis(src)
    assert graph.num_edges > 0
elif mode == "convert":
    convert_to_store(src, dst, chunk_edges=int(sys.argv[4]))
elif mode == "mmap":
    view = open_store_view(src)
    assert view.num_edges > 0
elapsed = time.perf_counter() - start
print(json.dumps({"sec": elapsed, "peak_kb": peak_kb()}))
"""


def _measure(mode: str, src="-", dst="-", chunk_edges=CHUNK_EDGES) -> dict:
    """Run one ingest path in a fresh subprocess; return {sec, peak_kb}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, mode, str(src), str(dst), str(chunk_edges)],
        check=True, capture_output=True, text=True, env=env,
    )
    return json.loads(out.stdout)


def _run(tmp_path):
    num_edges = SMOKE_EDGES if smoke_mode() else FULL_EDGES
    graph = community_bipartite(
        num_queries=max(200, num_edges // 8),
        num_data=max(300, num_edges // 6),
        num_edges=num_edges,
        num_communities=32,
        seed=17,
    )
    hgr = tmp_path / "ingest.hgr"
    rgs = tmp_path / "ingest.rgs"
    write_hmetis(graph, hgr)

    baseline = _measure("baseline")
    text = _measure("text", hgr)
    convert = _measure("convert", hgr, rgs)
    mmap_open = _measure("mmap", rgs)

    # Correctness at every scale: the streamed store views identically to
    # the text parse.
    parsed = read_hmetis(hgr)
    view = open_store_view(rgs)
    for attr in ("q_indptr", "q_indices", "d_indptr", "d_indices"):
        assert np.array_equal(getattr(parsed, attr), getattr(view, attr)), attr

    def row(path, m):
        return {
            "path": path,
            "sec": round(m["sec"], 3),
            "peak_MiB": round(m["peak_kb"] / 1024, 1),
            "delta_MiB": round((m["peak_kb"] - baseline["peak_kb"]) / 1024, 1),
        }

    return {
        "pins": graph.num_edges,
        "rows": [
            row("import baseline", baseline),
            row("text parse (read_hmetis)", text),
            row(f"convert → .rgs (chunk={CHUNK_EDGES})", convert),
            row("mmap open (.rgs view)", mmap_open),
        ],
        "text_sec": text["sec"],
        "mmap_sec": mmap_open["sec"],
        "text_delta_kb": text["peak_kb"] - baseline["peak_kb"],
        "convert_delta_kb": convert["peak_kb"] - baseline["peak_kb"],
    }


def test_ingest(benchmark, tmp_path):
    result = benchmark.pedantic(_run, args=(tmp_path,), rounds=1, iterations=1)
    text = format_table(
        result["rows"],
        title=f"Out-of-core ingest — {result['pins']:,} pins",
    )
    print(f"\n{text}")

    if smoke_mode():
        return  # floors below are meaningless on a 30k-pin graph

    # Bounded RSS: the chunked converter's memory growth over the
    # interpreter baseline stays under half the text reader's, despite
    # producing the same graph.
    assert result["convert_delta_kb"] < 0.5 * result["text_delta_kb"], result
    # Zero-copy open: mapping the store beats re-parsing text by >=10x.
    assert result["mmap_sec"] * 10 <= result["text_sec"], result
