"""SHP-2 level execution: timing/fanout table and parallel refinement.

The level-fused engine refines every bisection of a recursion level in one
vectorized pass (composite (group, side) labels, cached gains, one grouped
matcher invocation).  This bench partitions a Darwini-style workload
(|D| = 2·10⁵ at full scale) and reports wall-clock and final fanout at two
iteration budgets:

* ``shallow`` — the paper's SHP-2 default of 20 iterations per bisection;
  every iteration still moves a sizable fraction of vertices.
* ``converge`` — a 60-iteration budget (SHP-k's default), approximating
  run-to-convergence; the dirty-neighborhood gain cache makes late,
  low-movement iterations nearly free.

Only the ε balance bound is asserted on these rows: agreement with the
literal per-group recursion is a test-suite contract
(``tests/test_level_fuse.py`` against ``tests/oracles/shp2_loop.py``), and
with no slower path left there is no speedup floor.

A second bench pits the serial path against shared-memory parallel
refinement (``refine_workers``, see repro.core.parallel_refine): here the
contract is the strict one — assignments must be **bitwise identical** (the
deterministic ascending-block merge), asserted at every scale including
smoke, with the ≥ 2× elapsed floor at 4 workers pinned at full scale only
(smoke graphs are pure fixed overhead, and CI boxes may not have 4 cores).
"""

from __future__ import annotations

import time

import numpy as np
from conftest import smoke_mode

from repro import shp_2
from repro.bench import format_table
from repro.hypergraph import darwini_bipartite
from repro.objectives import average_fanout, imbalance

#: (budget label, iterations per bisection).
BUDGETS = (("shallow", 20), ("converge", 60))
EPSILON = 0.05
#: Asserted minimum parallel-over-serial speedup at 4 workers, full scale.
PARALLEL_WORKERS = 4
PARALLEL_SPEEDUP_FLOOR = 2.0
PARALLEL_ITERATIONS = 60


def _run_levels():
    num_users = 4000 if smoke_mode() else 200_000
    ks = (8,) if smoke_mode() else (16, 64, 128)
    graph = darwini_bipartite(num_users, avg_degree=12, clustering=0.4, seed=41)
    rows = []
    for label, iterations in BUDGETS:
        for k in ks:
            start = time.perf_counter()
            result = shp_2(
                graph, k, seed=42, epsilon=EPSILON,
                iterations_per_bisection=iterations,
            )
            elapsed = time.perf_counter() - start
            assert imbalance(result.assignment, k) <= EPSILON + 1e-9
            rows.append(
                {
                    "budget": label,
                    "iters": iterations,
                    "k": k,
                    "|D|": graph.num_data,
                    "sec": round(elapsed, 2),
                    "fanout": round(average_fanout(graph, result.assignment, k), 4),
                }
            )
    return rows


def _run_parallel():
    num_users = 4000 if smoke_mode() else 200_000
    ks = (8,) if smoke_mode() else (64, 128)
    graph = darwini_bipartite(num_users, avg_degree=12, clustering=0.4, seed=41)
    rows = []
    for k in ks:
        timings = {}
        assignments = {}
        for workers in (1, PARALLEL_WORKERS):
            start = time.perf_counter()
            result = shp_2(
                graph, k, seed=42, epsilon=EPSILON,
                iterations_per_bisection=PARALLEL_ITERATIONS,
                refine_workers=workers,
            )
            timings[workers] = time.perf_counter() - start
            assignments[workers] = result.assignment
        # The deterministic-merge contract: bitwise equality at every
        # scale, smoke included — parallelism never touches the bits.
        bitwise = np.array_equal(
            assignments[1], assignments[PARALLEL_WORKERS]
        )
        assert bitwise, f"parallel refinement diverged from serial at k={k}"
        speedup = timings[1] / timings[PARALLEL_WORKERS]
        rows.append(
            {
                "k": k,
                "|D|": graph.num_data,
                "workers": PARALLEL_WORKERS,
                "serial sec": round(timings[1], 2),
                "parallel sec": round(timings[PARALLEL_WORKERS], 2),
                "speedup": round(speedup, 2),
                "bitwise": "yes" if bitwise else "NO",
                "_speedup": speedup,
            }
        )
    return rows


def test_shp2_parallel_refinement(benchmark):
    rows = benchmark.pedantic(_run_parallel, rounds=1, iterations=1)
    display = [{k: v for k, v in row.items() if not k.startswith("_")} for row in rows]
    print("\n" + format_table(display, title="SHP-2 refinement: serial vs shared-memory parallel"))
    if smoke_mode():
        return  # tiny graphs: pool spawn dominates, timings not meaningful
    for row in rows:
        assert row["_speedup"] >= PARALLEL_SPEEDUP_FLOOR, (
            f"k={row['k']}: {row['_speedup']:.2f}x < "
            f"{PARALLEL_SPEEDUP_FLOOR}x at {PARALLEL_WORKERS} workers"
        )


def test_sanitizer_instrumentation_compiled_out():
    """The reprosan overhead guard: sanitizer-off runs carry zero probes.

    The runtime sanitizer's hot-path hooks are a single ``current() is
    None`` branch; everything else — bounds validation, worker echoes,
    barrier interval checks — must be unreachable when it is off.  The
    probe counters make that checkable: a sanitizer-off parallel run may
    not advance them at all.  The sanitized re-run then proves the guard
    is not vacuous (dispatches really crossed the pool) and that
    instrumentation never changes the bits.
    """
    from repro.analysis import sanitizers

    graph = darwini_bipartite(4000, avg_degree=12, clustering=0.4, seed=41)
    assert sanitizers.current() is None, "REPRO_SAN leaked into the bench env"
    before = sanitizers.probe_counts()
    off = shp_2(
        graph, 8, seed=42, epsilon=EPSILON,
        iterations_per_bisection=20, refine_workers=2,
    )
    assert sanitizers.probe_counts() == before, (
        "sanitizer-off run advanced instrumentation probes: the default "
        "path is no longer zero-overhead"
    )
    with sanitizers.sanitized(strict=True):
        on = shp_2(
            graph, 8, seed=42, epsilon=EPSILON,
            iterations_per_bisection=20, refine_workers=2,
        )
    advanced = sanitizers.probe_counts()["gain_dispatch"]
    assert advanced > before["gain_dispatch"], (
        "overhead guard is vacuous: no gain dispatch crossed the pool"
    )
    assert np.array_equal(off.assignment, on.assignment), (
        "sanitizer instrumentation changed the bits"
    )


def test_shp2_level_fusion(benchmark):
    rows = benchmark.pedantic(_run_levels, rounds=1, iterations=1)
    print("\n" + format_table(rows, title="SHP-2 level fusion: time and fanout per budget"))
