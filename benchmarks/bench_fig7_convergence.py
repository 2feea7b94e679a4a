"""Figure 7: optimization progress for p = 0.5 vs p = 1.0 (SHP-k, k = 8).

On the soc-LJ stand-in, tracks average fanout and the percentage of moved
vertices per refinement iteration.  The paper's finding: with p = 1 the
local search freezes early (few moves, higher final fanout); with p = 0.5
movement persists and fanout keeps improving — the number of moved
vertices falls below 0.1 % only after ~35 iterations.
"""

from __future__ import annotations

from conftest import bench_dataset, smoke_mode

from repro import SHPConfig, SHPKPartitioner
from repro.bench import format_series

ITERATIONS = 45


def _run(p: float):
    graph = bench_dataset("soc-LJ")
    if p >= 1.0:
        config = SHPConfig(
            k=8, objective="fanout", seed=7, max_iterations=ITERATIONS,
            track_metrics="full", convergence_fraction=0.0,
        )
    else:
        config = SHPConfig(
            k=8, p=p, seed=7, max_iterations=ITERATIONS,
            track_metrics="full", convergence_fraction=0.0,
        )
    result = SHPKPartitioner(config).partition(graph)
    fanouts = [round(s.fanout, 3) for s in result.history]
    moved = [round(100.0 * s.moved_fraction, 2) for s in result.history]
    return fanouts, moved


def test_fig7_convergence(benchmark):
    f_half, m_half = benchmark.pedantic(_run, args=(0.5,), rounds=1, iterations=1)
    f_one, m_one = _run(1.0)
    iterations = list(range(1, len(f_half) + 1))
    text = format_series(
        "iter",
        iterations,
        {
            "fanout p=0.5": f_half,
            "fanout p=1.0": f_one + [""] * (len(f_half) - len(f_one)),
            "moved% p=0.5": m_half,
            "moved% p=1.0": m_one + [""] * (len(m_half) - len(m_one)),
        },
        title="Figure 7 — SHP-k progress on soc-LJ stand-in (k=8)",
    )
    print(f"\n{text}")

    assert f_half[-1] < f_half[0]  # monotone-ish improvement overall
    if smoke_mode():
        return  # local-minimum shape needs bench-scale graphs
    # Paper's qualitative claims: direct fanout optimization lands in a
    # local minimum — movement freezes while the result is worse.
    assert f_half[-1] < f_one[-1]  # p=0.5 reaches lower fanout
    late = slice(20, None)
    assert sum(m_one[late]) < sum(m_half[late])  # p=1 frozen, p=0.5 moving
