"""Local goldens: absolute results of the in-process SHP-2 and replay paths.

``test_golden_grid.py`` pins the engine cells; this file does the same for
the two local paths a refactor of ``core/shp_2.py`` or
``sharding/simulator.py`` could shift without any parity test noticing
(parity tests compare production to an oracle *statistically* where the
RNG streams differ).  The constants were captured at the commit *before*
the ``loop`` level mode and the ``loop`` replay left ``src/`` (PR 14) and
must never move without a deliberate, explained re-capture.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro import shp_2
from repro.hypergraph import BipartiteGraph, community_bipartite, darwini_bipartite
from repro.sharding import replay_traffic
from repro.workloads import sample_queries

UNWEIGHTED_K8 = "8b1d0d9c5a69aa0e1eada2fd9b54d4593ed31bf1763b225cb3d2464c95b17fd2"
WEIGHTED_K5 = "44011f88cca6fa590e195976906e836c54fc6613e4cf9c55114481276aee9aa2"
# (objective_value, fanout, moved) columns of the whole IterationStats
# history under track_metrics="full", captured at the parent of PR 20 (the
# per-pin gain kernel): the slot-value refiner must reproduce every
# reported float, not only the assignment.
UNWEIGHTED_K8_HISTORY = (
    "ee8e2ba8adfce619cebf4d72184f77419239ba4e2f2449b2e1c6f96b4d7a74ec",
    "191324dfedf938f6a110ed984d3454f122a69c68912d7b905e5c5d36869971a0",
    "7eb5976379ab835234d4459f7b922d2c2cd20444a827c5214db78bca5865ed68",
)
WEIGHTED_K5_HISTORY = (
    "2b92fc261b895bcc899d3e8921fb0e1d5487f09afade475376cb59d0efa79c17",
    "4bca8637660744841efa0e6356b8986bd03976b2e07e124ce7c51b4374030051",
    "164c7d03f96332d369b372f3d03a585a8ea7916f8c3f9cb42278833a77895874",
)
REPLAY_FANOUTS = "1557ddd08a234cc5d08abb6f13599058891a9040393a57fa33aeb4a440154c0e"
REPLAY_RECORDS = "acdcf8ff7660fe48d8548ca475d99121f1fe0c854b5c5397d23c332b33395d68"
REPLAY_TOTALS = (27791, 35539)  # (requests_total, records_total)


def _sha(values: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(values, dtype=dtype).tobytes()
    ).hexdigest()


@pytest.fixture(scope="module")
def graph() -> BipartiteGraph:
    return community_bipartite(
        num_queries=800, num_data=1200, num_edges=8000,
        num_communities=16, mixing=0.2, seed=7,
    )


@pytest.fixture(scope="module")
def weighted_graph(graph) -> BipartiteGraph:
    rng = np.random.default_rng(21)
    return dataclasses.replace(
        graph,
        data_weights=rng.uniform(0.5, 3.0, graph.num_data),
        query_weights=rng.uniform(0.2, 5.0, graph.num_queries),
    )


def test_shp2_unweighted_k8(graph):
    assert _sha(shp_2(graph, 8, seed=3).assignment, "<i4") == UNWEIGHTED_K8


def test_shp2_weighted_k5(weighted_graph):
    # Non-power-of-two k: unequal spans exercise the proportional caps.
    assert _sha(shp_2(weighted_graph, 5, seed=4).assignment, "<i4") == WEIGHTED_K5


def _history_shas(result) -> tuple[str, str, str]:
    history = result.history
    return (
        _sha(np.array([s.objective_value for s in history]), "<f8"),
        _sha(np.array([s.fanout for s in history]), "<f8"),
        _sha(np.array([s.moved for s in history]), "<i8"),
    )


def test_shp2_unweighted_k8_history(graph):
    result = shp_2(graph, 8, seed=3, track_metrics="full")
    assert _history_shas(result) == UNWEIGHTED_K8_HISTORY


def test_shp2_weighted_k5_history(weighted_graph):
    result = shp_2(weighted_graph, 5, seed=4, track_metrics="full")
    assert _history_shas(result) == WEIGHTED_K5_HISTORY


def test_shp2_refine_workers_2_k8(graph, monkeypatch):
    # The pool must land on the serial golden, not merely on "some" result;
    # threshold 1 routes every gain batch of this small graph through it.
    monkeypatch.setattr("repro.core.level_fuse.PARALLEL_MIN_RANKS", 1)
    result = shp_2(graph, 8, seed=3, refine_workers=2)
    assert _sha(result.assignment, "<i4") == UNWEIGHTED_K8


def test_replay_darwini_trace():
    graph = darwini_bipartite(1500, avg_degree=20, clustering=0.4, seed=3)
    assignment = (np.arange(graph.num_data) % 12).astype(np.int64)
    trace = sample_queries(graph, 4000, skew=0.8, seed=5)
    result = replay_traffic(graph, assignment, 12, trace, seed=7)
    assert _sha(result.fanouts, "<i8") == REPLAY_FANOUTS
    assert _sha(result.records, "<i8") == REPLAY_RECORDS
    assert (result.requests_total, result.records_total) == REPLAY_TOTALS
