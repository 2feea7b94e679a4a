"""Golden grid: absolute assignment + meter values for every engine cell.

Cross-backend parity (``test_backend_parity.py``, ``test_backend_rpc.py``)
compares backends with each other, so a change that shifts sim, mp and rpc
identically is invisible to it.  This file pins *absolute* values — the
SHA-256 of the assignment plus ``total_messages``, ``total_remote_bytes``
and ``supersteps_run`` — for {sim, mp, rpc} x {dict, columnar} x
{combiner on, off} and for the rpc failover cell, on one small seeded
graph.  The values were captured at the commit *before* the worker
runtimes were merged into one ``WorkerHost`` (PR 12) and must never move
without a deliberate, explained re-capture.

Since the per-vertex program left ``src/`` (PR 13) the six ``dict`` cells
run the test oracle (``tests/oracles/``) through the per-vertex adapter
and pin the assignment hash and the superstep count; the byte meters are a
property of the typed wire schemas only the columnar program speaks, so
the six columnar cells pin those (same constants as before).

The graph and seed are chosen so that every cycle moves at least one
vertex (asserted below): the goldens do not depend on how the master
treats a zero-move cycle.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from oracles.shp_dict import run_dict_shp
from repro import SHPConfig
from repro.distributed import ClusterSpec, RpcBackend
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import community_bipartite

ASSIGNMENT_SHA256 = "56d3e8968b03f50681b20274221544e93ae3e52b25021e918d3f1fb488b82d82"
SUPERSTEPS_RUN = 28
#: combiner on? -> (total_messages, total_remote_bytes)
METERS = {False: (8411, 145864), True: (6657, 137392)}


@pytest.fixture(scope="module")
def graph():
    return community_bipartite(120, 160, 1100, num_communities=6, mixing=0.25, seed=9)


def _run(graph, backend, vertex_mode, combiner):
    config = SHPConfig(
        k=4, seed=13, iterations_per_bisection=3, max_iterations=3,
        swap_mode="bernoulli",
    )
    cluster = ClusterSpec(num_workers=3)
    if vertex_mode == "dict":
        return run_dict_shp(
            config, graph, cluster=cluster, mode="2", backend=backend, combiner=combiner
        )
    return DistributedSHP(
        config, cluster=cluster, mode="2", backend=backend, combiner=combiner
    ).run(graph)


def _check(run, combiner, vertex_mode="columnar"):
    digest = hashlib.sha256(
        np.ascontiguousarray(run.assignment, dtype="<i4").tobytes()
    ).hexdigest()
    assert (digest, run.supersteps) == (ASSIGNMENT_SHA256, SUPERSTEPS_RUN)
    assert run.metrics.total_messages == METERS[combiner][0]
    if vertex_mode == "columnar":
        assert run.metrics.total_remote_bytes == METERS[combiner][1]
    assert run.moved_history and min(run.moved_history) > 0


@pytest.mark.parametrize("combiner", [False, True])
@pytest.mark.parametrize("vertex_mode", ["dict", "columnar"])
@pytest.mark.parametrize("backend", ["sim", "mp", "rpc"])
def test_cell_matches_golden(graph, backend, vertex_mode, combiner):
    if backend == "rpc":
        backend = RpcBackend(step_timeout=60.0)
    _check(_run(graph, backend, vertex_mode, combiner), combiner, vertex_mode)


def test_rpc_failover_cell_matches_golden(graph):
    """A peer killed before superstep 6 is re-homed from checkpoints and
    the superstep retried: same hash, same meters."""
    backend = RpcBackend(step_timeout=60.0, chaos_kill=(6, 1))
    _check(_run(graph, backend, "columnar", False), False)
