"""Oracle differential for distributed SHP: per-vertex twin vs columnar.

``SHPColumnarProgram`` is the only program ``src/`` runs.  Its reference —
the per-vertex ``_SHPVertexProgram`` the job started out as — lives in
``tests/oracles/`` and reaches the engine through the per-vertex adapter.
For a given seed the two must agree bit for bit on the assignment and
exactly on ``moved_history``, superstep count, message counts, ops and
activity, for mode ``"2"`` and ``"k"``, combiner on and off, unweighted and
query-weighted (:func:`test_columnar_matches_oracle`, both on ``sim``).

The two grids below keep every cell they always had — a ``"dict"`` cell now
runs the oracle on that backend, a ``"columnar"`` cell the production job —
and compare each with the oracle's ``sim`` run.  Byte meters are a property
of the typed wire schemas, which only the columnar program speaks (the
adapter meters a flat 8 bytes per message), so bytes are compared with the
``sim`` run of the same kind.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from oracles.shp_dict import run_dict_shp
from repro import SHPConfig
from repro.distributed import ClusterSpec
from repro.distributed_shp import DistributedSHP
from repro.hypergraph import BipartiteGraph, community_bipartite


def _weighted(graph: BipartiteGraph, seed: int = 11) -> BipartiteGraph:
    rng = np.random.default_rng(seed)
    return BipartiteGraph(
        num_queries=graph.num_queries,
        num_data=graph.num_data,
        q_indptr=graph.q_indptr,
        q_indices=graph.q_indices,
        d_indptr=graph.d_indptr,
        d_indices=graph.d_indices,
        query_weights=np.round(rng.uniform(0.5, 4.0, graph.num_queries), 3),
        name="weighted",
    )


@functools.lru_cache(maxsize=None)
def _graph(weighting: str) -> BipartiteGraph:
    base = community_bipartite(140, 190, 1300, num_communities=8, mixing=0.2, seed=4)
    return base if weighting == "unweighted" else _weighted(base)


def _config() -> SHPConfig:
    return SHPConfig(
        k=4, seed=5, iterations_per_bisection=3, max_iterations=3,
        swap_mode="bernoulli",
    )


def _run(vertex_mode, backend, mode, weighting, combiner):
    cluster = ClusterSpec(num_workers=3)
    if vertex_mode == "dict":
        return run_dict_shp(
            _config(), _graph(weighting), cluster=cluster, mode=mode,
            backend=backend, combiner=combiner,
        )
    job = DistributedSHP(
        _config(), cluster=cluster, mode=mode, backend=backend, combiner=combiner
    )
    return job.run(_graph(weighting))


@functools.lru_cache(maxsize=None)
def _sim(vertex_mode, mode, weighting, combiner):
    """The ``sim`` run of one kind, computed once per module."""
    return _run(vertex_mode, "sim", mode, weighting, combiner)


def _assert_matches_oracle(run, oracle):
    assert np.array_equal(run.assignment, oracle.assignment)
    assert run.supersteps == oracle.supersteps
    assert run.cycles == oracle.cycles
    assert run.moved_history == oracle.moved_history
    assert run.metrics.total_messages == oracle.metrics.total_messages
    for step, ref in zip(run.metrics.supersteps, oracle.metrics.supersteps):
        assert step.phase == ref.phase
        assert step.messages_local == ref.messages_local
        assert step.messages_remote == ref.messages_remote
        assert step.active_vertices == ref.active_vertices
        assert np.array_equal(step.messages_per_worker, ref.messages_per_worker)
        assert np.array_equal(step.ops_per_worker, ref.ops_per_worker)


def _assert_same_bytes(run, same_kind_sim):
    for step, ref in zip(run.metrics.supersteps, same_kind_sim.metrics.supersteps):
        assert step.bytes_local == ref.bytes_local
        assert step.bytes_remote == ref.bytes_remote
        assert np.array_equal(
            step.remote_bytes_per_worker, ref.remote_bytes_per_worker
        )


@pytest.mark.parametrize("weighting", ["unweighted", "query-weighted"])
@pytest.mark.parametrize("combiner", [False, True])
@pytest.mark.parametrize("mode", ["2", "k"])
def test_columnar_matches_oracle(mode, combiner, weighting):
    """The differential itself: production program vs oracle, both on sim."""
    _assert_matches_oracle(
        _sim("columnar", mode, weighting, combiner),
        _sim("dict", mode, weighting, combiner),
    )


@pytest.mark.parametrize("backend", ["sim", "mp"])
@pytest.mark.parametrize("vertex_mode", ["dict", "columnar"])
@pytest.mark.parametrize("mode", ["2", "k"])
@pytest.mark.parametrize("weighting", ["unweighted", "query-weighted"])
class TestVertexModeParity:
    def test_cell_matches_reference(self, backend, vertex_mode, mode, weighting):
        if (backend, vertex_mode) == ("sim", "dict"):
            pytest.skip("reference cell")
        run = _run(vertex_mode, backend, mode, weighting, False)
        _assert_matches_oracle(run, _sim("dict", mode, weighting, False))
        _assert_same_bytes(run, _sim(vertex_mode, mode, weighting, False))


@pytest.mark.parametrize("backend", ["sim", "mp", "rpc"])
@pytest.mark.parametrize("vertex_mode", ["dict", "columnar"])
@pytest.mark.parametrize("combiner", [False, True])
class TestCombinerBackendParity:
    def test_cell_matches_reference(self, backend, vertex_mode, combiner):
        if (backend, vertex_mode) == ("sim", "dict"):
            pytest.skip("reference cell")
        run = _run(vertex_mode, backend, "2", "unweighted", combiner)
        _assert_matches_oracle(run, _sim("dict", "2", "unweighted", combiner))
        _assert_same_bytes(run, _sim(vertex_mode, "2", "unweighted", combiner))


def test_combiner_is_transparent_and_saves_bytes():
    """Same assignment with and without combining, strictly fewer bytes."""
    off = _sim("columnar", "2", "unweighted", False)
    on = _sim("columnar", "2", "unweighted", True)
    assert np.array_equal(on.assignment, off.assignment)
    assert on.supersteps == off.supersteps
    assert on.metrics.total_messages < off.metrics.total_messages
    on_bytes = sum(s.bytes_remote for s in on.metrics.supersteps)
    off_bytes = sum(s.bytes_remote for s in off.metrics.supersteps)
    assert on_bytes < off_bytes
