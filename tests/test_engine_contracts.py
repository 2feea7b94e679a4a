"""Contract tests for the vertex-centric engine's lesser-used paths."""

from __future__ import annotations

import pytest

from oracles.per_vertex import run_per_vertex
from repro.distributed import ClusterSpec, GiraphEngine


class NoopProgram:
    def phase_name(self, superstep):
        return "noop"

    def compute(self, ctx, vid, state, messages):
        state["steps"] = state.get("steps", 0) + 1


class TestEngineContracts:
    def test_runs_with_no_master_until_budget(self):
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        result = run_per_vertex(engine, NoopProgram(), {0: {}, 1: {}}, max_supersteps=5)
        assert result.supersteps_run == 5
        assert not result.halted_by_master
        assert result.states[0]["steps"] == 5

    def test_reload_resets_state(self):
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        run_per_vertex(engine, NoopProgram(), {0: {}}, max_supersteps=2)
        result = run_per_vertex(engine, NoopProgram(), {0: {}, 1: {}}, max_supersteps=1)
        assert result.states == {0: {"steps": 1}, 1: {"steps": 1}}

    def test_message_to_unknown_vertex_fails_loudly(self):
        class BadSender:
            def phase_name(self, superstep):
                return "bad"

            def compute(self, ctx, vid, state, messages):
                ctx.send(999, "hello")  # vertex 999 was never loaded

        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=0)
        with pytest.raises(IndexError):
            run_per_vertex(engine, BadSender(), {0: {}}, max_supersteps=1)

    def test_placement_covers_all_workers_eventually(self):
        engine = GiraphEngine(ClusterSpec(num_workers=4), seed=3)
        engine.load(200)
        assert set(engine._worker_of_array.tolist()) == {0, 1, 2, 3}
        # Every vertex sits on exactly one worker, ids ascending per worker.
        for worker, vids in enumerate(engine._worker_vertices):
            assert (engine._worker_of_array[vids] == worker).all()
            assert (vids[1:] > vids[:-1]).all()
        assert sum(v.size for v in engine._worker_vertices) == 200

    def test_placement_deterministic_per_seed(self):
        def placement(seed):
            engine = GiraphEngine(ClusterSpec(num_workers=4), seed=seed)
            engine.load(50)
            return engine._worker_of_array.tolist()

        assert placement(7) == placement(7)
        assert placement(7) != placement(8)

    def test_zero_max_supersteps(self):
        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=0)
        result = run_per_vertex(engine, NoopProgram(), {0: {}}, max_supersteps=0)
        assert result.supersteps_run == 0
        assert result.metrics.num_supersteps == 0
