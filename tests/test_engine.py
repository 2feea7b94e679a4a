"""Tests for the Giraph-like vertex-centric engine."""

from __future__ import annotations

import numpy as np
import pytest

from oracles.per_vertex import counter_random, run_per_vertex, sizeof_payload
from repro.distributed import (
    ClusterSpec,
    CostModel,
    GiraphEngine,
    MessageBatch,
    MessageSchema,
    SumCombiner,
    counter_random_array,
)

# The engine runs columnar batch programs only; the per-vertex programs
# below reach it through the test-side adapter (``oracles.per_vertex``).


class EchoProgram:
    """Each vertex forwards received values to its neighbors; seeds once."""

    def __init__(self, adjacency):
        self.adjacency = adjacency

    def phase_name(self, superstep):
        return f"step{superstep}"

    def compute(self, ctx, vid, state, messages):
        if ctx.superstep == 0:
            state["received"] = []
            for neighbor in self.adjacency.get(vid, []):
                ctx.send(neighbor, vid)
        else:
            state["received"].extend(messages)


class CountingMaster:
    def __init__(self, stop_at):
        self.stop_at = stop_at
        self.calls = 0

    def compute(self, superstep, aggregates):
        self.calls += 1
        if superstep >= self.stop_at:
            return None
        return {"superstep": superstep}


class TestMessaging:
    def test_messages_delivered_next_superstep(self):
        adjacency = {0: [1], 1: [2], 2: [0]}
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=1)
        result = run_per_vertex(
            engine, EchoProgram(adjacency), {v: {} for v in range(3)}, max_supersteps=2
        )
        assert result.states[1]["received"] == [0]
        assert result.states[2]["received"] == [1]
        assert result.states[0]["received"] == [2]

    def test_local_vs_remote_metering(self):
        adjacency = {i: [(i + 1) % 8] for i in range(8)}
        engine = GiraphEngine(ClusterSpec(num_workers=4), seed=3)
        result = run_per_vertex(
            engine, EchoProgram(adjacency), {v: {} for v in range(8)}, max_supersteps=1
        )
        step = result.metrics.supersteps[0]
        assert step.messages_local + step.messages_remote == 8
        assert step.messages_remote > 0  # 4 workers: some edges cross

    def test_single_worker_all_local(self):
        adjacency = {i: [(i + 1) % 5] for i in range(5)}
        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=3)
        result = run_per_vertex(
            engine, EchoProgram(adjacency), {v: {} for v in range(5)}, max_supersteps=1
        )
        step = result.metrics.supersteps[0]
        assert step.messages_remote == 0
        assert step.messages_local == 5

    def test_deterministic_given_seed(self):
        adjacency = {i: [(i * 3 + 1) % 10] for i in range(10)}

        def run_once():
            engine = GiraphEngine(ClusterSpec(num_workers=3), seed=5)
            result = run_per_vertex(
                engine, EchoProgram(adjacency), {v: {} for v in range(10)}, max_supersteps=2
            )
            return [tuple(result.states[v]["received"]) for v in range(10)]

        assert run_once() == run_once()


class TestMaster:
    def test_master_halts_engine(self):
        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=0)
        master = CountingMaster(stop_at=3)
        result = run_per_vertex(
            engine, EchoProgram({}), {0: {}}, master=master, max_supersteps=100
        )
        assert result.halted_by_master
        assert result.supersteps_run == 3

    def test_aggregates_reach_master(self):
        class AggProgram:
            def phase_name(self, superstep):
                return "agg"

            def compute(self, ctx, vid, state, messages):
                ctx.aggregate("total", 0, vid)

        class Recorder:
            def __init__(self):
                self.seen = []

            def compute(self, superstep, aggregates):
                self.seen.append(aggregates.get("total"))
                if superstep >= 2:
                    return None
                return {}

        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        recorder = Recorder()
        run_per_vertex(
            engine, AggProgram(), {v: {} for v in range(4)},
            master=recorder, max_supersteps=10,
        )
        # Aggregates from superstep 0 are visible at superstep 1's master call.
        # ... as (keys, values): one int64 sum under key 0.
        keys, values = recorder.seen[1]
        assert (keys.tolist(), values.tolist()) == ([0], [6])

    def test_broadcasts_reach_vertices(self):
        class BroadcastReader:
            def phase_name(self, superstep):
                return "read"

            def compute(self, ctx, vid, state, messages):
                state.setdefault("seen", []).append(ctx.broadcasts.get("value"))

        class Broadcaster:
            def compute(self, superstep, aggregates):
                if superstep >= 2:
                    return None
                return {"value": superstep * 10}

        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=0)
        result = run_per_vertex(
            engine, BroadcastReader(), {0: {}}, master=Broadcaster(), max_supersteps=10
        )
        assert result.states[0]["seen"] == [0, 10]


class TestMergeAggregates:
    """``merge_aggregates`` — the barrier's fold of per-worker ``{name: (keys,
    values)}`` reports — against a plain dict fold of the same items."""

    #: per case, per worker, ``{name: [(key, value), ...]}``.
    CASES = {
        "one worker, repeated keys": [{"hist": [(7, 2), (3, 1), (7, 5)]}],
        "overlapping": [
            {"hist": [(3, 1), (9, 4)], "sizes": [(0, 10), (1, 12)]},
            {"hist": [(9, 6), (3, 2), (4, 1)], "sizes": [(1, 3), (0, 1)]},
            {"hist": [(4, 4)], "sizes": [(1, 1)]},
        ],
        "disjoint": [{"hist": [(key, 1 + key)]} for key in (5, 2, 8, 0)],
        "empty and absent": [
            {"hist": [], "moved": [(0, 4)]},
            {"moved": [(0, 0)]},
            {},
            {"hist": [(1 << 40, 2)], "moved": []},
        ],
        "nobody reports": [{}, {}],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_equals_a_dict_fold(self, case):
        from repro.distributed.backend import merge_aggregates

        workers = self.CASES[case]
        expected: dict = {}
        for report in workers:
            for name, items in report.items():
                bucket = expected.setdefault(name, {})
                for key, value in items:
                    bucket[key] = bucket.get(key, 0) + value
        parts = [
            {
                name: (
                    np.array([key for key, _ in items], dtype=np.int64),
                    np.array([value for _, value in items], dtype=np.int64),
                )
                for name, items in report.items()
            }
            for report in workers
        ]
        merged = merge_aggregates(parts)
        assert merged.keys() == expected.keys()
        for name, (keys, values) in merged.items():
            assert keys.dtype == values.dtype == np.int64
            assert keys.tolist() == sorted(expected[name])
            assert dict(zip(keys.tolist(), values.tolist())) == expected[name]
        # Folding the fold changes nothing (a worker pre-reduces its own calls).
        again = merge_aggregates([merged])
        for name in merged:
            for ours, theirs in zip(merged[name], again[name], strict=True):
                assert np.array_equal(ours, theirs)


VALUE_SCHEMA = MessageSchema("value", (("v", "<f8"),))


class FanInProgram:
    """Batch program: every vertex but 0 sends 1.0 to vertex 0 at superstep
    0; vertex 0's worker totals what arrives at superstep 1."""

    def phase_name(self, superstep):
        return "fanin"

    def create_partition(self, worker_id, vids, graph):
        return {"vids": vids, "total": 0.0}

    def compute_partition(self, ctx, partition, inbox):
        if ctx.superstep == 0:
            senders = partition["vids"][partition["vids"] != 0]
            ctx.send_batch(
                MessageBatch(
                    VALUE_SCHEMA, np.zeros(senders.size, dtype=np.int64),
                    {"v": np.ones(senders.size)},
                )
            )
        else:
            partition["total"] += sum(float(b.cols["v"].sum()) for b in inbox)

    def collect_states(self, partition):
        return partition["total"]

    def partition_nbytes(self, partition):
        return partition["vids"].nbytes


class TestCombiner:
    def test_sum_combiner_reduces_messages(self):
        def run(combiner):
            engine = GiraphEngine(ClusterSpec(num_workers=2), seed=1)
            engine.load(9)
            return engine.run(FanInProgram(), max_supersteps=2, combiner=combiner)

        plain = run(None)
        combined = run(SumCombiner())
        assert sum(plain.states) == sum(combined.states) == 8.0
        assert (
            combined.metrics.supersteps[0].total_messages
            < plain.metrics.supersteps[0].total_messages
        )

    def test_sum_combiner_keeps_integer_sums_exact(self):
        """Two 2**53 + 1 values to one destination: a float64 scratch would
        round the sum (regression: combine_batch cast every column)."""
        schema = MessageSchema("count", (("n", "<i8"), ("x", "<f8")))
        big = 2**53 + 1
        batch = MessageBatch(
            schema,
            np.array([4, 4, 7]),
            {"n": np.array([big, big, 5], dtype="<i8"), "x": np.array([0.5, 0.25, 2.0])},
        )
        (combined,) = SumCombiner().combine_batch(batch)
        assert combined.dst.tolist() == [4, 7]
        assert combined.cols["n"].dtype == np.dtype("<i8")
        assert combined.cols["n"].tolist() == [2 * big, 5]
        assert combined.cols["x"].tolist() == [0.75, 2.0]


class TestAccounting:
    def test_memory_tracked(self):
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=1)
        result = run_per_vertex(
            engine, EchoProgram({}), {v: {"blob": np.zeros(100)} for v in range(4)}, max_supersteps=1
        )
        assert result.metrics.peak_worker_memory() >= 800  # at least one blob

    def test_modeled_time_positive(self):
        adjacency = {i: [(i + 1) % 6] for i in range(6)}
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=1)
        result = run_per_vertex(
            engine, EchoProgram(adjacency), {v: {} for v in range(6)}, max_supersteps=2
        )
        assert result.metrics.modeled_seconds(CostModel()) > 0
        assert result.metrics.modeled_total_machine_seconds(CostModel()) == (
            pytest.approx(2 * result.metrics.modeled_seconds(CostModel()))
        )

    def test_phase_grouping(self):
        engine = GiraphEngine(ClusterSpec(num_workers=1), seed=1)
        result = run_per_vertex(engine, EchoProgram({}), {0: {}}, max_supersteps=3)
        assert set(result.metrics.by_phase()) == {"step0", "step1", "step2"}


class TestActiveVertices:
    """active_vertices counts vertices that computed and did work — not
    just vertices with non-empty mailboxes (regression: superstep 0 read 0
    even though every vertex ran and sent)."""

    def test_superstep0_senders_are_active(self):
        adjacency = {i: [(i + 1) % 6] for i in range(6)}
        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=1)
        result = run_per_vertex(
            engine, EchoProgram(adjacency), {v: {} for v in range(6)}, max_supersteps=2
        )
        assert result.metrics.supersteps[0].active_vertices == 6
        assert result.metrics.supersteps[1].active_vertices == 6  # receivers

    def test_aggregating_without_messages_is_active(self):
        class AggOnly:
            def phase_name(self, superstep):
                return "agg"

            def compute(self, ctx, vid, state, messages):
                ctx.aggregate("seen", 0, 1)

        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        result = run_per_vertex(
            engine, AggOnly(), {v: {} for v in range(5)}, max_supersteps=1
        )
        assert result.metrics.supersteps[0].active_vertices == 5

    def test_idle_vertices_are_inactive(self):
        class Idle:
            def phase_name(self, superstep):
                return "idle"

            def compute(self, ctx, vid, state, messages):
                pass

        engine = GiraphEngine(ClusterSpec(num_workers=2), seed=0)
        result = run_per_vertex(
            engine, Idle(), {v: {} for v in range(5)}, max_supersteps=1
        )
        assert result.metrics.supersteps[0].active_vertices == 0


class TestCounterRandomArray:
    def test_matches_scalar_bitwise(self):
        vids = np.array([0, 1, 7, 123456, 2**31, 999_999_999])
        for superstep in (0, 3, 17):
            for draw in (0, 1, 5):
                vector = counter_random_array(42, superstep, vids, draw)
                scalar = [counter_random(42, superstep, int(v), draw) for v in vids]
                assert vector.tolist() == scalar

    def test_uniform_range(self):
        draws = counter_random_array(7, 2, np.arange(1000))
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert 0.4 < draws.mean() < 0.6


PAIR_SCHEMA = MessageSchema("pair", (("a", "<i4"), ("b", "<f8")))
RAGGED_SCHEMA = MessageSchema(
    "ragged", (("id", "<i8"),), entry_fields=(("val", "<i4"),)
)


class TestMessageBatch:
    def test_fixed_schema_sizes(self):
        batch = MessageBatch(
            PAIR_SCHEMA,
            np.array([3, 5, 5]),
            {"a": np.array([1, 2, 3], dtype=np.int32), "b": np.zeros(3)},
        )
        assert len(batch) == 3
        assert batch.per_message_nbytes().tolist() == [12.0, 12.0, 12.0]
        assert batch.nbytes == 36

    def test_variable_entries_meter_by_dtype(self):
        batch = MessageBatch(
            RAGGED_SCHEMA,
            np.array([0, 1]),
            {"id": np.array([10, 11])},
            entry_start=np.array([0, 2]),
            entry_len=np.array([2, 3]),
            entries={"val": np.arange(5, dtype=np.int32)},
        )
        # 8-byte header + 4 bytes per entry.
        assert batch.per_message_nbytes().tolist() == [16.0, 20.0]
        positions, lengths = batch.entry_positions(np.array([1, 0]))
        assert positions.tolist() == [2, 3, 4, 0, 1]
        assert lengths.tolist() == [3, 2]

    def test_schema_measure_matches_batch(self):
        from repro.distributed_shp import NDATA_SCHEMA

        batch = MessageBatch(
            NDATA_SCHEMA,
            np.array([0]),
            {"query": np.array([4]), "weight": np.array([1.0])},
            entry_start=np.array([0]),
            entry_len=np.array([2]),
            entries={
                "bucket": np.array([0, 2], dtype=np.int32),
                "count": np.array([1, 3], dtype=np.int32),
            },
        )
        expected = NDATA_SCHEMA.fixed_nbytes + 2 * NDATA_SCHEMA.entry_nbytes
        assert expected == batch.nbytes == 16 + 2 * 8

    def test_split_routes_rows_and_shares_pool(self):
        batch = MessageBatch(
            RAGGED_SCHEMA,
            np.array([0, 1, 2, 3]),
            {"id": np.arange(4)},
            entry_start=np.array([0, 0, 2, 2]),
            entry_len=np.array([2, 2, 1, 1]),
            entries={"val": np.arange(3, dtype=np.int32)},
        )
        groups = np.array([1, 0, 1, 0])
        parts = batch.split(groups, 2)
        assert sorted(parts) == [0, 1]
        assert parts[0].dst.tolist() == [1, 3]
        assert parts[1].dst.tolist() == [0, 2]
        assert parts[0].entries["val"] is batch.entries["val"]  # shared pool

    def test_misaligned_entry_arrays_rejected(self):
        with pytest.raises(ValueError, match="entry_len"):
            MessageBatch(
                RAGGED_SCHEMA,
                np.array([0, 1]),
                {"id": np.array([1, 2])},
                entry_start=np.array([0, 1]),
                entry_len=np.array([1]),
                entries={"val": np.arange(2, dtype=np.int32)},
            )

    def test_combiner_resolution_one_code_path(self):
        """resolve_combiner is the one gate: Combiner instances (and None)
        pass through, a Combiner that never implemented ``combine_batch``
        fails loudly when used, anything else is a TypeError."""
        from repro.distributed.backend import resolve_combiner
        from repro.distributed.messages import Combiner
        from repro.distributed_shp import ShpDeltaCombiner

        for ok in (SumCombiner(), ShpDeltaCombiner()):
            assert resolve_combiner(ok) is ok
        assert resolve_combiner(None) is None

        with pytest.raises(TypeError, match="Combiner"):
            resolve_combiner(object())

        batch = MessageBatch(PAIR_SCHEMA, np.array([1]), {"a": np.zeros(1), "b": np.zeros(1)})
        with pytest.raises(NotImplementedError):
            Combiner().combine_batch(batch)

    def test_compact_deduplicates_shared_rows(self):
        pool = np.arange(10, dtype=np.int32)
        batch = MessageBatch(
            RAGGED_SCHEMA,
            np.array([0, 1, 2]),
            {"id": np.arange(3)},
            entry_start=np.array([4, 4, 8]),
            entry_len=np.array([3, 3, 2]),
            entries={"val": pool},
        )
        compacted = batch.compact()
        assert compacted.entries["val"].tolist() == [4, 5, 6, 8, 9]
        # Logical content identical message by message.
        for i in range(3):
            pos_a, _ = batch.entry_positions(np.array([i]))
            pos_b, _ = compacted.entry_positions(np.array([i]))
            assert batch.entries["val"][pos_a].tolist() == (
                compacted.entries["val"][pos_b].tolist()
            )
        assert np.array_equal(
            batch.per_message_nbytes(), compacted.per_message_nbytes()
        )


class TestSizeof:
    @pytest.mark.parametrize(
        "payload,expected",
        [
            (None, 1),
            (5, 8),
            (3.14, 8),
            ((1, 2), 8 + 16),
            ({"a": 1}, 8 + 1 + 8),
            ("abc", 3),
        ],
    )
    def test_sizes(self, payload, expected):
        assert sizeof_payload(payload) == expected

    def test_ndarray_size(self):
        assert sizeof_payload(np.zeros(10, dtype=np.float64)) == 80
