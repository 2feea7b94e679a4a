"""S3's activity rule: a data vertex whose inputs did not change keeps its
proposal (``SHPColumnarProgram._stale_rows``).

Three things are pinned here, none of which final-assignment parity can see:

* **the rule is safe** — production and the full-recompute reference
  (``oracles.full_recompute``: the same kernel, every vertex stale) are
  driven superstep by superstep and their ``gain`` / ``target`` / ``bin``
  columns are bitwise-equal after *every* S3, over every kernel variant
  and on the graph shapes the rule is most likely to get wrong;
* **the rule is alive** — exact per-cycle recompute counts on one seeded
  graph, equal on ``sim`` / ``mp`` / ``rpc``, all of ``|D|`` on the first
  cycle of each level and well under the full-recompute total overall
  (a rule that marks everything stale passes every parity test);
* **the rule is a superset** — whatever the reference changes between two
  cycles was in production's stale set.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles.full_recompute import FullRecomputeProgram
from oracles.rebuilt_tables import RebuiltTablesProgram
from repro import SHPConfig
from repro.core import balanced_random_assignment
from repro.core.histograms import GainBinning
from repro.distributed import ClusterSpec, GiraphEngine, RpcBackend, SimulatedBackend
from repro.distributed.backend import merge_aggregates
from repro.distributed.worker import WorkerHost
from repro.distributed_shp import DistributedSHP, SHPColumnarProgram
from repro.distributed_shp.combiners import ShpDeltaCombiner
from repro.distributed_shp.job import _SHPMaster
from repro.hypergraph import BipartiteGraph, community_bipartite

WORKERS = 3
PROPOSAL = ("gain", "target", "bin")


def _drive(program_cls, graph, config, mode, combiner=False):
    """One ``sim`` job, a superstep at a time: yields ``(superstep, program,
    {wid: partition}, barrier reports)`` after each barrier.  The master
    half is the real one (``_SHPMaster``, ``Backend._plan`` / ``_commit``)."""
    binning = GainBinning(num_bins=config.num_bins, min_gain=config.min_gain)
    start_k = 2 if mode == "2" else config.k
    initial = balanced_random_assignment(
        graph.num_data, start_k, np.random.default_rng(config.seed)
    )
    program = program_cls(graph.num_data, config, binning, mode, initial)
    budget = config.iterations_per_bisection if mode == "2" else config.max_iterations
    master = _SHPMaster(graph.num_data, config, binning, mode, budget)
    engine = GiraphEngine(ClusterSpec(num_workers=WORKERS), seed=config.seed)
    engine.load(graph.num_data + graph.num_queries, graph=graph)
    backend = SimulatedBackend()
    shared, snapshots = backend._plan(
        engine, program, ShpDeltaCombiner() if combiner else None
    )
    host = WorkerHost()
    host.init(shared, dict(enumerate(snapshots)))
    partitions = {wid: partition for wid, (_, partition) in host.workers.items()}
    aggregates: dict = {}
    for superstep in itertools.count():
        broadcasts = master.compute(superstep, aggregates)
        if broadcasts is None:
            return
        results = backend._commit(
            host.step(superstep, broadcasts, dict(enumerate(backend._inboxes)))
        )
        aggregates = merge_aggregates([r.aggregates for r in results])
        yield superstep, program, partitions, results


def _assert_same_proposals_after_every_s3(graph, config, mode, combiner=False) -> int:
    """Lockstep production vs full recompute, and vs the slot tables'
    from-scratch rebuild (``oracles.rebuilt_tables`` audits itself around
    every S2 and S3); returns the S3s compared."""
    compared = 0
    for (superstep, _, parts, reports), (_, _, ref_parts, ref_reports), (_, audited, _, _) in zip(
        _drive(SHPColumnarProgram, graph, config, mode, combiner),
        _drive(FullRecomputeProgram, graph, config, mode, combiner),
        _drive(RebuiltTablesProgram, graph, config, mode, combiner),
        strict=True,
    ):
        # Two audits around each S2 and each S3, on every worker.
        assert audited.checks == 2 * WORKERS * ((superstep + 3) // 4 + (superstep + 2) // 4)
        # Logical meters price the per-vertex execution, not what ran.
        for report, ref in zip(reports, ref_reports):
            assert (report.ops, report.active) == (ref.ops, ref.active), superstep
        if superstep % 4 != 2:
            continue
        compared += 1
        for wid, part in parts.items():
            assert not part.stale.any()
            for name in PROPOSAL:
                ours, theirs = getattr(part, name), getattr(ref_parts[wid], name)
                assert ours.dtype == theirs.dtype
                assert ours.tobytes() == theirs.tobytes(), (superstep, wid, name)
    return compared


def _weighted(graph: BipartiteGraph, seed: int = 11) -> BipartiteGraph:
    weights = np.random.default_rng(seed).uniform(0.5, 4.0, graph.num_queries)
    return dataclasses.replace(graph, query_weights=np.round(weights, 3), name="weighted")


@pytest.fixture(scope="module")
def graph():
    return community_bipartite(260, 320, 1500, num_communities=8, mixing=0.1, seed=4)


#: name -> (mode, k, combiner, query-weighted, extra SHPConfig fields)
CELLS = {
    "2": ("2", 4, False, False, {}),
    "2-combiner": ("2", 4, True, False, {}),
    "2-weighted": ("2", 4, False, True, {}),
    "2-move-penalty": ("2", 4, False, False, {"move_penalty": 0.05}),
    # splits_ahead stays 1.0 over the descent: only level_k tells S3 that
    # the broadcast it computed under is gone.
    "2-current-pfanout": ("2", 8, True, False, {"use_final_pfanout": False}),
    "k-dense": ("k", 4, False, False, {}),
    "k-dense-8-weighted-combiner": ("k", 8, True, True, {}),
    "k-sparse-16": ("k", 16, False, False, {}),
    "k-sparse-16-penalty-combiner": ("k", 16, True, True, {"move_penalty": 0.05}),
}


@pytest.mark.parametrize("cell", CELLS)
def test_proposals_match_full_recompute_after_every_s3(graph, cell):
    mode, k, combiner, weighted, extra = CELLS[cell]
    config = SHPConfig(
        k=k, seed=5, iterations_per_bisection=6, max_iterations=8,
        swap_mode="bernoulli", **extra,
    )
    compared = _assert_same_proposals_after_every_s3(
        _weighted(graph) if weighted else graph, config, mode, combiner
    )
    # Mode "2" descends at least once; every cell outlives its first,
    # all-stale cycle.
    assert compared >= (8 if mode == "2" else 4)


def test_a_changed_broadcast_makes_everyone_stale(graph):
    """Under the job's master the broadcast changes only with a descent,
    which flags every vertex itself; the kernel does not rely on that."""
    config = SHPConfig(k=4, seed=5, iterations_per_bisection=6, swap_mode="bernoulli")
    for superstep, _, parts, _ in _drive(SHPColumnarProgram, graph, config, "2"):
        if superstep == 2:
            break
    part = parts[0]
    splits, level_k = part.computed_under
    assert (splits, level_k) == (2.0, 2) and part.dvids.size > 0
    assert SHPColumnarProgram._stale_rows(part, [], (splits, level_k)).size == 0
    for changed in ((splits, 4), (1.0, level_k)):
        rows = SHPColumnarProgram._stale_rows(part, [], changed)
        assert np.array_equal(rows, np.arange(part.dvids.size))
        assert part.computed_under == changed and not part.stale.any()


# ----------------------------------------------------------------------
# The shapes the rule is most likely to get wrong
# ----------------------------------------------------------------------

@st.composite
def awkward_instance(draw):
    """A small graph built around the engine's vertex placement.

    Always present: data vertices of degree 0 (a mover among them is stale
    with no message to say so), a query whose pins all sit on one worker
    that does not own it, a query owned by the worker that hosts all its
    pins (the held self-hop is the only delivery), and ``k > |D| / 2``.
    """
    seed = draw(st.integers(min_value=0, max_value=2**16))
    num_data = draw(st.integers(min_value=6, max_value=14))
    num_queries = draw(st.integers(min_value=6, max_value=12))
    engine = GiraphEngine(ClusterSpec(num_workers=WORKERS), seed=seed)
    engine.load(num_data + num_queries)
    placement = engine._worker_of_array
    data_on = [np.flatnonzero(placement[:num_data] == w) for w in range(WORKERS)]
    home = int(np.argmax([ids.size for ids in data_on]))
    query_worker = placement[num_data:]
    owned = np.flatnonzero(query_worker == home)
    foreign = np.flatnonzero(query_worker != home)
    assume(data_on[home].size >= 3 and owned.size and foreign.size)

    isolated = set(draw(st.sets(st.sampled_from(range(num_data)), min_size=1, max_size=3)))
    local = [int(d) for d in data_on[home] if int(d) not in isolated]
    assume(len(local) >= 2)
    special = {int(owned[0]): local, int(foreign[0]): local[:2]}
    qs, ds = [], []
    for q, pins in special.items():
        qs += [q] * len(pins)
        ds += pins
    connectable = [d for d in range(num_data) if d not in isolated]
    free_queries = [q for q in range(num_queries) if q not in special]
    for _ in range(draw(st.integers(min_value=4, max_value=30))):
        qs.append(draw(st.sampled_from(free_queries)))
        ds.append(draw(st.sampled_from(connectable)))
    weights = None
    if draw(st.booleans()):
        weights = np.array(
            draw(st.lists(st.sampled_from([0.5, 1.0, 2.5]), min_size=num_queries,
                          max_size=num_queries))
        )
    graph = BipartiteGraph.from_edges(
        qs, ds, num_queries=num_queries, num_data=num_data, query_weights=weights
    )
    mode = draw(st.sampled_from(["2", "k"]))
    if mode == "2":
        k = 4 if num_data < 8 else 8
    else:
        k = draw(st.integers(min_value=num_data // 2 + 1, max_value=num_data))
    config = SHPConfig(
        k=k, seed=seed, iterations_per_bisection=4, max_iterations=5,
        swap_mode="bernoulli", epsilon=draw(st.sampled_from([0.05, 0.5])),
        move_penalty=draw(st.sampled_from([0.0, 0.01])),
    )
    return graph, config, mode, draw(st.booleans())


@settings(max_examples=40, deadline=None)
@given(awkward_instance())
def test_awkward_shapes_match_full_recompute(instance):
    graph, config, mode, combiner = instance
    assert _assert_same_proposals_after_every_s3(graph, config, mode, combiner) >= 1


# ----------------------------------------------------------------------
# The mechanism is alive
# ----------------------------------------------------------------------

#: ``recomputed_history`` of the job below: every vertex on the first cycle
#: of each of the two levels, nobody in the cycle after one that moved
#: nothing, 47.1% of ``cycles x |D|`` overall.
RECOMPUTED = [
    1000, 979, 961, 856, 668, 633, 600, 403, 321, 308, 167, 89, 86, 0,
    1000, 981, 976, 971, 968, 957, 944, 910, 828, 803, 695, 612, 445, 369,
    305, 322, 284, 152, 95, 90, 94, 88, 98, 91, 93, 107, 108, 88, 89, 88,
]


@pytest.fixture(scope="module")
def sparse_graph():
    return community_bipartite(1500, 1000, 4500, num_communities=8, mixing=0.02, seed=9)


def _sparse_config() -> SHPConfig:
    return SHPConfig(k=4, seed=13, iterations_per_bisection=30, swap_mode="bernoulli")


@pytest.mark.parametrize("backend", ["sim", "mp", "rpc"])
def test_recompute_counts_are_pinned_on_every_backend(sparse_graph, backend):
    if backend == "rpc":
        backend = RpcBackend(step_timeout=60.0)
    run = DistributedSHP(
        _sparse_config(), cluster=ClusterSpec(num_workers=WORKERS), mode="2",
        backend=backend, combiner=True,
    ).run(sparse_graph)
    assert run.recomputed_history == RECOMPUTED
    assert len(run.recomputed_history) == len(run.moved_history) == run.cycles
    num_data = sparse_graph.num_data
    # A level opens with every query re-broadcasting (S2 of that cycle
    # carries one message per pin) and so with every vertex stale.
    steps = run.metrics.supersteps
    level_starts = [
        cycle for cycle in range(run.cycles)
        if steps[4 * cycle + 1].total_messages == sparse_graph.num_edges
    ]
    assert level_starts == [0, 14]
    assert all(run.recomputed_history[cycle] == num_data for cycle in level_starts)
    assert 0 < sum(run.recomputed_history) < 0.6 * run.cycles * num_data


def test_whatever_full_recompute_changes_was_stale(sparse_graph):
    """Superset property: between two cycles the reference changes the
    proposal of no vertex that production left out of its stale set."""

    class Recording(SHPColumnarProgram):
        """The production rule, keeping each S3's stale vertex ids."""

        def __init__(self, *args):
            super().__init__(*args)
            self.stale_vids: list[np.ndarray] = []

        def _stale_rows(self, part, inbox, broadcast):
            rows = super()._stale_rows(part, inbox, broadcast)
            self.stale_vids.append(part.dvids[rows])
            return rows

    previous: dict[int, dict] = {}
    cycles, skipped = 0, 0
    for (superstep, program, _, _), (_, _, ref_parts, _) in zip(
        _drive(Recording, sparse_graph, _sparse_config(), "2", True),
        _drive(FullRecomputeProgram, sparse_graph, _sparse_config(), "2", True),
        strict=True,
    ):
        if superstep % 4 != 2:
            continue
        stale = np.concatenate(program.stale_vids[-WORKERS:])
        assert stale.size == RECOMPUTED[cycles]
        for wid, ref in ref_parts.items():
            now = {name: getattr(ref, name).copy() for name in PROPOSAL}
            if wid in previous:
                changed = np.zeros(ref.dvids.size, dtype=bool)
                for name in PROPOSAL:
                    changed |= now[name] != previous[wid][name]
                assert np.isin(ref.dvids[changed], stale).all(), (superstep, wid)
                skipped += int(np.count_nonzero(~np.isin(ref.dvids, stale)))
            previous[wid] = now
        cycles += 1
    assert cycles == len(RECOMPUTED) and skipped > 0


# ----------------------------------------------------------------------
# Cells are the interface: what the master broadcasts and who moves on it
# ----------------------------------------------------------------------

#: cell -> SHA-256 over every cycle's ``probs`` (int64 keys ascending, then
#: float64 probabilities) and each worker's S4 movers (ascending worker id).
#: Captured at the last commit whose aggregates and broadcasts were dicts
#: of ``(src, dst, bin)`` tuples, by encoding its keys with the same formula.
PARENT_SHA = {
    "2": (13, "d45cadfc0527ba99a7ae9ca15374e8fb64a564a9be80da7339b6cb95d90ad9f9"),
    "k-dense": (8, "4aa7aa06e11607aaead28efefdbcd7f12edfd464fa1ddf85c7227f66bfa8eeb7"),
}


@pytest.mark.parametrize("cell", PARENT_SHA)
def test_master_probs_and_s4_movers_are_bitwise_the_dict_era(graph, monkeypatch, cell):
    import hashlib

    mode, k, combiner, _, extra = CELLS[cell]
    config = SHPConfig(
        k=k, seed=5, iterations_per_bisection=6, max_iterations=8,
        swap_mode="bernoulli", **extra,
    )
    broadcast = []
    real_match = _SHPMaster._match
    monkeypatch.setattr(
        _SHPMaster, "_match",
        lambda self, aggregates: broadcast.append(real_match(self, aggregates)) or broadcast[-1],
    )
    digest, cycles = hashlib.sha256(), 0
    for superstep, _, parts, _ in _drive(SHPColumnarProgram, graph, config, mode, combiner):
        if superstep % 4 != 3:
            continue
        keys, probabilities = broadcast[-1]
        assert keys.dtype == np.int64 and probabilities.dtype == np.float64
        assert np.all(np.diff(keys) > 0) and np.all(probabilities > 0)
        digest.update(keys.tobytes())
        digest.update(probabilities.tobytes())
        for wid in sorted(parts):
            digest.update(parts[wid].dvids[parts[wid].has_delta].astype(np.int64).tobytes())
        cycles += 1
    assert (cycles, digest.hexdigest()) == PARENT_SHA[cell]


# ----------------------------------------------------------------------
# The cache is a table that is updated, never rebuilt
# ----------------------------------------------------------------------

def _first_s3(graph, config, mode):
    """Drive to the job's first S3; returns ``(program, {wid: partition},
    {wid: that S3's inbox})``."""

    class Capturing(RebuiltTablesProgram):
        def __init__(self, *args):
            super().__init__(*args)
            self.inboxes: dict[int, list] = {}

        def _s3_propose(self, ctx, part, inbox):
            self.inboxes[ctx.worker_id] = inbox
            super()._s3_propose(ctx, part, inbox)

    for superstep, program, parts, _ in _drive(Capturing, graph, config, mode):
        if superstep == 2:
            return program, parts, program.inboxes


def _table_state(part) -> dict:
    """Every slot of the cache by ``(query id, pair)``: counts and values."""
    table = part.cache
    return {
        (int(part.cache_qids[key >> 31]), key & 0x7FFFFFFF): (
            table.sides[2 * slot:2 * slot + 2].tolist(),
            [column[2 * slot:2 * slot + 2].tobytes() for column in table.values],
        )
        for slot, key in enumerate(table.keys.tolist())
    }


@pytest.mark.parametrize("mode", ["2", "k"])
def test_a_late_first_broadcast_is_inserted_not_rebuilt(graph, monkeypatch, mode):
    """A query that first sends in a level's *second* cycle (impossible
    under the job's master, so the inbox is hand-built) goes through the
    one insertion routine: its row and slots appear, every other slot keeps
    its counts and values, and the partition ends up exactly where
    receiving everything at once puts it."""
    from repro.distributed_shp.columnar import SlotTable

    config = SHPConfig(k=4, seed=5, iterations_per_bisection=6, max_iterations=8,
                       swap_mode="bernoulli")
    program, parts, inboxes = _first_s3(graph, config, mode)
    wid = max(parts, key=lambda w: parts[w].dvids.size)
    whole, inbox = parts[wid], inboxes[wid]
    # A query in the middle of the cached ids: rows and slots after it move.
    late = int(whole.cache_qids[whole.cache_qids.size // 2])
    early = [b.select(np.flatnonzero(b.cols["query"] != late)) for b in inbox]
    rest = [b.select(np.flatnonzero(b.cols["query"] == late)) for b in inbox]
    assert sum(len(b) for b in rest) > 0

    part = program.create_partition(wid, np.concatenate([whole.dvids, whole.qvids]), graph)
    program.received[id(part)] = {}
    program._tables(part, whole.computed_under[0])
    part.computed_under = whole.computed_under
    assert np.array_equal(part.bucket, whole.bucket)
    first_rows = program._receive(part, early)
    assert late not in part.cache_qids and first_rows.size == whole.cache_qids.size - 1
    before = _table_state(part)

    built = []
    real_init = SlotTable.__init__
    monkeypatch.setattr(
        SlotTable, "__init__", lambda self, *a, **kw: built.append(self) or real_init(self, *a, **kw)
    )
    late_rows = program._receive(part, rest)
    assert not built, "the late row must be inserted into the table, not a new table built"
    assert part.cache_qids[late_rows].tolist() == [late]
    after = _table_state(part)
    assert {key: after[key] for key in before} == before
    assert {qid for qid, _ in after.keys() - before.keys()} == {late}
    # ... and the stale set of the late row is the row's local vertices.
    part.stale[:] = False
    stale = SHPColumnarProgram._stale_rows(part, late_rows, part.computed_under)
    assert np.array_equal(np.sort(np.concatenate([b.dst for b in rest])), part.dvids[stale])

    assert _table_state(part) == _table_state(whole)
    for name in ("cache_qids", "cache_weight", "cache_len", "pin_cell", "row_ptr", "weight_sum"):
        assert getattr(part, name).tobytes() == getattr(whole, name).tobytes(), name
    program.received[id(part)] = program.received[id(whole)]
    program.check_cache(part)


def test_a_changed_splits_broadcast_revalues_every_cell(graph):
    """Under the job's master ``splits_ahead`` changes only with a descent,
    which empties the cache first; the kernel does not rely on that."""
    from repro.distributed.engine import BatchContext

    config = SHPConfig(k=4, seed=5, iterations_per_bisection=6, swap_mode="bernoulli")
    program, parts, _ = _first_s3(graph, config, "2")
    part = parts[0]
    splits, level_k = part.computed_under
    old = [column.copy() for column in part.cache.values]
    ctx = BatchContext(superstep=6, worker_id=0, seed=config.seed,
                       broadcasts={"splits_ahead": splits / 2, "level_k": level_k})
    SHPColumnarProgram._s3_propose(program, ctx, part, [])
    assert part.computed_under == (splits / 2, level_k)
    program.check_cache(part)  # every value, against the new scalar closures
    assert all(not np.array_equal(was, now) for was, now in zip(old, part.cache.values))
    assert ctx._aggregates and not part.stale.any()
