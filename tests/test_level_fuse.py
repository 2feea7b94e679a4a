"""Fused-vs-loop parity and unit tests for the level-fused SHP-2 engine.

The fused engine must be *semantically* the same algorithm as the per-group
reference (``oracles.shp2_loop``, the literal recursion): identical initial
states per seed, identical capacity and convergence rules, identical gain
values (up to float association).  The
matcher RNG stream is per-level instead of per-group, so assignments are
bitwise identical whenever a level has at most one refinable group (k ≤ 3)
and statistically equivalent otherwise — which is what the parity grid pins.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.level_kernels import sibling_move_gains, update_bucket_counts
from oracles.shp2_loop import shp_2_loop
from repro import SHPConfig, shp_2
from repro.api.registry import MATCHERS
from repro.core import LevelGroup, SwapDecision, level_fuse, refine_level_fused
from repro.core.gains import move_gains_dense
from repro.core.refinement import build_objective
from repro.hypergraph import BipartiteGraph, community_bipartite
from repro.objectives import (
    PFanoutObjective,
    ScaledPFanout,
    average_fanout,
    bucket_counts,
)


def random_bipartite(
    seed: int,
    num_queries: int = 400,
    num_data: int = 600,
    num_edges: int = 3000,
    weighted: bool = False,
) -> BipartiteGraph:
    rng = np.random.default_rng(seed)
    q = rng.integers(0, num_queries, num_edges)
    d = rng.integers(0, num_data, num_edges)
    query_weights = rng.uniform(0.2, 5.0, num_queries) if weighted else None
    data_weights = rng.uniform(0.5, 1.5, num_data) if weighted else None
    return BipartiteGraph.from_edges(
        q, d, num_queries=num_queries, num_data=num_data,
        query_weights=query_weights, data_weights=data_weights,
    )


def random_labels(rng: np.random.Generator, num_data: int, num_labels: int) -> np.ndarray:
    return rng.integers(0, num_labels, num_data).astype(np.int64)


class TestFusedLoopParity:
    """Property grid over k ∈ {2, 3, 8, 17, 64}, weighted and unweighted."""

    KS = (2, 3, 8, 17, 64)
    SEEDS = (0, 1, 2)
    EPSILON = 0.05

    def _run_pair(self, graph, k, seed):
        loop = shp_2_loop(graph, k, seed=seed)
        fused = shp_2(graph, k, seed=seed)
        return loop, fused

    @pytest.mark.parametrize("weighted", [False, True])
    def test_parity_grid(self, weighted):
        deltas = []
        for k in self.KS:
            for seed in self.SEEDS:
                graph = random_bipartite(100 + seed, weighted=weighted)
                loop, fused = self._run_pair(graph, k, seed)
                for result in (loop, fused):
                    assert result.assignment.shape == (graph.num_data,)
                    assert result.assignment.min() >= 0
                    assert result.assignment.max() < k
                if not weighted:
                    # The ε-capacity bound both paths enforce, measured against
                    # the global per-leaf target (+1 for the deficit relax).
                    bound = max(
                        int(np.floor((1 + self.EPSILON) * graph.num_data / k)),
                        int(np.ceil(graph.num_data / k)),
                    ) + 1
                    for result in (loop, fused):
                        sizes = np.bincount(result.assignment, minlength=k)
                        assert sizes.max() <= bound
                f_loop = average_fanout(graph, loop.assignment, k)
                f_fused = average_fanout(graph, fused.assignment, k)
                if k <= 3:
                    # At most one refinable group per level: the matcher
                    # consumes the very same RNG stream, so the runs must
                    # agree bitwise, not just statistically.
                    assert np.array_equal(loop.assignment, fused.assignment)
                else:
                    deltas.append((f_fused - f_loop) / f_loop)
        deltas = np.asarray(deltas)
        # Per-case: the two RNG streams wander a little on 600-vertex graphs.
        assert np.abs(deltas).max() <= 0.10
        # Aggregate: fused is not systematically worse than the reference.
        assert deltas.mean() <= 0.02

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_parity_with_fully_pruned_trailing_vertex(self, seed):
        """Regression: a last vertex appearing only in single-pin queries is
        fully pruned for the level (empty trailing CSR row); the truncated
        segment sums this used to cause broke the exact k=2 parity."""
        rng = np.random.default_rng(77)
        num_data = 60
        hyperedges = [
            list(rng.choice(num_data - 1, size=4, replace=False)) for _ in range(80)
        ]
        hyperedges += [[num_data - 1]] * 3  # last vertex: single-pin queries only
        graph = BipartiteGraph.from_hyperedges(hyperedges, num_data=num_data)
        loop = shp_2_loop(graph, 2, seed=seed)
        fused = shp_2(graph, 2, seed=seed)
        assert np.array_equal(loop.assignment, fused.assignment)

    def test_fused_deterministic(self):
        graph = random_bipartite(7)
        a = shp_2(graph, 17, seed=3)
        b = shp_2(graph, 17, seed=3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_identical_initial_states(self):
        """Oracle and production must consume identical RNG draws for
        initialization: with zero refinement iterations the assignments coincide bitwise."""
        graph = random_bipartite(11)
        kwargs = dict(seed=5, iterations_per_bisection=0)
        loop = shp_2_loop(graph, 16, **kwargs)
        fused = shp_2(graph, 16, **kwargs)
        assert np.array_equal(loop.assignment, fused.assignment)

    @pytest.mark.parametrize("matcher", ["histogram", "uniform"])
    def test_both_matchers_supported(self, matcher):
        graph = random_bipartite(17)
        result = shp_2(graph, 8, seed=2, matcher=matcher)
        rng = np.random.default_rng(0)
        random_assign = rng.integers(0, 8, graph.num_data).astype(np.int32)
        assert average_fanout(graph, result.assignment, 8) < average_fanout(
            graph, random_assign, 8
        )

    def test_warm_start_fused(self):
        graph = random_bipartite(19)
        first = shp_2(graph, 8, seed=3)
        cfg = SHPConfig(k=8, seed=4, iterations_per_bisection=3)
        from repro import SHP2Partitioner

        warm = SHP2Partitioner(cfg).partition(graph, initial=first.assignment)
        f_first = average_fanout(graph, first.assignment, 8)
        f_warm = average_fanout(graph, warm.assignment, 8)
        assert f_warm <= f_first + 0.05


class TestSiblingGains:
    """The fused gain kernel against the dense reference kernel."""

    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_dense_gains_pfanout(self, weighted):
        graph = random_bipartite(23, num_queries=60, num_data=80, num_edges=400,
                                 weighted=weighted)
        rng = np.random.default_rng(5)
        num_labels = 6
        labels = random_labels(rng, graph.num_data, num_labels)
        counts = bucket_counts(graph, labels, num_labels)
        objective = PFanoutObjective(0.5)
        dense = move_gains_dense(graph, labels.astype(np.int32), counts, objective)
        vertex_ids = np.arange(graph.num_data, dtype=np.int64)
        gains = sibling_move_gains(graph, labels, counts, objective, vertex_ids)
        expected = dense[vertex_ids, labels ^ 1]
        np.testing.assert_allclose(gains, expected, atol=1e-9)

    def test_matches_dense_gains_scaled_pfanout(self):
        """Per-column splits_ahead: the gathered evaluation must index t."""
        graph = random_bipartite(29, num_queries=60, num_data=80, num_edges=400)
        rng = np.random.default_rng(6)
        num_labels = 6
        labels = random_labels(rng, graph.num_data, num_labels)
        counts = bucket_counts(graph, labels, num_labels)
        splits = np.array([4.0, 3.0, 2.0, 1.0, 5.0, 2.0])
        objective = ScaledPFanout(p=0.5, splits_ahead=splits)
        dense = move_gains_dense(graph, labels.astype(np.int32), counts, objective)
        vertex_ids = np.arange(graph.num_data, dtype=np.int64)
        gains = sibling_move_gains(graph, labels, counts, objective, vertex_ids)
        expected = dense[vertex_ids, labels ^ 1]
        np.testing.assert_allclose(gains, expected, atol=1e-9)

    def test_subset_of_vertices(self):
        graph = random_bipartite(31, num_queries=60, num_data=80, num_edges=400)
        rng = np.random.default_rng(7)
        labels = random_labels(rng, graph.num_data, 4)
        counts = bucket_counts(graph, labels, 4)
        objective = PFanoutObjective(0.5)
        subset = np.array([3, 17, 42, 79], dtype=np.int64)
        gains = sibling_move_gains(graph, labels, counts, objective, subset)
        all_gains = sibling_move_gains(
            graph, labels, counts, objective,
            np.arange(graph.num_data, dtype=np.int64),
        )
        np.testing.assert_allclose(gains, all_gains[subset])

    def test_trailing_edgeless_vertex_keeps_last_contribution(self):
        """Regression: segment-summing with a clipped reduceat dropped the
        final edge of the last non-empty vertex whenever trailing CSR rows
        were empty (e.g. vertices fully pruned by the single-pin drop)."""
        graph = BipartiteGraph.from_edges(
            np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1]),
            num_queries=2, num_data=3,
        )
        assert graph.d_indptr.tolist() == [0, 2, 4, 4]
        labels = np.array([0, 1, 0], dtype=np.int64)
        counts = bucket_counts(graph, labels, 2)
        objective = PFanoutObjective(0.5)
        dense = move_gains_dense(graph, labels.astype(np.int32), counts, objective)
        gains = sibling_move_gains(
            graph, labels, counts, objective,
            np.arange(graph.num_data, dtype=np.int64),
        )
        np.testing.assert_allclose(gains, dense[np.arange(3), labels ^ 1], atol=1e-12)

    def test_empty_subset(self):
        graph = random_bipartite(37, num_queries=20, num_data=30, num_edges=100)
        labels = np.zeros(graph.num_data, dtype=np.int64)
        counts = bucket_counts(graph, labels, 2)
        gains = sibling_move_gains(
            graph, labels, counts, PFanoutObjective(0.5),
            np.empty(0, dtype=np.int64),
        )
        assert gains.size == 0


class TestGroupedCounts:
    def test_grouped_matches_plain_bucket_counts(self):
        graph = random_bipartite(41, num_queries=50, num_data=70, num_edges=300)
        rng = np.random.default_rng(8)
        labels = random_labels(rng, graph.num_data, 5)
        # The dense |Q| x L layout the reference kernels read, against a
        # pin-by-pin count.
        expected = np.zeros((graph.num_queries, 5), dtype=np.int32)
        for q, d in zip(graph.q_of_edge.tolist(), graph.q_indices.tolist()):
            expected[q, labels[d]] += 1
        np.testing.assert_array_equal(bucket_counts(graph, labels, 5), expected)

    def test_incremental_update_matches_rebuild(self):
        graph = random_bipartite(43, num_queries=50, num_data=70, num_edges=300)
        rng = np.random.default_rng(9)
        num_labels = 6
        labels = random_labels(rng, graph.num_data, num_labels)
        counts = bucket_counts(graph, labels, num_labels)
        moved = rng.choice(graph.num_data, size=25, replace=False).astype(np.int64)
        old = labels[moved].copy()
        new = (old + 1 + rng.integers(0, num_labels - 1, moved.size)) % num_labels
        labels[moved] = new
        update_bucket_counts(counts, graph, moved, old, new)
        np.testing.assert_array_equal(
            counts, bucket_counts(graph, labels, num_labels)
        )

    def test_incremental_update_no_moves(self):
        graph = random_bipartite(47, num_queries=20, num_data=30, num_edges=100)
        labels = np.zeros(graph.num_data, dtype=np.int64)
        counts = bucket_counts(graph, labels, 2)
        before = counts.copy()
        update_bucket_counts(
            counts, graph, np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
        )
        np.testing.assert_array_equal(counts, before)


class TestCsrRowPositions:
    def test_positions_match_indptr_ranges(self):
        from repro.hypergraph.bipartite import csr_row_positions

        graph = random_bipartite(53, num_queries=40, num_data=50, num_edges=250)
        ids = np.array([0, 7, 7, 21, 49], dtype=np.int64)
        positions, lengths = csr_row_positions(graph.d_indptr, ids)
        expected = np.concatenate([
            np.arange(graph.d_indptr[v], graph.d_indptr[v + 1]) for v in ids
        ])
        np.testing.assert_array_equal(positions, expected)
        np.testing.assert_array_equal(
            lengths, graph.d_indptr[ids + 1] - graph.d_indptr[ids]
        )

    def test_empty(self, tiny_graph):
        from repro.hypergraph.bipartite import csr_row_positions

        positions, lengths = csr_row_positions(
            tiny_graph.d_indptr, np.empty(0, dtype=np.int64)
        )
        assert positions.size == 0 and lengths.size == 0


class TestRefineLevelFused:
    def test_small_groups_keep_initial_sides(self):
        graph = random_bipartite(59, num_queries=30, num_data=40, num_edges=150)
        side = np.array([0, 1], dtype=np.int32)
        group = LevelGroup(np.array([3, 4], dtype=np.int64), side, 1, 1)
        stats, converged = refine_level_fused(
            graph, SHPConfig(k=2), [group], 0.05, np.random.default_rng(0)
        )
        assert converged
        assert stats == []
        np.testing.assert_array_equal(group.final_side, side)

    def test_empty_level(self):
        graph = random_bipartite(61, num_queries=10, num_data=20, num_edges=50)
        stats, converged = refine_level_fused(
            graph, SHPConfig(k=2), [], 0.05, np.random.default_rng(0)
        )
        assert converged and stats == []

    def test_history_tracks_level_metrics(self):
        graph = random_bipartite(67)
        result = shp_2(graph, 8, seed=1, track_metrics="full")
        assert result.extra["num_levels"] == 3
        assert len(result.levels) == 3
        for level in result.levels:
            assert level, "every level must record at least one iteration"
            for stats in level:
                assert stats.objective_value is not None
                assert stats.fanout is not None


@contextlib.contextmanager
def registered_matcher(name, factory):
    MATCHERS.register(name)(factory)
    try:
        yield
    finally:
        # Registry has no unregister (production never needs one).
        for table in (MATCHERS._entries, MATCHERS._meta, MATCHERS._lookup):
            del table[name]


@pytest.fixture
def recorded_calls():
    """Registers matcher ``"recording"``: stores what it is asked, moves nothing."""
    calls = []

    class RecordingMatcher:
        def __init__(self, config):
            pass

        def decide_paired(self, src, gain, num_labels, sizes, caps, rng):
            calls.append((src.copy(), gain.copy()))
            return SwapDecision(move=np.zeros(src.size, dtype=bool))

    with registered_matcher("recording", RecordingMatcher):
        yield calls


@pytest.mark.parametrize("use_final_pfanout", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_fused_gains_match_reference(recorded_calls, weighted, use_final_pfanout):
    """The gain kernel that actually runs (pair-compact layout, pruned
    edges, rank space) against the dense-layout reference, vertex by vertex."""
    graph = community_bipartite(400, 600, 4000, num_communities=8, seed=3)
    rng = np.random.default_rng(12)
    if weighted:
        graph = dataclasses.replace(
            graph, query_weights=rng.uniform(0.2, 5.0, graph.num_queries)
        )
    # Four bisections with unequal spans over shuffled vertices; the last 50
    # vertices belong to no group (already-settled buckets of a real level).
    order = rng.permutation(graph.num_data)
    bounds = [0, 200, 290, 420, 550]
    spans = [(3, 2), (2, 1), (1, 1), (4, 3)]
    groups = [
        LevelGroup(
            np.sort(order[lo:hi]).astype(np.int64),
            rng.integers(0, 2, hi - lo).astype(np.int32),
            left, right,
        )
        for lo, hi, (left, right) in zip(bounds[:-1], bounds[1:], spans)
    ]
    config = SHPConfig(
        k=17, matcher="recording", iterations_per_bisection=1,
        use_final_pfanout=use_final_pfanout,
    )
    refine_level_fused(graph, config, groups, 0.05, np.random.default_rng(0))
    (src, gain), = recorded_calls

    num_labels = 2 * len(groups) + 2  # + one column pair for the ungrouped rest
    labels = np.full(graph.num_data, num_labels - 2, dtype=np.int64)
    for g, group in enumerate(groups):
        labels[group.data_ids] = 2 * g + group.side
    vertex_ids = np.concatenate([group.data_ids for group in groups])
    np.testing.assert_array_equal(src, labels[vertex_ids])
    splits = np.array([s for pair in spans for s in pair] + [1, 1], dtype=np.float64)
    objective = build_objective(
        config, splits_ahead=splits if use_final_pfanout else None
    )
    expected = sibling_move_gains(
        graph, labels, bucket_counts(graph, labels, num_labels), objective, vertex_ids
    )
    assert np.abs(expected).max() > 0.1  # not vacuous
    if not weighted and not use_final_pfanout:
        np.testing.assert_array_equal(gain, expected)
    else:
        # The reference also sums the pruned single-pin edges, whose
        # f(1) - f(0) terms cancel only to rounding.
        np.testing.assert_allclose(gain, expected, rtol=0, atol=1e-12)


# ----------------------------------------------------------------------
# Gains after moves: the slot-value cache against the per-pin reference
# ----------------------------------------------------------------------

@contextlib.contextmanager
def recording_histogram():
    """Registers matcher ``"recorder"``: the real histogram
    matcher, with ``(src, gain, move)`` of every call stored."""
    calls = []

    def factory(config):
        real = MATCHERS.get("histogram")(config)

        class Recorder:
            def decide_paired(self, src, gain, num_labels, sizes, caps, rng):
                decision = real.decide_paired(src, gain, num_labels, sizes, caps, rng)
                calls.append((src.copy(), gain.copy(), decision.move.copy()))
                return decision

        return Recorder()

    with registered_matcher("recorder", factory):
        yield calls


class LevelReference:
    """One fused level in the dense layout, replayed from recorded calls.

    Labels are ``2 · group + side`` over the refinable groups (the fused
    rank space), with one extra column pair for every other vertex; the
    reference CSR is the graph's minus every pin whose query has fewer
    than two pins in the vertex's pair — pair totals are level-invariant,
    so the mask is too.
    """

    def __init__(self, graph, groups, config):
        self.graph = graph
        self.config = config
        self.refinable = [g for g in groups if g.data_ids.size > 2]
        self.num_columns = 2 * len(self.refinable)
        self.num_labels = self.num_columns + 2
        self.labels = np.full(graph.num_data, self.num_columns, dtype=np.int64)
        splits = []
        for g, group in enumerate(self.refinable):
            self.labels[group.data_ids] = 2 * g + np.asarray(group.side)
            splits += [group.left_span, group.right_span]
        self.objective = build_objective(
            config,
            splits_ahead=(
                np.array(splits + [1, 1], dtype=np.float64)
                if config.use_final_pfanout else None
            ),
        )
        counts = bucket_counts(graph, self.labels, self.num_labels)
        pair = self.labels[graph.d_of_edge] >> 1
        keep = counts[graph.d_indices, 2 * pair] + counts[graph.d_indices, 2 * pair + 1] >= 2
        self.edge_queries = graph.d_indices[keep]
        self.edge_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(graph.d_of_edge[keep], minlength=graph.num_data)))
        )
        #: group -> (labels, granted moves) of the last call it proposed in.
        self.last_call = {}

    def check_call(self, src, gain, move):
        """The recorded gains of one matcher call, bit for bit."""
        present = np.flatnonzero(np.bincount(src >> 1))  # groups still proposing
        vertex_ids = np.concatenate([self.refinable[g].data_ids for g in present])
        self.labels[vertex_ids] = src
        expected = sibling_move_gains(
            self.graph, self.labels,
            bucket_counts(self.graph, self.labels, self.num_labels),
            self.objective, vertex_ids,
            edge_indptr=self.edge_indptr, edge_queries=self.edge_queries,
        )
        if self.config.move_penalty > 0.0:
            expected = expected - self.config.move_penalty
        np.testing.assert_array_equal(gain, expected)
        offset = 0
        for g in present:
            size = self.refinable[g].data_ids.size
            self.last_call[g] = (src[offset:offset + size], move[offset:offset + size])
            offset += size
        return expected

    def check_final(self, history):
        """``final_side`` is the last recorded labels with the last granted
        moves applied, and the tracked level metrics are the ones
        recomputed from it."""
        for g, group in enumerate(self.refinable):
            src, move = self.last_call[g]
            flipped = group.final_side != (src & 1)
            if self.graph.data_weights is None:
                np.testing.assert_array_equal(flipped, move)
            else:  # the weighted-cap pass may cancel granted moves
                assert not (flipped & ~move).any()
            self.labels[group.data_ids] = 2 * g + group.final_side
        counts = bucket_counts(self.graph, self.labels, self.num_labels)
        counts = counts[:, : self.num_columns]
        columns = np.broadcast_to(np.arange(self.num_columns), counts.shape)
        per_query = self.objective.contribution_at(counts, columns).sum(axis=1)
        spread = (counts > 0).sum(axis=1).astype(np.float64)
        if self.graph.query_weights is None:
            norm = max(1, self.graph.num_queries)
        else:
            weights = np.asarray(self.graph.query_weights, dtype=np.float64)
            per_query, spread, norm = per_query * weights, spread * weights, weights.sum()
        assert abs(history[-1].objective_value - per_query.sum() / norm) <= 1e-9
        assert abs(history[-1].fanout - spread.sum() / norm) <= 1e-9


def four_group_level(weighted):
    """The 4-bisection / unequal-span level of the iteration-1 test."""
    graph = community_bipartite(400, 600, 4000, num_communities=8, seed=3)
    rng = np.random.default_rng(12)
    if weighted:
        graph = dataclasses.replace(
            graph, query_weights=rng.uniform(0.2, 5.0, graph.num_queries)
        )
    order = rng.permutation(graph.num_data)
    bounds = [0, 200, 290, 420, 550]
    spans = [(3, 2), (2, 1), (1, 1), (4, 3)]
    groups = [
        LevelGroup(
            np.sort(order[lo:hi]).astype(np.int64),
            rng.integers(0, 2, hi - lo).astype(np.int32),
            left, right,
        )
        for lo, hi, (left, right) in zip(bounds[:-1], bounds[1:], spans)
    ]
    return graph, groups


@pytest.mark.parametrize("move_penalty", [0.0, 0.01])
@pytest.mark.parametrize("use_final_pfanout", [False, True])
@pytest.mark.parametrize("weighted", [False, True])
def test_fused_gains_match_reference_after_moves(weighted, use_final_pfanout, move_penalty):
    """Every gain vector the matcher is handed, at every iteration, is the
    per-pin reference kernel over the pruned CSR at the labels of that
    iteration — ``assert_array_equal``, no tolerance: the same addends in
    the same order.  This is the direct test of the dirty-set invalidation
    and of the slot-value cache (the iteration-1 test above never sees a
    move).  Mutation-checked: each of dropping the ``slot_value`` refresh,
    dropping the ``gm_vidx`` flip, refreshing before the ``±1`` scatter,
    and dropping a rank from ``recompute`` fails every cell."""
    graph, groups = four_group_level(weighted)
    with recording_histogram() as calls:
        config = SHPConfig(
            k=17, matcher="recorder", iterations_per_bisection=8,
            use_final_pfanout=use_final_pfanout, move_penalty=move_penalty,
            track_metrics="full",
        )
        reference = LevelReference(graph, groups, config)
        history, _ = refine_level_fused(
            graph, config, groups, 0.05, np.random.default_rng(0)
        )
    assert len(calls) >= 6 and len(calls) == len(history)
    for (src, gain, move), stats in zip(calls, history):
        expected = reference.check_call(src, gain, move)
        assert np.abs(expected).max() > 0.1  # not vacuous
    assert sum(stats.moved for stats in history[:-1]) > 100  # gains were stale
    reference.check_final(history)


@st.composite
def small_levels(draw):
    """A small graph and one level over it: 1-5 groups with unequal spans
    over shuffled vertices, some of size ≤ 2 (never in the rank space),
    some vertices in no group, degree-0 vertices, optionally a query
    spanning every vertex and one inside the first group, optional
    query / data weights."""
    num_data = draw(st.integers(6, 40))
    num_queries = draw(st.integers(1, 14))
    edges = draw(st.lists(
        st.tuples(st.integers(0, num_queries - 1), st.integers(0, num_data - 1)),
        max_size=120,
    ))
    order = np.array(draw(st.permutations(range(num_data))), dtype=np.int64)
    cuts = sorted(draw(st.lists(st.integers(0, num_data), min_size=1, max_size=5)))
    blocks = [order[lo:hi] for lo, hi in zip([0] + cuts[:-1], cuts)]
    if draw(st.booleans()):
        edges += [(num_queries, d) for d in range(num_data)]
        num_queries += 1
    if draw(st.booleans()) and blocks[0].size >= 2:
        edges += [(num_queries, int(d)) for d in blocks[0]]
        num_queries += 1
    weight = st.floats(0.25, 4.0)
    graph = BipartiteGraph.from_edges(
        [q for q, _ in edges], [d for _, d in edges],
        num_queries=num_queries, num_data=num_data,
        query_weights=draw(st.none() | st.lists(
            weight, min_size=num_queries, max_size=num_queries).map(np.array)),
        data_weights=draw(st.none() | st.lists(
            weight, min_size=num_data, max_size=num_data).map(np.array)),
    )
    groups = [
        LevelGroup(
            block,
            np.array(draw(st.lists(
                st.integers(0, 1), min_size=block.size, max_size=block.size
            )), dtype=np.int32),
            draw(st.integers(1, 4)), draw(st.integers(1, 4)),
        )
        for block in blocks
    ]
    options = dict(
        k=sum(g.left_span + g.right_span for g in groups),
        iterations_per_bisection=6,
        use_final_pfanout=draw(st.booleans()),
        move_penalty=draw(st.sampled_from([0.0, 0.01])),
        track_metrics="full",
    )
    return graph, groups, options, draw(st.integers(0, 2**16))


def copy_groups(groups):
    return [
        LevelGroup(g.data_ids.copy(), g.side.copy(), g.left_span, g.right_span)
        for g in groups
    ]


@settings(max_examples=120, deadline=None)
@given(small_levels())
def test_level_properties(level):
    """Per-iteration gains == the per-pin reference (bitwise), final sides
    == the recorded moves applied, tracked metrics == recomputed ones."""
    graph, groups, options, seed = level
    with recording_histogram() as calls:
        config = SHPConfig(matcher="recorder", **options)
        reference = LevelReference(graph, groups, config)
        history, _ = refine_level_fused(
            graph, config, groups, 0.25, np.random.default_rng(seed)
        )
    assert len(calls) == len(history)
    for src, gain, move in calls:
        reference.check_call(src, gain, move)
    for group in groups:
        if group.data_ids.size <= 2:
            np.testing.assert_array_equal(group.final_side, group.side)
    if history:
        reference.check_final(history)


def reversed_within_slots(slot_keys):
    """A sort by slot key with the pins inside every slot in *descending*
    position: the opposite of what a stable sort returns."""
    return slot_keys.size - 1 - np.argsort(slot_keys[::-1], kind="stable")


@settings(max_examples=60, deadline=None)
@given(small_levels())
def test_slot_sort_need_not_be_stable(level):
    """Nothing reads the order of pins inside a slot: final sides and the
    ``moved`` / ``objective_value`` / ``fanout`` histories are the same
    bits under a stable slot sort and under its within-slot reverse."""
    graph, groups, options, seed = level
    config = SHPConfig(**options)
    outcomes = []
    for slot_order in (lambda keys: np.argsort(keys, kind="stable"), reversed_within_slots):
        run_groups = copy_groups(groups)
        with mock.patch.object(level_fuse, "_slot_order", slot_order):
            history, converged = refine_level_fused(
                graph, config, run_groups, 0.25, np.random.default_rng(seed)
            )
        outcomes.append((
            [g.final_side.tolist() for g in run_groups],
            [(s.moved, s.objective_value, s.fanout) for s in history],
            converged,
        ))
    assert outcomes[0] == outcomes[1]


def test_reversed_within_slots_reverses():
    keys = np.array([5, 2, 5, 2, 9, 5])
    assert reversed_within_slots(keys).tolist() == [3, 1, 5, 2, 0, 4]


# ----------------------------------------------------------------------
# Gain tables are as tall as the level, not as the largest query
# ----------------------------------------------------------------------

GIANT_QUERY_K64 = "e65a198952857095b2707b971ca9f69178a745653bc55cd69993d35b778b47c8"


def test_tables_sized_by_level_not_by_largest_query():
    """One query spans all 20 000 vertices.  Tables ``max degree + 1`` tall
    are 3 x 20 001 x 2G float64 rebuilt per level — 31 MB at G = 32 for a
    100 k-pin graph — although no slot of the last level holds more than
    a 64th of the query.  The parent of this test peaked at 45.0 MiB
    (tracemalloc) on this job and 15.5 MiB with level-sized tables; same
    cells, same bits, so the assignment is the one captured there."""
    num_data = 20_000
    rng = np.random.default_rng(5)
    background_q = rng.integers(1, num_data // 2 + 1, 4 * num_data)
    background_d = rng.integers(0, num_data, 4 * num_data)
    graph = BipartiteGraph.from_edges(
        np.concatenate([np.zeros(num_data, dtype=np.int64), background_q]),
        np.concatenate([np.arange(num_data, dtype=np.int64), background_d]),
        num_queries=num_data // 2 + 1, num_data=num_data,
    )
    assert graph.query_degrees.max() == num_data
    tracemalloc.start()
    try:
        result = shp_2(
            graph, 64, seed=2, iterations_per_bisection=3, track_metrics="none"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20
    digest = hashlib.sha256(
        np.ascontiguousarray(result.assignment, dtype="<i4").tobytes()
    ).hexdigest()
    assert digest == GIANT_QUERY_K64
