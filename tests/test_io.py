"""Round-trip tests for hMetis / edge-list / NPZ / store serialization."""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.hypergraph import (
    BipartiteGraph,
    GraphValidationError,
    load_npz,
    read_edge_list,
    read_hmetis,
    save_npz,
    write_edge_list,
    write_hmetis,
)
from repro.hypergraph.io import load_graph, save_graph


def _graphs_equal(a: BipartiteGraph, b: BipartiteGraph) -> bool:
    return (
        a.num_queries == b.num_queries
        and a.num_data == b.num_data
        and np.array_equal(a.q_indptr, b.q_indptr)
        and np.array_equal(np.sort(a.q_indices), np.sort(b.q_indices))
    )


def _reference_read_hmetis(handle, name: str = "") -> BipartiteGraph:
    """The pre-streaming reader (per-edge Python lists), kept as the pin
    for the chunked parser: both must produce identical graphs."""
    header = handle.readline().split()
    num_edges, num_vertices = int(header[0]), int(header[1])
    fmt = header[2] if len(header) > 2 else "0"
    has_edge_weights = fmt in ("1", "11")
    has_vertex_weights = fmt in ("10", "11")
    qs: list[int] = []
    ds: list[int] = []
    edge_weights = np.empty(num_edges) if has_edge_weights else None
    for qid in range(num_edges):
        fields = handle.readline().split()
        if has_edge_weights:
            edge_weights[qid] = float(fields[0])
            fields = fields[1:]
        for f in fields:
            qs.append(qid)
            ds.append(int(f) - 1)
    weights = None
    if has_vertex_weights:
        weights = np.array([float(handle.readline().split()[0]) for _ in range(num_vertices)])
    return BipartiteGraph.from_edges(
        qs, ds, num_queries=num_edges, num_data=num_vertices,
        data_weights=weights, query_weights=edge_weights, name=name,
    )


class TestHMetis:
    def test_round_trip(self, tiny_graph):
        buffer = io.StringIO()
        write_hmetis(tiny_graph, buffer)
        buffer.seek(0)
        loaded = read_hmetis(buffer, name="figure1")
        assert _graphs_equal(tiny_graph, loaded)

    def test_round_trip_with_weights(self):
        w = np.array([1.0, 2.0, 3.0])
        g = BipartiteGraph.from_hyperedges([[0, 1], [1, 2]], num_data=3, data_weights=w)
        buffer = io.StringIO()
        write_hmetis(g, buffer)
        assert buffer.getvalue().splitlines()[0] == "2 3 10"
        buffer.seek(0)
        loaded = read_hmetis(buffer)
        assert loaded.data_weights is not None
        assert np.allclose(loaded.data_weights, w)

    def test_one_based_ids(self, tiny_graph):
        buffer = io.StringIO()
        write_hmetis(tiny_graph, buffer)
        lines = buffer.getvalue().splitlines()
        # First hyperedge is {0,1,5} -> "1 2 6" in 1-based format.
        assert sorted(int(x) for x in lines[1].split()) == [1, 2, 6]

    def test_edge_weights_become_query_weights(self):
        """fmt 1 hyperedge weights map onto SHP's traffic query_weights
        (they used to be silently discarded)."""
        text = "2 3 1\n7 1 2\n9 2 3\n"
        loaded = read_hmetis(io.StringIO(text))
        assert loaded.num_queries == 2
        assert sorted(loaded.query_neighbors(0).tolist()) == [0, 1]
        assert loaded.query_weights is not None
        assert np.allclose(loaded.query_weights, [7.0, 9.0])

    def test_query_weight_write_read_round_trip_fmt1(self):
        qw = np.array([3.0, 1.5])
        g = BipartiteGraph.from_hyperedges(
            [[0, 1], [1, 2]], num_data=3, query_weights=qw
        )
        buffer = io.StringIO()
        write_hmetis(g, buffer)
        assert buffer.getvalue().splitlines()[0] == "2 3 1"
        buffer.seek(0)
        loaded = read_hmetis(buffer)
        assert np.allclose(loaded.query_weights, qw)
        assert loaded.data_weights is None
        assert _graphs_equal(g, loaded)

    def test_both_weights_round_trip_fmt11(self):
        qw = np.array([2.0, 5.0])
        dw = np.array([1.0, 4.0, 2.0])
        g = BipartiteGraph.from_hyperedges(
            [[0, 1], [1, 2]], num_data=3, data_weights=dw, query_weights=qw
        )
        buffer = io.StringIO()
        write_hmetis(g, buffer)
        assert buffer.getvalue().splitlines()[0] == "2 3 11"
        buffer.seek(0)
        loaded = read_hmetis(buffer)
        assert np.allclose(loaded.query_weights, qw)
        assert np.allclose(loaded.data_weights, dw)
        assert _graphs_equal(g, loaded)

    def test_missing_edge_weight_rejected(self):
        with pytest.raises(GraphValidationError):
            read_hmetis(io.StringIO("1 2 1\n\n"))

    def test_truncated_file_rejected(self):
        with pytest.raises(GraphValidationError):
            read_hmetis(io.StringIO("3 4\n1 2\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(GraphValidationError):
            read_hmetis(io.StringIO("42\n"))

    def test_non_integer_pin_names_the_hyperedge_and_token(self):
        with pytest.raises(GraphValidationError, match=r"hyperedge 1: .*'x7'"):
            read_hmetis(io.StringIO("2 4\n1 2\n3 x7\n"))

    def test_file_path_round_trip(self, tiny_graph, tmp_path):
        path = tmp_path / "g.hgr"
        write_hmetis(tiny_graph, path)
        loaded = read_hmetis(path)
        assert _graphs_equal(tiny_graph, loaded)

    def test_fractional_data_weights_round_trip_exact(self):
        """Regression: the writer rounded vertex weights to ints, so
        fractional data_weights silently corrupted on round-trip (the
        same bug PR 4 fixed for query_weights)."""
        dw = np.array([1.25, 0.5, 3.0])
        g = BipartiteGraph.from_hyperedges([[0, 1], [1, 2]], num_data=3, data_weights=dw)
        buffer = io.StringIO()
        write_hmetis(g, buffer)
        buffer.seek(0)
        loaded = read_hmetis(buffer)
        assert np.array_equal(np.asarray(loaded.data_weights), dw)

    @pytest.mark.parametrize("chunk_edges", [1, 3, 7, 1 << 18])
    def test_chunked_reader_pins_reference(self, medium_graph, chunk_edges, tmp_path):
        """The streaming chunked parser must produce graphs identical to
        the old materialize-everything reader at every chunk size."""
        rng = np.random.default_rng(11)
        g = BipartiteGraph.from_edges(
            medium_graph.q_of_edge,
            medium_graph.q_indices,
            num_queries=medium_graph.num_queries,
            num_data=medium_graph.num_data,
            data_weights=rng.random(medium_graph.num_data) + 0.5,
            query_weights=rng.random(medium_graph.num_queries) + 0.1,
        )
        path = tmp_path / "m.hgr"
        write_hmetis(g, path)
        with open(path, encoding="utf-8") as handle:
            reference = _reference_read_hmetis(handle)
        chunked = read_hmetis(path, chunk_edges=chunk_edges)
        assert _graphs_equal(reference, chunked)
        assert np.array_equal(reference.d_indptr, chunked.d_indptr)
        assert np.array_equal(reference.d_indices, chunked.d_indices)
        assert np.array_equal(
            np.asarray(reference.data_weights), np.asarray(chunked.data_weights)
        )
        assert np.array_equal(
            np.asarray(reference.query_weights), np.asarray(chunked.query_weights)
        )

    def test_chunked_reader_pins_reference_tiny(self, tiny_graph, tmp_path):
        path = tmp_path / "t.hgr"
        write_hmetis(tiny_graph, path)
        with open(path, encoding="utf-8") as handle:
            reference = _reference_read_hmetis(handle)
        for chunk_edges in (1, 2, 1024):
            chunked = read_hmetis(path, chunk_edges=chunk_edges)
            assert _graphs_equal(reference, chunked)
            assert np.array_equal(reference.d_indices, chunked.d_indices)


class TestEdgeList:
    def test_round_trip(self, tiny_graph):
        buffer = io.StringIO()
        write_edge_list(tiny_graph, buffer)
        buffer.seek(0)
        loaded = read_edge_list(buffer)
        assert _graphs_equal(tiny_graph, loaded)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n0 1\n0 2\n"
        loaded = read_edge_list(io.StringIO(text))
        assert loaded.num_edges == 2


    @pytest.mark.parametrize("text, where", [
        ("0 1\n5\n", r"line 2: .*'5'"),            # one field (was IndexError)
        ("# c\n\n0\ta\n", r"line 3: .*'a'"),       # non-integer data id
        ("0 1\nq 2\n", r"line 2: .*'q'"),          # non-integer query id
    ], ids=["one-field", "bad-data-id", "bad-query-id"])
    def test_malformed_line_names_line_and_token(self, text, where):
        with pytest.raises(GraphValidationError, match=where):
            read_edge_list(io.StringIO(text))


class TestNpz:
    def test_round_trip(self, medium_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(medium_graph, path)
        loaded = load_npz(path)
        assert _graphs_equal(medium_graph, loaded)
        assert loaded.name == medium_graph.name

    def test_round_trip_with_weights(self, tmp_path):
        w = np.array([2.0, 1.0, 1.0])
        g = BipartiteGraph.from_hyperedges([[0, 1], [1, 2]], num_data=3, data_weights=w)
        path = tmp_path / "w.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert np.allclose(loaded.data_weights, w)

    def test_round_trip_with_query_weights(self, tmp_path):
        """A weighted-traffic graph must come back weighted (query_weights
        used to be silently dropped by the NPZ checkpoint path)."""
        qw = np.array([5.0, 0.25])
        dw = np.array([1.0, 3.0, 1.0])
        g = BipartiteGraph.from_hyperedges(
            [[0, 1], [1, 2]], num_data=3, data_weights=dw, query_weights=qw
        )
        path = tmp_path / "qw.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert loaded.query_weights is not None
        assert np.allclose(loaded.query_weights, qw)
        assert np.allclose(loaded.data_weights, dw)
        assert _graphs_equal(g, loaded)

    def test_fractional_data_weights_exact(self, tmp_path):
        """data_weights round-trip bit-exact through the NPZ archive,
        including 2-D multi-dimensional balance weights."""
        dw = np.array([[1.25, 2.0], [0.5, 1.0], [3.75, 0.125]])
        g = BipartiteGraph.from_hyperedges([[0, 1], [1, 2]], num_data=3, data_weights=dw)
        path = tmp_path / "dw.npz"
        save_npz(g, path)
        loaded = load_npz(path)
        assert np.array_equal(np.asarray(loaded.data_weights), dw)


class TestDispatch:
    """Extension dispatch in load_graph / save_graph, including ``.rgs``."""

    @pytest.mark.parametrize("suffix", [".hgr", ".tsv", ".npz", ".rgs"])
    def test_round_trip_by_extension(self, tiny_graph, tmp_path, suffix):
        path = tmp_path / f"g{suffix}"
        save_graph(tiny_graph, path)
        loaded = load_graph(path)
        assert _graphs_equal(tiny_graph, loaded)

    def test_rgs_preserves_weights_and_structure(self, medium_graph, tmp_path):
        rng = np.random.default_rng(5)
        g = BipartiteGraph.from_edges(
            medium_graph.q_of_edge,
            medium_graph.q_indices,
            num_queries=medium_graph.num_queries,
            num_data=medium_graph.num_data,
            data_weights=rng.random(medium_graph.num_data) + 0.5,
            query_weights=rng.random(medium_graph.num_queries),
            name="med",
        )
        path = tmp_path / "m.rgs"
        save_graph(g, path)
        loaded = load_graph(path)
        loaded.validate()
        for attr in ("q_indptr", "q_indices", "d_indptr", "d_indices"):
            assert np.array_equal(getattr(g, attr), getattr(loaded, attr))
        assert np.array_equal(np.asarray(g.data_weights), np.asarray(loaded.data_weights))
        assert np.array_equal(
            np.asarray(g.query_weights), np.asarray(loaded.query_weights)
        )
        assert loaded.name == "med"

    def test_unknown_suffix_rejected(self, tiny_graph, tmp_path):
        with pytest.raises(GraphValidationError):
            load_graph(tmp_path / "g.bin")
        with pytest.raises(GraphValidationError):
            save_graph(tiny_graph, tmp_path / "g.bin")
