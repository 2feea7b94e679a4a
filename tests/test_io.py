"""Round-trip tests for hMetis / edge-list / NPZ / store serialization."""

from __future__ import annotations

import hashlib
import io
import sys

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
from repro.hypergraph import io as graph_io
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

    @pytest.mark.parametrize("text, where", [
        # Each of these escaped as a raw OverflowError / IndexError / ValueError.
        ("1 4\n1 99999999999999999999\n", r"hyperedge 0: .*'99999999999999999999'"),
        ("1 2 10\n1 2\n\n3\n", r"line 3: missing vertex weight"),
        ("1 2 10\n1 2\n2\nheavy\n", r"line 4: .*'heavy'"),
        ("1 4 1\nabc 1 2\n", r"hyperedge 0: .*'abc'"),
        ("a b\n", r"line 1 \(hMetis header\): .*'a'"),
        ("2 4\n1 2\n3 1_000\n", r"hyperedge 1: .*'1_000'"),  # int() took this
    ], ids=["pin-overflow", "blank-vertex-weight", "bad-vertex-weight",
            "bad-edge-weight", "bad-header", "python-only-spelling"])
    def test_malformed_text_names_where_and_token(self, text, where):
        with pytest.raises(GraphValidationError, match=where):
            read_hmetis(io.StringIO(text))

    def test_percent_comment_lines_are_skipped(self):
        """hMETIS manual: a line starting with ``%`` is a comment, anywhere;
        a blank line still is a hyperedge without pins."""
        text = (
            "% written by a tool\n%\n3 4 11\n% first\n2 1 2\n  % indented\n"
            "7\n1.5 3 4\n5\n%\n6\n7\n% done\n8"
        )
        loaded = read_hmetis(io.StringIO(text))
        assert loaded.num_queries == 3 and loaded.num_data == 4
        assert loaded.query_neighbors(0).tolist() == [0, 1]
        assert loaded.query_neighbors(1).tolist() == []
        assert loaded.query_neighbors(2).tolist() == [2, 3]
        assert loaded.query_weights.tolist() == [2.0, 7.0, 1.5]
        assert loaded.data_weights.tolist() == [5.0, 6.0, 7.0, 8.0]
        # A blank line is no comment: here it is the second of two hyperedges.
        assert read_hmetis(io.StringIO("2 3\n1 2\n\n")).query_degrees.tolist() == [2, 0]
        # Line numbers in errors count the comment lines.
        with pytest.raises(GraphValidationError, match=r"line 5: .*'w'"):
            read_hmetis(io.StringIO("% c\n1 2 10\n% c\n1 2\nw\n1\n"))

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
        ("0 99999999999999999999\n", r"line 1: .*'99999999999999999999'"),  # was OverflowError
    ], ids=["one-field", "bad-data-id", "bad-query-id", "id-overflow"])
    def test_malformed_line_names_line_and_token(self, text, where):
        with pytest.raises(GraphValidationError, match=where):
            read_edge_list(io.StringIO(text))


def _golden_graph(weighted: bool) -> BipartiteGraph:
    rng = np.random.default_rng(19)
    nq, nd, m = 300, 200, 3000
    q = rng.integers(0, nq, m)
    d = rng.integers(0, nd, m)
    q[q % 17 == 3] = 0  # hyperedges 3, 20, 37, ... stay empty; so does the last one
    q[q == nq - 1] = 1
    return BipartiteGraph.from_edges(
        q, d, num_queries=nq, num_data=nd,
        data_weights=np.round(rng.random(nd) * 8) / 4 if weighted else None,
        query_weights=np.round(rng.random(nq) * 8) / 2 if weighted else None,
    )


class TestWriters:
    """The chunked writers emit the bytes the per-row loops emitted: the
    digests were captured at the parent of PR 19 (19 empty hyperedges,
    integral and fractional weights, ``"w \\n"`` for a weighted empty one)."""

    GOLDEN = {
        (write_hmetis, False): "0380a933a80324adf9788f61c9a31a3509ed3158fabd5cb08f180273d9a06e28",
        (write_hmetis, True): "de391b74b4d80aeb214f0d9071c6cbacadc173dc395443164919bdea7f7e6c32",
        (write_edge_list, False): "8a3f654f170680227820700608c99a928940756d78b509ffda7a4849b1cb8c72",
    }

    @pytest.mark.parametrize("chunk_edges", [1 << 18, 64, 1])
    @pytest.mark.parametrize("writer, weighted", list(GOLDEN), ids=["hgr", "hgr-weighted", "tsv"])
    def test_output_bytes_are_the_parents(self, monkeypatch, writer, weighted, chunk_edges):
        monkeypatch.setattr(graph_io, "HMETIS_CHUNK_EDGES", chunk_edges)
        buffer = io.StringIO()
        writer(_golden_graph(weighted), buffer)
        digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
        assert digest == self.GOLDEN[writer, weighted]


def _calls(fn) -> int:
    """Calls made while ``fn()`` runs: Python functions and C builtins alike
    (``int()``, ``list.append`` and ``str.split`` are ``c_call`` events)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestNoPerTokenPython:
    """Ingest cost is per block, not per pin or per line: the number of calls
    a reader makes is bounded by the number of text blocks the file is,
    however many tokens they hold.  A ``readline()`` / ``split()`` / ``int()``
    loop makes two or more calls per pin and fails this by 100x."""

    #: A block costs ~110 calls (numpy's Python wrappers and the ufuncs under
    #: them), ``from_edges`` about as many once per file.
    CALLS_PER_BLOCK = 300

    @pytest.mark.parametrize("reader, suffix", [(read_hmetis, ".hgr"), (read_edge_list, ".tsv")])
    def test_reader_calls_scale_with_blocks_not_pins(self, tmp_path, reader, suffix):
        block_bytes = graph_io.TEXT_BYTES_PER_EDGE * graph_io.HMETIS_CHUNK_EDGES
        rng = np.random.default_rng(3)
        per_block = []
        for pins in (60_000, 240_000):
            g = BipartiteGraph.from_edges(
                rng.integers(0, pins // 5, pins), rng.integers(0, pins // 4, pins)
            )
            assert g.num_edges >= 50_000
            path = tmp_path / f"g{pins}{suffix}"
            save_graph(g, path)
            blocks = -(-path.stat().st_size // block_bytes)
            calls = _calls(lambda: reader(path))
            assert calls <= self.CALLS_PER_BLOCK * (blocks + 1), (pins, calls, blocks)
            per_block.append(calls / (blocks + 1))
        # Four times the pins: no more calls per block.
        assert per_block[1] <= 1.25 * per_block[0], per_block


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
