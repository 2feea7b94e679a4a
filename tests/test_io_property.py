"""Property-based tests for serialization: round trips, and the block
tokenizer against the line-by-line readers it replaced."""

from __future__ import annotations

import io
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import text_parsers

from repro.hypergraph import (
    BipartiteGraph,
    GraphValidationError,
    read_edge_list,
    read_hmetis,
    write_edge_list,
    write_hmetis,
)
from repro.hypergraph import io as graph_io
from repro.hypergraph.bipartite import sorted_unique


@st.composite
def arbitrary_graph(draw):
    num_queries = draw(st.integers(min_value=1, max_value=8))
    num_data = draw(st.integers(min_value=1, max_value=10))
    num_edges = draw(st.integers(min_value=1, max_value=24))
    qs = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_queries - 1),
            min_size=num_edges, max_size=num_edges,
        )
    )
    ds = draw(
        st.lists(
            st.integers(min_value=0, max_value=num_data - 1),
            min_size=num_edges, max_size=num_edges,
        )
    )
    return BipartiteGraph.from_edges(qs, ds, num_queries=num_queries, num_data=num_data)


def _canonical(graph: BipartiteGraph) -> list[tuple[int, int]]:
    return sorted(zip(graph.q_of_edge.tolist(), graph.q_indices.tolist()))


class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(arbitrary_graph())
    def test_hmetis_preserves_edges(self, graph):
        buffer = io.StringIO()
        write_hmetis(graph, buffer)
        buffer.seek(0)
        loaded = read_hmetis(buffer)
        assert _canonical(loaded) == _canonical(graph)
        assert loaded.num_queries == graph.num_queries
        # hMetis cannot express trailing isolated data vertices beyond the
        # declared count, but we always declare num_data explicitly.
        assert loaded.num_data == graph.num_data

    @settings(max_examples=60, deadline=None)
    @given(arbitrary_graph())
    def test_edge_list_preserves_edges(self, graph):
        buffer = io.StringIO()
        write_edge_list(graph, buffer)
        buffer.seek(0)
        loaded = read_edge_list(buffer)
        assert _canonical(loaded) == _canonical(graph)

    @settings(max_examples=40, deadline=None)
    @given(arbitrary_graph())
    def test_validate_after_round_trip(self, graph):
        buffer = io.StringIO()
        write_hmetis(graph, buffer)
        buffer.seek(0)
        read_hmetis(buffer).validate()


# ----------------------------------------------------------------------
# Block tokenizer vs the line loops it replaced (tests/oracles/text_parsers.py)
# ----------------------------------------------------------------------

def _production_hmetis(handle, chunk_edges):
    """What ``read_hmetis`` hands ``from_edges``, as ``parse_hmetis`` returns it."""
    lines = graph_io.TokenLines(handle, "%", chunk_edges)
    num_edges, num_vertices, has_ew, has_vw = graph_io.read_hmetis_header(lines)
    edge_weights = np.empty(num_edges, dtype=np.float64) if has_ew else None
    q, d = graph_io._gather_chunks(
        graph_io.iter_hmetis_edge_chunks(lines, num_edges, has_ew, edge_weights)
    )
    vertex_weights = (
        graph_io.read_hmetis_vertex_weights(lines, num_vertices) if has_vw else None
    )
    return q, d, num_edges, num_vertices, edge_weights, vertex_weights


def _production_edge_list(handle, chunk_edges):
    return graph_io._gather_chunks(graph_io.iter_edge_list_chunks(handle, chunk_edges))


def _outcome(parse, *args):
    """The parsed arrays, or the text of the ``GraphValidationError`` raised
    (dropping the last empty hyperedge's newline truncates the file)."""
    try:
        return parse(*args)
    except GraphValidationError as exc:
        return str(exc)


def _assert_same_parse(got, want):
    if isinstance(want, str):
        assert got == want
        return
    for a, b in zip(got, want, strict=True):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        else:
            assert a == b


def _where(exc: GraphValidationError) -> str:
    """``hyperedge N`` / ``line N`` of an error message."""
    return re.match(r"(hyperedge|line) \d+", str(exc)).group(0)


_SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t "])
_WEIGHTS = st.sampled_from(["1", "7", "12", "0.5", "2.25", "1e2", "+3", "003"])


@st.composite
def hmetis_text(draw, comments=True):
    """Hand-assembled ``.hgr`` text: ``(text, offset of the vertex-weight section)``."""
    fmt = draw(st.sampled_from(["", "0", "1", "10", "11"]))
    num_vertices = draw(st.integers(min_value=1, max_value=30))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    comment = st.sampled_from(["% note", "%", "  %% 1 2 x"]) if comments else st.nothing()
    out = []

    def emit(line):
        for _ in range(draw(st.integers(0, 1 if comments else 0))):
            out.append(draw(comment) + eol)
        out.append(line + draw(st.sampled_from(["", " ", "\t"])) + eol)

    edges = draw(
        st.lists(
            st.lists(st.integers(min_value=1, max_value=num_vertices), max_size=6),
            max_size=12,
        )
    )
    emit(draw(_SEPARATORS).join([str(len(edges)), str(num_vertices)] + ([fmt] if fmt else [])))
    for pins in edges:
        tokens = [str(p) for p in pins]
        if fmt in ("1", "11"):
            tokens.insert(0, draw(_WEIGHTS))
        emit(draw(_SEPARATORS).join(tokens))
    boundary = len("".join(out))
    if fmt in ("10", "11"):
        for _ in range(num_vertices):
            emit(draw(_WEIGHTS))
    text = "".join(out)
    if draw(st.booleans()):
        text = text[: -len(eol)]  # no final newline
    return text, boundary


@st.composite
def edge_list_text(draw):
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    ids = st.integers(min_value=0, max_value=40).map(str)
    line = st.one_of(
        st.tuples(ids, _SEPARATORS, ids).map("".join),
        st.tuples(ids, _SEPARATORS, ids, st.just(" 9 extra")).map("".join),
        st.sampled_from(["", "   ", "# comment", "  #x 1 2", "#"]),
    )
    text = "".join(body + eol for body in draw(st.lists(line, max_size=20)))
    if text and draw(st.booleans()):
        text = text[: -len(eol)]  # no final newline
    return text


def _block_sizes(boundary: int):
    """Block byte sizes: tiny ones cut inside tokens and lines, and the three
    around ``boundary`` put a block edge on the section boundary itself."""
    near = [b for b in (boundary - 1, boundary, boundary + 1) if b >= 1]
    return st.one_of(st.integers(min_value=1, max_value=48), st.sampled_from(near))


class TestTokenizerAgainstLineLoops:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hmetis_arrays_equal_the_oracle(self, data):
        text, boundary = data.draw(hmetis_text())
        want = _outcome(text_parsers.parse_hmetis, io.StringIO(text))
        for chunk_edges in (1, 3, 7, 1 << 18):
            got = _outcome(_production_hmetis, io.StringIO(text), chunk_edges)
            _assert_same_parse(got, want)
        # Any block size, through a binary handle as well as a text one.
        with mock.patch.object(graph_io, "TEXT_BYTES_PER_EDGE", data.draw(_block_sizes(boundary))):
            for handle in (io.StringIO(text), io.BytesIO(text.encode())):
                _assert_same_parse(_outcome(_production_hmetis, handle, 1), want)

    @settings(max_examples=25, deadline=None)
    @given(hmetis_text())
    def test_hmetis_path_equals_text_handle(self, drawn):
        text, _ = drawn
        from_handle = _outcome(read_hmetis, io.StringIO(text))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "g.hgr"
            path.write_bytes(text.encode())
            from_path = _outcome(read_hmetis, path, "", 5)
        if isinstance(from_handle, str):
            assert from_path == from_handle
            return
        for attr in ("q_indptr", "q_indices", "d_indptr", "d_indices"):
            assert np.array_equal(getattr(from_path, attr), getattr(from_handle, attr))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edge_list_arrays_equal_the_oracle(self, data):
        text = data.draw(edge_list_text())
        want = text_parsers.parse_edge_list(io.StringIO(text))
        for chunk_edges in (1, 3, 7, 1 << 18):
            _assert_same_parse(_production_edge_list(io.StringIO(text), chunk_edges), want)
        with mock.patch.object(
            graph_io, "TEXT_BYTES_PER_EDGE", data.draw(st.integers(min_value=1, max_value=48))
        ):
            _assert_same_parse(_production_edge_list(io.BytesIO(text.encode()), 1), want)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_bad_token_is_named_where_the_oracle_names_it(self, data):
        """One non-integer token in a pin / id position: both sides raise
        ``GraphValidationError`` for the same hyperedge or line."""
        junk = data.draw(st.sampled_from(["x7", "1.5", "--1", "1-", "é", "0x1f", "1,5"]))
        if data.draw(st.booleans()):
            text, _ = data.draw(hmetis_text(comments=False).filter(lambda t: "\n" in t[0]))
            lines = text.split("\n")
            # A pin position: not the header, not a weight, not the weight section.
            fmt = (lines[0].split() + ["0"])[2]
            num_edges = int(lines[0].split()[0])
            spots = [
                (i, j)
                for i in range(1, min(num_edges, len(lines) - 1) + 1)
                for j in range(fmt in ("1", "11"), len(lines[i].split()))
            ]
            production, oracle = _production_hmetis, text_parsers.parse_hmetis
        else:
            text = data.draw(edge_list_text())
            lines = text.split("\n")
            spots = [
                (i, j)
                for i, line in enumerate(lines)
                if len(line.split()) >= 2 and not line.split()[0].startswith("#")
                for j in (0, 1)
            ]
            production, oracle = _production_edge_list, text_parsers.parse_edge_list
        if not spots:
            return
        i, j = data.draw(st.sampled_from(spots))
        tokens = lines[i].split()
        tokens[j] = junk
        lines[i] = " ".join(tokens)
        text = "\n".join(lines)
        with pytest.raises(GraphValidationError) as want:
            oracle(io.StringIO(text))
        with mock.patch.object(
            graph_io, "TEXT_BYTES_PER_EDGE", data.draw(st.integers(min_value=1, max_value=48))
        ):
            with pytest.raises(GraphValidationError) as got:
                production(io.StringIO(text), data.draw(st.sampled_from([1, 3, 1 << 18])))
        assert _where(got.value) == _where(want.value)
        assert repr(junk) in str(got.value)


class TestCanonicalOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=40),
        st.sampled_from(["as-drawn", "sorted", "distinct-sorted", "narrow"]),
    )
    def test_sorted_unique_is_np_unique(self, values, shape):
        keys = np.asarray(values, dtype=np.int64)
        if shape == "narrow":
            keys = keys % 1000 - 500  # the int32 sort
        elif shape != "as-drawn":
            keys = np.sort(keys) if shape == "sorted" else np.unique(keys)
        got = sorted_unique(keys)
        assert got.dtype == keys.dtype and np.array_equal(got, np.unique(keys))

    @settings(max_examples=60, deadline=None)
    @given(arbitrary_graph(), st.randoms(use_true_random=False))
    def test_from_edges_sees_the_edge_set_only(self, graph, rnd):
        """Shuffled, duplicated or already canonical: the same four arrays."""
        pairs = list(zip(graph.q_of_edge.tolist(), graph.q_indices.tolist()))
        noisy = pairs + rnd.choices(pairs, k=len(pairs) // 2)
        rnd.shuffle(noisy)
        for edges in (pairs, noisy):
            rebuilt = BipartiteGraph.from_edges(
                [q for q, _ in edges], [d for _, d in edges],
                num_queries=graph.num_queries, num_data=graph.num_data,
            )
            for attr in ("q_indptr", "q_indices", "d_indptr", "d_indices"):
                assert getattr(rebuilt, attr).tobytes() == getattr(graph, attr).tobytes()
