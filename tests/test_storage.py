"""Tests for the ``.rgs`` binary graph store (format, views, converter).

Mirrors the wire-protocol test style: the format's failure taxonomy
(bad magic / bad version / truncation) is pinned the same way
``test_backend_rpc`` pins ``FrameProtocolError`` / ``TruncatedFrameError``.
"""

from __future__ import annotations

import io
import pickle
import struct

import numpy as np
import pytest

from repro.hypergraph.bipartite import BipartiteGraph
from repro.hypergraph.io import save_graph, save_npz, write_hmetis
from repro.storage import (
    FORMAT_VERSION,
    MAGIC,
    GraphStore,
    StorageError,
    StoreBackedGraph,
    StoreFormatError,
    StoreSchema,
    StoreWriter,
    TruncatedStoreError,
    convert_to_store,
    open_store_view,
    read_header,
    write_store,
)
from repro.storage.format import PREAMBLE


def _random_graph(seed: int, nq=120, nd=180, m=2500, weights=True) -> BipartiteGraph:
    rng = np.random.default_rng(seed)
    return BipartiteGraph.from_edges(
        rng.integers(0, nq, m),
        rng.integers(0, nd, m),
        num_queries=nq,
        num_data=nd,
        data_weights=rng.random(nd) * 3 if weights else None,
        query_weights=rng.random(nq) + 0.1 if weights else None,
        name=f"rand{seed}",
    )


def _assert_same_graph(a: BipartiteGraph, b: BipartiteGraph) -> None:
    assert a.num_queries == b.num_queries
    assert a.num_data == b.num_data
    for attr in ("q_indptr", "q_indices", "d_indptr", "d_indices"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
    if a.data_weights is None:
        assert b.data_weights is None
    else:
        assert np.array_equal(np.asarray(a.data_weights), np.asarray(b.data_weights))
    if a.query_weights is None:
        assert b.query_weights is None
    else:
        assert np.array_equal(np.asarray(a.query_weights), np.asarray(b.query_weights))


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("weights", [True, False])
    def test_write_open_round_trip(self, tmp_path, seed, weights):
        g = _random_graph(seed, weights=weights)
        path = tmp_path / "g.rgs"
        write_store(g, path)
        view = GraphStore.open(path).view()
        view.validate()
        _assert_same_graph(g, view)
        assert view.name == g.name

    def test_view_duck_types_bipartite_graph(self, tmp_path, medium_graph):
        path = tmp_path / "m.rgs"
        write_store(medium_graph, path)
        view = open_store_view(path)
        assert isinstance(view, BipartiteGraph)
        assert isinstance(view, StoreBackedGraph)
        assert view.num_edges == medium_graph.num_edges
        assert np.array_equal(view.query_degrees, medium_graph.query_degrees)
        assert np.array_equal(view.q_of_edge, medium_graph.q_of_edge)
        sub = view.remove_small_queries()  # transformations work off the view
        assert sub.num_data == medium_graph.num_data

    def test_two_dim_data_weights(self, tmp_path):
        g = _random_graph(5, weights=False)
        dw = np.random.default_rng(5).random((g.num_data, 3))
        g = BipartiteGraph.from_edges(
            g.q_of_edge, g.q_indices, num_queries=g.num_queries,
            num_data=g.num_data, data_weights=dw, dedupe=False,
        )
        path = tmp_path / "w.rgs"
        write_store(g, path)
        view = open_store_view(path)
        assert np.asarray(view.data_weights).shape == (g.num_data, 3)
        assert np.array_equal(np.asarray(view.data_weights), dw)

    def test_empty_graph(self, tmp_path):
        g = BipartiteGraph.from_edges([], [], num_queries=0, num_data=0)
        path = tmp_path / "e.rgs"
        write_store(g, path)
        view = open_store_view(path)
        view.validate()
        assert view.num_edges == 0

    def test_sections_little_endian_on_disk(self, tmp_path):
        """The dtype on disk is explicit little-endian regardless of the
        writer's native order — REP003-style wire exactness."""
        g = _random_graph(7)
        path = tmp_path / "g.rgs"
        write_store(g, path)
        header = read_header(path)
        for info in header.sections:
            assert info.dtype in ("<i8", "<f8"), info
        info = header.section("q_indptr")
        raw = path.read_bytes()[info.offset : info.offset + info.nbytes]
        decoded = np.frombuffer(raw, dtype="<i8")
        assert np.array_equal(decoded, g.q_indptr)

    def test_mmap_view_is_read_only(self, tmp_path):
        g = _random_graph(9)
        path = tmp_path / "g.rgs"
        write_store(g, path)
        view = open_store_view(path)
        with pytest.raises((ValueError, TypeError)):
            view.q_indices[0] = 99


class TestPickling:
    def test_pickles_as_path(self, tmp_path):
        g = _random_graph(4)
        path = tmp_path / "g.rgs"
        write_store(g, path)
        view = open_store_view(path)
        blob = pickle.dumps(view)
        # The whole point: a multi-MB graph ships as a few hundred bytes.
        assert len(blob) < 1024
        restored = pickle.loads(blob)
        _assert_same_graph(g, restored)
        assert restored.store_path == view.store_path


class TestErrors:
    def test_bad_magic(self, tmp_path):
        g = _random_graph(0)
        path = tmp_path / "g.rgs"
        write_store(g, path)
        raw = path.read_bytes()
        bad = tmp_path / "bad.rgs"
        bad.write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(StoreFormatError, match="bad store magic"):
            GraphStore.open(bad)

    def test_newer_version_rejected_with_hint(self, tmp_path):
        g = _random_graph(0)
        path = tmp_path / "g.rgs"
        write_store(g, path)
        raw = path.read_bytes()
        newer = tmp_path / "new.rgs"
        newer.write_bytes(MAGIC + struct.pack("<I", FORMAT_VERSION + 1) + raw[8:])
        with pytest.raises(StoreFormatError, match="newer than this reader"):
            GraphStore.open(newer)

    def test_truncated_preamble(self, tmp_path):
        stub = tmp_path / "stub.rgs"
        stub.write_bytes(MAGIC[:2])
        with pytest.raises(TruncatedStoreError, match="preamble"):
            GraphStore.open(stub)

    def test_truncated_header_json(self, tmp_path):
        g = _random_graph(0)
        path = tmp_path / "g.rgs"
        write_store(g, path)
        cut = tmp_path / "cut.rgs"
        cut.write_bytes(path.read_bytes()[: PREAMBLE.size + 10])
        with pytest.raises(TruncatedStoreError, match="header JSON"):
            GraphStore.open(cut)

    def test_truncated_section_names_outstanding_bytes(self, tmp_path):
        """Mirrors wire.py's TruncatedFrameError message shape: the error
        says which section ended early and how many bytes are missing."""
        g = _random_graph(0)
        path = tmp_path / "g.rgs"
        write_store(g, path)
        raw = path.read_bytes()
        cut = tmp_path / "cut.rgs"
        cut.write_bytes(raw[: len(raw) - 16])
        with pytest.raises(TruncatedStoreError, match="bytes outstanding"):
            GraphStore.open(cut)

    def test_garbage_header_json(self, tmp_path):
        bad = tmp_path / "bad.rgs"
        payload = b"\xff\xfenot json"
        bad.write_bytes(PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(payload)) + payload)
        with pytest.raises(StoreFormatError, match="undecodable"):
            read_header(bad)

    def test_schema_rejects_native_endian_dtypes(self):
        with pytest.raises(StoreFormatError, match="explicit-endian"):
            StoreSchema(fields=(("q_indptr", "i8"),))
        with pytest.raises(StoreFormatError, match="explicit-endian"):
            StoreSchema(fields=(("q_indptr", "=i8"),))

    def test_wrong_section_dtype_rejected(self, tmp_path):
        """A header that declares big-endian data is refused, never
        silently reinterpreted."""
        g = _random_graph(0)
        path = tmp_path / "g.rgs"
        write_store(g, path)
        raw = bytearray(path.read_bytes())
        json_len = PREAMBLE.unpack(raw[: PREAMBLE.size])[2]
        header = raw[PREAMBLE.size : PREAMBLE.size + json_len]
        swapped = header.replace(b'"<i8"', b'">i8"')
        assert swapped != header
        bad = tmp_path / "swapped.rgs"
        bad.write_bytes(
            PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(swapped))
            + swapped
            + raw[PREAMBLE.size + json_len :]
        )
        with pytest.raises(StoreFormatError, match="schema requires"):
            read_header(bad)

    def test_writer_rejects_duplicate_section(self, tmp_path):
        writer = StoreWriter(tmp_path / "w.rgs", num_queries=1, num_data=1)
        writer.write_section("q_indptr", np.array([0, 1]))
        with pytest.raises(StoreFormatError, match="twice"):
            writer.begin_section("q_indptr")
        writer.abort()
        assert not (tmp_path / "w.rgs").exists()

    def test_writer_rejects_unknown_section(self, tmp_path):
        writer = StoreWriter(tmp_path / "w.rgs", num_queries=1, num_data=1)
        with pytest.raises(StoreFormatError, match="unknown store section"):
            writer.begin_section("bogus")
        writer.abort()

    def test_writer_rejects_finalize_with_open_section(self, tmp_path):
        writer = StoreWriter(tmp_path / "w.rgs", num_queries=1, num_data=1)
        writer.begin_section("q_indices")
        with pytest.raises(StoreFormatError, match="left open"):
            writer.finalize(num_edges=0)
        writer.abort()

    def test_store_missing_required_section(self, tmp_path):
        writer = StoreWriter(tmp_path / "w.rgs", num_queries=0, num_data=0)
        writer.write_section("q_indptr", np.array([0]))
        writer.finalize(num_edges=0)
        with pytest.raises(StoreFormatError, match="missing required section"):
            GraphStore.open(tmp_path / "w.rgs")


class TestSlices:
    def test_data_range_partitions_every_vertex(self, tmp_path, medium_graph):
        path = tmp_path / "m.rgs"
        write_store(medium_graph, path)
        store = GraphStore.open(path)
        for workers in (1, 2, 3, 7):
            ranges = [store.data_range(w, workers) for w in range(workers)]
            assert ranges[0][0] == 0
            assert ranges[-1][1] == medium_graph.num_data
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo  # contiguous, disjoint, covering

    def test_data_slice_matches_in_memory_rows(self, tmp_path, medium_graph):
        path = tmp_path / "m.rgs"
        write_store(medium_graph, path)
        store = GraphStore.open(path)
        lo, hi = store.data_range(1, 3)
        sl = store.data_slice(lo, hi)
        assert sl["indptr"][0] == 0
        assert sl["indptr"][-1] == sl["indices"].size
        g = medium_graph
        assert np.array_equal(
            sl["indices"], g.d_indices[g.d_indptr[lo] : g.d_indptr[hi]]
        )
        assert np.array_equal(sl["indptr"], g.d_indptr[lo : hi + 1] - g.d_indptr[lo])

    def test_data_slice_bounds_checked(self, tmp_path, tiny_graph):
        path = tmp_path / "t.rgs"
        write_store(tiny_graph, path)
        store = GraphStore.open(path)
        with pytest.raises(ValueError):
            store.data_slice(-1, 2)
        with pytest.raises(ValueError):
            store.data_slice(0, tiny_graph.num_data + 1)
        with pytest.raises(ValueError):
            store.data_range(4, 4)

    def test_edge_balanced_ranges(self, tmp_path):
        """One hub vertex holding most edges must not drag every other
        vertex into its worker's range."""
        rng = np.random.default_rng(2)
        q = np.concatenate([rng.integers(0, 400, 4000), np.arange(400)])
        d = np.concatenate([np.zeros(4000, dtype=np.int64), rng.integers(1, 50, 400)])
        g = BipartiteGraph.from_edges(q, d, num_queries=400, num_data=50)
        path = tmp_path / "hub.rgs"
        write_store(g, path)
        store = GraphStore.open(path)
        lo, hi = store.data_range(0, 4)
        assert hi <= 2  # the hub's edge mass fills worker 0's share


class TestConverter:
    @pytest.mark.parametrize("chunk_edges", [64, 257, 1 << 20])
    def test_hmetis_pins_from_edges(self, tmp_path, chunk_edges):
        g = _random_graph(11)
        src = tmp_path / "g.hgr"
        write_hmetis(g, src)
        header = convert_to_store(src, tmp_path / "g.rgs", chunk_edges=chunk_edges)
        view = open_store_view(tmp_path / "g.rgs")
        view.validate()
        _assert_same_graph(g, view)
        assert header.num_edges == g.num_edges

    @pytest.mark.parametrize("chunk_edges", [100, 1 << 20])
    def test_npz_streams_without_materializing(self, tmp_path, chunk_edges):
        g = _random_graph(12)
        src = tmp_path / "g.npz"
        save_npz(g, src)
        convert_to_store(src, tmp_path / "g.rgs", chunk_edges=chunk_edges)
        view = open_store_view(tmp_path / "g.rgs")
        _assert_same_graph(g, view)

    def test_edge_list_with_duplicates_matches_from_edges(self, tmp_path):
        """Duplicate pairs in the source dedupe exactly like from_edges."""
        rng = np.random.default_rng(13)
        q = rng.integers(0, 40, 900)
        d = rng.integers(0, 60, 900)  # dense: plenty of duplicate pairs
        g = BipartiteGraph.from_edges(q, d)  # dedupe=True is the default
        src = tmp_path / "dups.tsv"
        with src.open("w") as handle:
            for qi, di in zip(q.tolist(), d.tolist()):
                handle.write(f"{qi}\t{di}\n")
        convert_to_store(src, tmp_path / "dups.rgs", chunk_edges=128)
        view = open_store_view(tmp_path / "dups.rgs")
        for attr in ("q_indptr", "q_indices", "d_indptr", "d_indices"):
            assert np.array_equal(getattr(g, attr), getattr(view, attr)), attr

    def test_matches_direct_write_store(self, tmp_path, medium_graph):
        """convert(file) and write_store(in-memory graph) must agree."""
        src = tmp_path / "m.hgr"
        write_hmetis(medium_graph, src)
        convert_to_store(src, tmp_path / "a.rgs", chunk_edges=333)
        write_store(medium_graph, tmp_path / "b.rgs")
        _assert_same_graph(
            open_store_view(tmp_path / "a.rgs"), open_store_view(tmp_path / "b.rgs")
        )

    def test_weighted_hmetis_keeps_both_weight_columns(self, tmp_path):
        g = _random_graph(14, weights=True)
        src = tmp_path / "w.hgr"
        write_hmetis(g, src)
        convert_to_store(src, tmp_path / "w.rgs", chunk_edges=100)
        view = open_store_view(tmp_path / "w.rgs")
        assert np.array_equal(np.asarray(view.data_weights), np.asarray(g.data_weights))
        assert np.array_equal(
            np.asarray(view.query_weights), np.asarray(g.query_weights)
        )

    def test_spill_files_cleaned_up(self, tmp_path):
        g = _random_graph(15)
        src = tmp_path / "g.hgr"
        write_hmetis(g, src)
        convert_to_store(src, tmp_path / "g.rgs", chunk_edges=50)
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".rgs-spill")]
        assert leftovers == []

    @pytest.mark.parametrize("chunk_edges", [0, -5])
    @pytest.mark.parametrize("suffix", [".hgr", ".npz"])
    def test_a_chunk_that_holds_no_edge_is_refused(self, tmp_path, chunk_edges, suffix):
        """`--chunk-edges 0` used to write a store with none of the edges
        and exit 0; `-5` died in a reader (`read length must be ...`)."""
        from repro.cli import main

        src, dst = tmp_path / f"g{suffix}", tmp_path / "g.rgs"
        save_graph(_random_graph(16), src)
        with pytest.raises(StorageError, match=f"chunk_edges must be at least 1, got {chunk_edges}"):
            convert_to_store(src, dst, chunk_edges=chunk_edges)
        with pytest.raises(SystemExit, match=r"^error: chunk_edges must be at least 1"):
            main(["convert", str(src), str(dst), "--chunk-edges", str(chunk_edges)])
        assert not dst.exists()

    @pytest.mark.parametrize("name, text, where", [
        ("g.tsv", "0 1\n5\n", r"line 2: .*'5'"),
        ("g.tsv", "0\ta\n", r"line 1: .*'a'"),
        ("g.hgr", "2 4\n1 2\n3 x7\n", r"hyperedge 1: .*'x7'"),
        # Raw OverflowError / IndexError / ValueError until PR 19:
        ("g.hgr", "1 4\n1 99999999999999999999\n", r"hyperedge 0: .*'99999999999999999999'"),
        ("g.tsv", "0 99999999999999999999\n", r"line 1: .*'99999999999999999999'"),
        ("g.hgr", "1 2 10\n1 2\n\n3\n", r"line 3: missing vertex weight"),
        ("g.hgr", "1 2 10\n1 2\n2\nheavy\n", r"line 4: .*'heavy'"),
        ("g.hgr", "1 4 1\nabc 1 2\n", r"hyperedge 0: .*'abc'"),
        ("g.hgr", "a b\n", r"line 1 \(hMetis header\): .*'a'"),
    ], ids=["tsv-one-field", "tsv-bad-id", "hgr-bad-pin", "hgr-pin-overflow",
            "tsv-id-overflow", "hgr-blank-vertex-weight", "hgr-bad-vertex-weight",
            "hgr-bad-edge-weight", "hgr-bad-header"])
    def test_malformed_source_is_a_validation_error(self, tmp_path, name, text, where):
        from repro.hypergraph.bipartite import GraphValidationError

        src = tmp_path / name
        src.write_text(text)
        with pytest.raises(GraphValidationError, match=where):
            convert_to_store(src, tmp_path / "g.rgs")
        leftovers = [p for p in tmp_path.iterdir() if p.name != name]
        assert leftovers == []  # no half-written store, no spill files

    def test_percent_comments_are_skipped(self, tmp_path):
        """``%`` lines vanish wherever they stand; a blank line is a hyperedge."""
        g = _random_graph(16, nq=40, nd=50, m=300)
        plain = io.StringIO()
        write_hmetis(g, plain)
        lines = plain.getvalue().splitlines(keepends=True)
        commented = ["% made by a tool\n", "%\n"]
        for i, line in enumerate(lines):
            commented.append(line)
            if i % 7 == 0:
                commented.append(f"  % after line {i}\n")
        src = tmp_path / "c.hgr"
        src.write_text("".join(commented))
        convert_to_store(src, tmp_path / "c.rgs", chunk_edges=32)
        _assert_same_graph(g, open_store_view(tmp_path / "c.rgs"))

    @pytest.mark.parametrize("order", ["canonical", "shuffled", "duplicated"])
    def test_edge_order_and_duplicates_do_not_reach_the_store(self, tmp_path, order):
        """One canonicalization (``sorted_unique``) for ``from_edges`` and the
        converter: the store bytes depend on the edge *set* only."""
        rng = np.random.default_rng(17)
        g = _random_graph(17, weights=False)
        q, d = g.q_of_edge, g.q_indices
        if order != "canonical":
            extra = rng.integers(0, q.size, q.size // 3 if order == "duplicated" else 0)
            pick = rng.permutation(np.concatenate([np.arange(q.size), extra]))
            q, d = q[pick], d[pick]
        src = tmp_path / "g.tsv"
        src.write_text("".join(f"{a}\t{b}\n" for a, b in zip(q.tolist(), d.tolist())))
        header = convert_to_store(src, tmp_path / "g.rgs", chunk_edges=200)
        assert header.num_edges == g.num_edges
        direct = BipartiteGraph.from_edges(q, d, num_queries=g.num_queries, num_data=g.num_data)
        view = open_store_view(tmp_path / "g.rgs")
        for attr in ("q_indptr", "q_indices", "d_indptr", "d_indices"):
            assert getattr(direct, attr).tobytes() == getattr(g, attr).tobytes(), attr
            assert getattr(view, attr).tobytes() == getattr(g, attr).tobytes(), attr

    def test_store_bytes_do_not_depend_on_the_bucket_count(self, tmp_path):
        """``_scatter`` by stable sort: 1 to ~345 buckets per side on a
        21k-pin graph, one store, byte for byte."""
        g = _random_graph(18, nq=3000, nd=4000, m=21_000)
        assert g.num_edges > 20_000
        src = tmp_path / "g.hgr"
        write_hmetis(g, src)
        stores = set()
        for chunk_edges in (64, 257, 2048, 1 << 20):
            dst = tmp_path / f"g{chunk_edges}.rgs"
            convert_to_store(src, dst, chunk_edges=chunk_edges, name="g")
            stores.add(dst.read_bytes())
        assert len(stores) == 1
        _assert_same_graph(g, open_store_view(dst))

    def test_unknown_source_suffix_rejected(self, tmp_path):
        from repro.hypergraph.bipartite import GraphValidationError

        with pytest.raises(GraphValidationError, match="cannot stream-convert"):
            convert_to_store(tmp_path / "g.xyz", tmp_path / "g.rgs")
