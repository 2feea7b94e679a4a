"""Chunked out-of-core conversion of text/archive graphs into ``.rgs`` stores.

:func:`convert_to_store` builds the dual-CSR store without ever holding
the edge set in memory — resident state is bounded by one edge chunk
(``chunk_edges`` incidences) plus the vertex-scale degree/weight arrays,
regardless of how many edges the source has.  The build is a classic
spill-and-merge external CSR construction:

1. **Ingest** — stream the source (hMetis / edge list / npz) as bounded
   edge chunks, appending raw ``(q, d)`` int64 pairs to a spill file
   while accumulating per-vertex raw degree counts.
2. **Scatter** — plan contiguous query-id buckets whose raw edge counts
   fit in one chunk, and re-stream the spill into one file per bucket.
3. **Merge q-side** — per bucket (ascending), dedupe with the same
   composite-key ``sorted_unique`` as ``BipartiteGraph.from_edges`` (all
   duplicates of a pair share its bucket, so per-bucket dedupe is
   global dedupe) and append the sorted adjacency straight into the
   store's ``q_indices`` section; scatter the surviving pairs into
   data-id buckets for the reverse direction.
4. **Merge d-side** — per data bucket, sort by ``(d, q)`` and append to
   ``d_indices``; then stamp both indptr sections from the true
   (post-dedupe) degrees and the weight columns.

The resulting store views array-identically to
``write_store(load_graph(src))`` — the converter's canonical ordering
matches ``from_edges`` exactly, which the tests pin.  (The files
themselves differ in section order: the converter streams ``q_indices`` /
``d_indices`` first because their lengths settle last.)
"""

from __future__ import annotations

import tempfile
import zipfile
from pathlib import Path
from typing import Iterator

import numpy as np

from ..hypergraph.bipartite import GraphValidationError, plan_row_ranges, sorted_unique
from ..hypergraph.io import (
    TokenLines,
    iter_edge_list_chunks,
    iter_hmetis_edge_chunks,
    read_hmetis_header,
    read_hmetis_vertex_weights,
)
from .format import StorageError, StoreHeader, StoreWriter

__all__ = ["convert_to_store", "CONVERT_SUFFIXES"]

#: Source formats the converter can stream.
CONVERT_SUFFIXES = (".hgr", ".tsv", ".txt", ".edges", ".npz")

#: Default chunk size: 1M incidences ≈ 16 MiB of resident pair data.
DEFAULT_CHUNK_EDGES = 1 << 20


# ----------------------------------------------------------------------
# Streaming sources
# ----------------------------------------------------------------------
class _HmetisSource:
    """Streams an ``.hgr`` file; weight sections land on the instance."""

    def __init__(self, path: Path, chunk_edges: int):
        self._path = path
        self._chunk_edges = chunk_edges
        self.num_queries: int | None = None
        self.num_data: int | None = None
        self.query_weights: np.ndarray | None = None
        self.data_weights: np.ndarray | None = None

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        with self._path.open("rb") as handle:
            lines = TokenLines(handle, "%", self._chunk_edges)
            nq, nd, has_qw, has_vw = read_hmetis_header(lines)
            self.num_queries, self.num_data = nq, nd
            if has_qw:
                self.query_weights = np.empty(nq, dtype=np.float64)
            yield from iter_hmetis_edge_chunks(lines, nq, has_qw, self.query_weights)
            if has_vw:
                self.data_weights = read_hmetis_vertex_weights(lines, nd)


class _EdgeListSource:
    """Streams a ``query<TAB>data`` text file; ranges inferred by the build."""

    def __init__(self, path: Path, chunk_edges: int):
        self._path = path
        self._chunk_edges = chunk_edges
        self.num_queries: int | None = None
        self.num_data: int | None = None
        self.query_weights = None
        self.data_weights = None

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        with self._path.open("rb") as handle:
            yield from iter_edge_list_chunks(handle, self._chunk_edges)


def _iter_npy_member(
    archive: zipfile.ZipFile, member: str, chunk_items: int
) -> Iterator[np.ndarray]:
    """Stream a 1-D array member of an npz archive in bounded chunks.

    Decompresses incrementally through the zip stream — the member is
    never fully resident.  Falls back to one whole-array chunk for npy
    header versions this reader does not know.
    """
    with archive.open(member) as stream:
        version = np.lib.format.read_magic(stream)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(stream)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(stream)
        else:  # pragma: no cover - future npy versions
            yield np.lib.format.read_array(stream, allow_pickle=False)
            return
        total = int(np.prod(shape, dtype=np.int64))
        itemsize = dtype.itemsize
        remaining = total
        while remaining:
            take = min(remaining, chunk_items)
            raw = stream.read(take * itemsize)
            if len(raw) != take * itemsize:
                raise GraphValidationError(
                    f"npz member {member!r} ended {take * itemsize - len(raw)} "
                    "bytes early"
                )
            yield np.frombuffer(raw, dtype=dtype)
            remaining -= take


class _NpzSource:
    """Streams a ``save_npz`` archive without materializing ``q_indices``."""

    def __init__(self, path: Path, chunk_edges: int):
        self._path = path
        self._chunk_edges = chunk_edges
        with np.load(path, allow_pickle=False) as archive:
            self.num_queries = int(archive["num_queries"])
            self.num_data = int(archive["num_data"])
            # Vertex-scale members are bounded-RSS by definition; only the
            # edge-scale q_indices member needs the streaming path.
            self._q_indptr = np.asarray(archive["q_indptr"], dtype=np.int64)
            self.data_weights = (
                np.asarray(archive["data_weights"])
                if "data_weights" in archive
                else None
            )
            self.query_weights = (
                np.asarray(archive["query_weights"])
                if "query_weights" in archive
                else None
            )

    def chunks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        indptr = self._q_indptr
        offset = 0
        with zipfile.ZipFile(self._path) as archive:
            for d_chunk in _iter_npy_member(
                archive, "q_indices.npy", self._chunk_edges
            ):
                # Row of edge slot e: the indptr interval containing e.
                slots = np.arange(offset, offset + d_chunk.size, dtype=np.int64)
                q_chunk = np.searchsorted(indptr, slots, side="right") - 1
                yield q_chunk, np.asarray(d_chunk, dtype=np.int64)
                offset += d_chunk.size


def _open_source(path: Path, chunk_edges: int):
    suffix = path.suffix.lower()
    if suffix == ".hgr":
        return _HmetisSource(path, chunk_edges)
    if suffix in (".tsv", ".txt", ".edges"):
        return _EdgeListSource(path, chunk_edges)
    if suffix == ".npz":
        return _NpzSource(path, chunk_edges)
    raise GraphValidationError(
        f"cannot stream-convert {suffix!r} (known: {', '.join(CONVERT_SUFFIXES)})"
    )


# ----------------------------------------------------------------------
# External CSR build
# ----------------------------------------------------------------------
def _grow_accumulate(counts: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Add a bincount of ``ids`` into ``counts``, growing it as needed."""
    if ids.size == 0:
        return counts
    need = int(ids.max()) + 1
    if need > counts.size:
        grown = np.zeros(max(need, 2 * counts.size), dtype=np.int64)
        grown[: counts.size] = counts
        counts = grown
    counts += np.bincount(ids, minlength=counts.size)
    return counts


def _plan_buckets(degrees: np.ndarray, cap: int) -> np.ndarray:
    """Contiguous vertex-range boundaries with ≤ ``cap`` edges per range."""
    cum = np.concatenate(([0], np.cumsum(degrees, dtype=np.int64)))
    return plan_row_ranges(cum, cap)


def _iter_pair_file(path: Path, chunk_edges: int) -> Iterator[np.ndarray]:
    """Stream a raw spill file as ``(n, 2)`` int64 pair chunks."""
    with path.open("rb") as handle:
        while True:
            raw = handle.read(chunk_edges * 16)
            if not raw:
                return
            yield np.frombuffer(raw, dtype="<i8").reshape(-1, 2)


def _scatter(
    pairs: np.ndarray,
    column: int,
    bounds: np.ndarray,
    handles: list,
) -> None:
    """Append each pair row to the bucket file its ``column`` id falls in.

    One stable sort of the chunk by bucket, then one contiguous slice per
    bucket the chunk touches: O(chunk log chunk) whatever the number of
    buckets, and a chunk that lands in a single bucket is written as it is.
    """
    if len(handles) == 1:
        handles[0].write(pairs)
        return
    # The narrowest bucket dtype: numpy's stable sort of <= 16-bit keys is a
    # radix sort.
    bucket = (np.searchsorted(bounds, pairs[:, column], side="right") - 1).astype(
        np.min_scalar_type(len(handles))
    )
    counts = np.bincount(bucket, minlength=len(handles))
    touched = np.flatnonzero(counts)
    if touched.size > 1:
        pairs = pairs[np.argsort(bucket, kind="stable")]
    ends = np.cumsum(counts)
    for b in touched.tolist():
        handles[b].write(pairs[ends[b] - counts[b] : ends[b]])


def convert_to_store(
    src: str | Path,
    dst: str | Path,
    chunk_edges: int = DEFAULT_CHUNK_EDGES,
    name: str | None = None,
) -> StoreHeader:
    """Stream-convert ``src`` into the ``.rgs`` store ``dst``.

    Never materializes the full edge set: peak RSS is one ``chunk_edges``
    bucket of pairs plus vertex-scale arrays.  Spill files live in a
    temporary directory next to ``dst`` (same filesystem) and are
    removed on exit, success or failure.  Returns the finalized header.
    """
    src, dst = Path(src), Path(dst)
    if chunk_edges < 1:
        # 0 reads no edges and writes a store without them; < 0 dies in a reader.
        raise StorageError(f"chunk_edges must be at least 1, got {chunk_edges}")
    source = _open_source(src, chunk_edges)
    store_name = name if name is not None else src.stem
    with tempfile.TemporaryDirectory(
        dir=dst.parent, prefix=".rgs-spill-"
    ) as tmp_str:
        tmp = Path(tmp_str)
        # -- pass 1: ingest to spill, accumulate raw degrees -------------
        spill = tmp / "edges.raw"
        q_deg = np.zeros(1024, dtype=np.int64)
        d_deg = np.zeros(1024, dtype=np.int64)
        total_raw = 0
        with spill.open("wb") as out:
            for q_chunk, d_chunk in source.chunks():
                if q_chunk.size and (q_chunk.min() < 0 or d_chunk.min() < 0):
                    raise GraphValidationError("vertex ids must be non-negative")
                q_deg = _grow_accumulate(q_deg, q_chunk)
                d_deg = _grow_accumulate(d_deg, d_chunk)
                total_raw += q_chunk.size
                pairs = np.empty((q_chunk.size, 2), dtype="<i8")
                pairs[:, 0] = q_chunk
                pairs[:, 1] = d_chunk
                out.write(pairs)
        seen_q = int(np.flatnonzero(q_deg)[-1]) + 1 if q_deg.any() else 0
        seen_d = int(np.flatnonzero(d_deg)[-1]) + 1 if d_deg.any() else 0
        nq = source.num_queries if source.num_queries is not None else seen_q
        nd = source.num_data if source.num_data is not None else seen_d
        if seen_q > nq or seen_d > nd:
            raise GraphValidationError(
                f"{src}: edge endpoint out of declared vertex range "
                f"(saw q<{seen_q}, d<{seen_d}; declared {nq}x{nd})"
            )
        q_deg = np.resize(q_deg, nq) if q_deg.size >= nq else np.concatenate(
            [q_deg, np.zeros(nq - q_deg.size, dtype=np.int64)]
        )
        d_deg = np.resize(d_deg, nd) if d_deg.size >= nd else np.concatenate(
            [d_deg, np.zeros(nd - d_deg.size, dtype=np.int64)]
        )

        writer = StoreWriter(dst, num_queries=nq, num_data=nd, name=store_name)
        try:
            # -- pass 2a: scatter the spill into query-range buckets -----
            q_bounds = _plan_buckets(q_deg, chunk_edges)
            num_qb = max(len(q_bounds) - 1, 0)
            if num_qb <= 1:
                q_paths = [spill]
            else:
                q_paths = [tmp / f"q{i}.raw" for i in range(num_qb)]
                q_handles = [p.open("wb") for p in q_paths]
                try:
                    for pairs in _iter_pair_file(spill, chunk_edges):
                        _scatter(pairs, 0, q_bounds, q_handles)
                finally:
                    for h in q_handles:
                        h.close()
                spill.unlink()

            d_bounds = _plan_buckets(d_deg, chunk_edges)
            num_db = max(len(d_bounds) - 1, 0)
            d_paths = [tmp / f"d{i}.raw" for i in range(num_db)]
            d_handles = [p.open("wb") for p in d_paths]

            # -- pass 2b: dedupe + q-side merge, rescatter by data id ----
            true_q_deg = np.zeros(nq, dtype=np.int64)
            true_d_deg = np.zeros(nd, dtype=np.int64)
            num_edges = 0
            writer.begin_section("q_indices")
            try:
                for i, q_path in enumerate(q_paths):
                    raw = np.fromfile(q_path, dtype="<i8").reshape(-1, 2)
                    if raw.size == 0:
                        continue
                    # The canonicalization from_edges uses: distinct
                    # composite keys in (q, d) order.
                    key = sorted_unique(raw[:, 0] * nd + raw[:, 1])
                    q_ids = key // nd
                    d_ids = key % nd
                    writer.append(d_ids)
                    num_edges += key.size
                    lo, hi = (q_bounds[i], q_bounds[i + 1]) if num_qb > 1 else (0, nq)
                    true_q_deg[lo:hi] += np.bincount(q_ids - lo, minlength=hi - lo)
                    pairs = np.empty((key.size, 2), dtype="<i8")
                    pairs[:, 0] = q_ids
                    pairs[:, 1] = d_ids
                    _scatter(pairs, 1, d_bounds, d_handles)
                    if q_path != spill:
                        q_path.unlink()
            finally:
                for h in d_handles:
                    h.close()
            writer.end_section()

            # -- pass 3: d-side merge ------------------------------------
            writer.begin_section("d_indices")
            for i, d_path in enumerate(d_paths):
                raw = np.fromfile(d_path, dtype="<i8").reshape(-1, 2)
                if raw.size == 0:
                    continue
                # Sort by (d, q); pairs are already unique.  Within a row
                # this matches from_edges' stable d-sort of (q, d)-ordered
                # input: q ascending.
                order = np.argsort(raw[:, 1] * max(nq, 1) + raw[:, 0])
                writer.append(raw[order, 0])
                lo, hi = d_bounds[i], d_bounds[i + 1]
                true_d_deg[lo:hi] += np.bincount(raw[:, 1] - lo, minlength=hi - lo)
                d_path.unlink()
            writer.end_section()

            # -- indptr + weights ---------------------------------------
            q_indptr = np.concatenate(
                ([0], np.cumsum(true_q_deg, dtype=np.int64))
            )
            d_indptr = np.concatenate(
                ([0], np.cumsum(true_d_deg, dtype=np.int64))
            )
            writer.write_section("q_indptr", q_indptr)
            writer.write_section("d_indptr", d_indptr)
            if source.data_weights is not None:
                writer.write_section("data_weights", source.data_weights)
            if source.query_weights is not None:
                writer.write_section("query_weights", source.query_weights)
            return writer.finalize(num_edges=num_edges)
        except BaseException:
            writer.abort()
            raise
