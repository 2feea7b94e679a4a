"""Serialization for bipartite graphs / hypergraphs.

Three formats are supported:

* **hMetis** (``.hgr``) — the de-facto exchange format among the partitioners
  the paper compares against (hMetis, PaToH, Mondriaan, Parkway, Zoltan).
  First line: ``num_hyperedges num_vertices [fmt]``; each subsequent line
  lists the 1-based vertex ids of one hyperedge.  ``fmt`` 1/11 prefix each
  hyperedge line with a weight, 10/11 append a vertex-weight section.
  Hyperedge weights map exactly onto SHP's traffic ``query_weights`` (the
  weighted-fanout objectives), vertex weights onto ``data_weights``; both
  round-trip.
* **edge list** (``.tsv``) — one ``query<TAB>data`` pair per line.
* **NPZ** — a compact numpy archive for checkpoints and large graphs.
"""

from __future__ import annotations

import io as _stdio
from pathlib import Path
from typing import TextIO

import numpy as np

from .bipartite import BipartiteGraph, GraphValidationError
from .hypergraph import Hypergraph

__all__ = [
    "write_hmetis",
    "read_hmetis",
    "iter_hmetis_edge_chunks",
    "read_hmetis_header",
    "read_hmetis_vertex_weights",
    "write_edge_list",
    "iter_edge_list_chunks",
    "read_edge_list",
    "save_npz",
    "load_npz",
    "load_graph",
    "save_graph",
]

#: Extensions understood by :func:`load_graph` / :func:`save_graph`.
#: ``.rgs`` is the binary columnar store (:mod:`repro.storage`).
GRAPH_SUFFIXES = (".hgr", ".tsv", ".txt", ".edges", ".npz", ".rgs")

#: Default edge-chunk size for the streaming hMetis parser.
HMETIS_CHUNK_EDGES = 1 << 18


def load_graph(path: str | Path) -> BipartiteGraph:
    """Load a graph, dispatching on the file extension.

    ``.hgr`` → hMetis, ``.tsv`` / ``.txt`` / ``.edges`` → edge list,
    ``.npz`` → this package's archive format, ``.rgs`` → zero-copy
    mmap view of a binary graph store (:mod:`repro.storage`).
    """
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".hgr":
        return read_hmetis(path, name=path.stem)
    if suffix in (".tsv", ".txt", ".edges"):
        return read_edge_list(path, name=path.stem)
    if suffix == ".npz":
        return load_npz(path)
    if suffix == ".rgs":
        from ..storage import open_store_view

        return open_store_view(path)
    raise GraphValidationError(
        f"unrecognized graph format {suffix!r} (known: {', '.join(GRAPH_SUFFIXES)})"
    )


def save_graph(graph: BipartiteGraph, path: str | Path) -> None:
    """Write a graph, dispatching on the file extension (see :func:`load_graph`)."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".hgr":
        write_hmetis(graph, path)
    elif suffix in (".tsv", ".txt", ".edges"):
        write_edge_list(graph, path)
    elif suffix == ".npz":
        save_npz(graph, path)
    elif suffix == ".rgs":
        from ..storage import write_store

        write_store(graph, path)
    else:
        raise GraphValidationError(
            f"unrecognized output format {suffix!r} (known: {', '.join(GRAPH_SUFFIXES)})"
        )


def _open_for_read(path_or_file) -> tuple[TextIO, bool]:
    if hasattr(path_or_file, "read"):
        return path_or_file, False
    return open(path_or_file, "r", encoding="utf-8"), True


def _open_for_write(path_or_file) -> tuple[TextIO, bool]:
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w", encoding="utf-8"), True


def _format_weight(value: float) -> str:
    """Integral weights as ints (canonical hMetis), fractional ones exactly."""
    value = float(value)
    if value == int(value):
        return str(int(value))
    return repr(value)


def write_hmetis(graph: BipartiteGraph | Hypergraph, path_or_file) -> None:
    """Write a graph in hMetis ``.hgr`` format (1-based vertex ids).

    The fmt flag follows the hMetis convention: ``1`` when hyperedge
    weights are present (emitted from ``query_weights``), ``10`` for
    vertex weights (``data_weights``), ``11`` for both.
    """
    bip = graph.bipartite if isinstance(graph, Hypergraph) else graph
    handle, owned = _open_for_write(path_or_file)
    try:
        has_vertex_weights = bip.data_weights is not None
        has_edge_weights = bip.query_weights is not None
        if has_edge_weights and has_vertex_weights:
            fmt = " 11"
        elif has_edge_weights:
            fmt = " 1"
        elif has_vertex_weights:
            fmt = " 10"
        else:
            fmt = ""
        handle.write(f"{bip.num_queries} {bip.num_data}{fmt}\n")
        edge_weights = (
            np.asarray(bip.query_weights, dtype=np.float64) if has_edge_weights else None
        )
        for q in range(bip.num_queries):
            pins = bip.query_neighbors(q) + 1
            prefix = f"{_format_weight(edge_weights[q])} " if has_edge_weights else ""
            handle.write(prefix + " ".join(map(str, pins.tolist())) + "\n")
        if has_vertex_weights:
            weights = np.asarray(bip.data_weights)
            primary = weights[:, 0] if weights.ndim == 2 else weights
            # Exact like the hyperedge weights above: rounding to int here
            # silently corrupted fractional data_weights on round-trip.
            for w in primary:
                handle.write(f"{_format_weight(w)}\n")
    finally:
        if owned:
            handle.close()


def read_hmetis_header(handle: TextIO) -> tuple[int, int, bool, bool]:
    """Consume and decode the hMetis header line.

    Returns ``(num_hyperedges, num_vertices, has_edge_weights,
    has_vertex_weights)``.
    """
    header = handle.readline().split()
    if len(header) < 2:
        raise GraphValidationError("hMetis header must contain at least two fields")
    num_edges, num_vertices = int(header[0]), int(header[1])
    fmt = header[2] if len(header) > 2 else "0"
    return num_edges, num_vertices, fmt in ("1", "11"), fmt in ("10", "11")


def iter_hmetis_edge_chunks(
    handle: TextIO,
    num_edges: int,
    has_edge_weights: bool,
    edge_weights_out: np.ndarray | None = None,
    chunk_edges: int = HMETIS_CHUNK_EDGES,
):
    """Stream the hyperedge section as bounded ``(query, data)`` chunks.

    Yields 0-based ``(q_ids, d_ids)`` int64 array pairs of at most
    ``chunk_edges`` incidences each, reading the file line by line —
    never more than one chunk of edges is resident.  When the file has
    hyperedge weights they are written into ``edge_weights_out`` (one
    slot per hyperedge) as the lines pass by.  This single parser backs
    both :func:`read_hmetis` and the out-of-core store converter, so the
    two paths cannot drift.
    """
    qs: list[int] = []
    ds: list[int] = []
    for qid in range(num_edges):
        line = handle.readline()
        if not line:
            raise GraphValidationError(
                f"expected {num_edges} hyperedges, file ended early"
            )
        fields = line.split()
        if has_edge_weights:
            if not fields:
                raise GraphValidationError(f"hyperedge {qid} missing its weight")
            # Hyperedge weights are SHP's traffic query weights: every
            # objective becomes its traffic-weighted expectation.
            if edge_weights_out is not None:
                edge_weights_out[qid] = float(fields[0])
            fields = fields[1:]
        qs.extend([qid] * len(fields))
        try:
            for f in fields:
                ds.append(int(f) - 1)
        except ValueError as exc:
            raise GraphValidationError(f"hyperedge {qid}: {exc}") from None
        if len(qs) >= chunk_edges:
            yield np.asarray(qs, dtype=np.int64), np.asarray(ds, dtype=np.int64)
            qs, ds = [], []
    if qs:
        yield np.asarray(qs, dtype=np.int64), np.asarray(ds, dtype=np.int64)


def _gather_chunks(chunks) -> tuple[np.ndarray, np.ndarray]:
    """Drain a ``(q_ids, d_ids)`` chunk stream into two whole edge arrays."""
    chunks = list(chunks)
    if not chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return (
        np.concatenate([q for q, _ in chunks]),
        np.concatenate([d for _, d in chunks]),
    )


def read_hmetis_vertex_weights(handle: TextIO, num_vertices: int) -> np.ndarray:
    """Read the trailing vertex-weight section (fmt 10/11)."""
    weights = np.empty(num_vertices, dtype=np.float64)
    for v in range(num_vertices):
        line = handle.readline()
        if not line:
            raise GraphValidationError("vertex weight section ended early")
        weights[v] = float(line.split()[0])
    return weights


def read_hmetis(
    path_or_file, name: str = "", chunk_edges: int = HMETIS_CHUNK_EDGES
) -> BipartiteGraph:
    """Read an hMetis ``.hgr`` file into a :class:`BipartiteGraph`.

    Parses the hyperedge section in bounded chunks (numpy arrays of at
    most ``chunk_edges`` incidences) instead of materializing per-edge
    Python lists for the whole file — the peak transient is one chunk
    plus the accumulated int64 edge arrays, roughly a third of the old
    reader's footprint on large graphs, and identical output.
    """
    handle, owned = _open_for_read(path_or_file)
    try:
        num_edges, num_vertices, has_edge_weights, has_vertex_weights = (
            read_hmetis_header(handle)
        )
        edge_weights = (
            np.empty(num_edges, dtype=np.float64) if has_edge_weights else None
        )
        q_ids, d_ids = _gather_chunks(
            iter_hmetis_edge_chunks(
                handle, num_edges, has_edge_weights, edge_weights, chunk_edges
            )
        )
        weights = (
            read_hmetis_vertex_weights(handle, num_vertices)
            if has_vertex_weights
            else None
        )
        return BipartiteGraph.from_edges(
            q_ids,
            d_ids,
            num_queries=num_edges,
            num_data=num_vertices,
            data_weights=weights,
            query_weights=edge_weights,
            name=name,
        )
    finally:
        if owned:
            handle.close()


def write_edge_list(graph: BipartiteGraph, path_or_file) -> None:
    """Write ``query<TAB>data`` pairs, one incidence per line."""
    handle, owned = _open_for_write(path_or_file)
    try:
        q_of_edge = graph.q_of_edge
        buf = _stdio.StringIO()
        for q, d in zip(q_of_edge.tolist(), graph.q_indices.tolist()):
            buf.write(f"{q}\t{d}\n")
        handle.write(buf.getvalue())
    finally:
        if owned:
            handle.close()


def iter_edge_list_chunks(handle: TextIO, chunk_edges: int = HMETIS_CHUNK_EDGES):
    """Stream ``query<TAB>data`` lines as bounded ``(query, data)`` chunks.

    Yields int64 array pairs of at most ``chunk_edges`` incidences each;
    blank lines and ``#`` comments are skipped.  This single parser backs
    both :func:`read_edge_list` and the out-of-core store converter, so
    the two paths cannot drift.
    """
    qs: list[int] = []
    ds: list[int] = []
    for lineno, line in enumerate(handle, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) < 2:
            raise GraphValidationError(
                f"line {lineno}: expected 'query data', got {line.strip()!r}"
            )
        try:
            qs.append(int(parts[0]))
            ds.append(int(parts[1]))
        except ValueError as exc:
            raise GraphValidationError(f"line {lineno}: {exc}") from None
        if len(qs) >= chunk_edges:
            yield np.asarray(qs, dtype=np.int64), np.asarray(ds, dtype=np.int64)
            qs, ds = [], []
    if qs:
        yield np.asarray(qs, dtype=np.int64), np.asarray(ds, dtype=np.int64)


def read_edge_list(path_or_file, name: str = "") -> BipartiteGraph:
    """Read ``query<TAB>data`` pairs (comments with ``#`` allowed)."""
    handle, owned = _open_for_read(path_or_file)
    try:
        return BipartiteGraph.from_edges(
            *_gather_chunks(iter_edge_list_chunks(handle)), name=name
        )
    finally:
        if owned:
            handle.close()


def save_npz(graph: BipartiteGraph, path: str | Path) -> None:
    """Save a graph as a compact ``.npz`` archive."""
    payload = {
        "num_queries": np.int64(graph.num_queries),
        "num_data": np.int64(graph.num_data),
        "q_indptr": graph.q_indptr,
        "q_indices": graph.q_indices,
        "name": np.str_(graph.name),
    }
    if graph.data_weights is not None:
        payload["data_weights"] = np.asarray(graph.data_weights)
    if graph.query_weights is not None:
        payload["query_weights"] = np.asarray(graph.query_weights)
    np.savez_compressed(path, **payload)


def load_npz(path: str | Path) -> BipartiteGraph:
    """Load a graph produced by :func:`save_npz`."""
    with np.load(path, allow_pickle=False) as archive:
        q_indptr = archive["q_indptr"]
        q_indices = archive["q_indices"]
        num_queries = int(archive["num_queries"])
        num_data = int(archive["num_data"])
        name = str(archive["name"])
        weights = archive["data_weights"] if "data_weights" in archive else None
        query_weights = (
            archive["query_weights"] if "query_weights" in archive else None
        )
    degrees = np.diff(q_indptr)
    q_of_edge = np.repeat(np.arange(num_queries, dtype=np.int64), degrees)
    return BipartiteGraph.from_edges(
        q_of_edge,
        q_indices,
        num_queries=num_queries,
        num_data=num_data,
        data_weights=weights,
        query_weights=query_weights,
        name=name,
        dedupe=False,
    )
