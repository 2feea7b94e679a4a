"""The line-by-line text readers (``hypergraph/io.py`` until PR 19).

One ``readline()`` / ``split()`` / ``int()`` per line and per token: the
loops the block tokenizer (:class:`repro.hypergraph.io.TokenLines`)
replaced, kept statement for statement as what it is checked against.  Both
must yield the same ``(q, d)`` arrays and weight vectors, and raise
``GraphValidationError`` on the same hyperedge (0-based) / line (1-based).

The one change from the loops as they stood: ``.hgr`` lines are read through
:func:`_lines`, which skips ``%`` comments (new behaviour of PR 19, so the
oracle has to define it too), instead of ``handle.readline()``.

Nothing else was touched, so the two sides may differ on exactly the inputs
PR 19 fixed, where these loops let a raw exception escape or accept whatever
``int()`` accepts:

* a pin or id of more than 18 digits (``OverflowError`` out of
  ``np.asarray`` here, a named ``GraphValidationError`` there), and
  Python-only integer spellings such as ``1_000`` or non-ASCII digits
  (accepted here, a named error there);
* a blank vertex-weight line (``IndexError`` here);
* a non-numeric vertex weight, hyperedge weight or header field (bare
  ``ValueError`` here).
"""

from __future__ import annotations

import numpy as np

from repro.hypergraph import GraphValidationError

__all__ = [
    "read_hmetis_header",
    "iter_hmetis_edge_chunks",
    "read_hmetis_vertex_weights",
    "iter_edge_list_chunks",
    "parse_hmetis",
    "parse_edge_list",
]


def _lines(handle):
    """The lines of ``handle`` that are not ``%`` comments."""
    for line in handle:
        if not line.lstrip().startswith("%"):
            yield line


def read_hmetis_header(lines) -> tuple[int, int, bool, bool]:
    header = next(lines, "").split()
    if len(header) < 2:
        raise GraphValidationError("hMetis header must contain at least two fields")
    num_edges, num_vertices = int(header[0]), int(header[1])
    fmt = header[2] if len(header) > 2 else "0"
    return num_edges, num_vertices, fmt in ("1", "11"), fmt in ("10", "11")


def iter_hmetis_edge_chunks(lines, num_edges, has_edge_weights, edge_weights_out, chunk_edges):
    qs: list[int] = []
    ds: list[int] = []
    for qid in range(num_edges):
        line = next(lines, "")
        if not line:
            raise GraphValidationError(
                f"expected {num_edges} hyperedges, file ended early"
            )
        fields = line.split()
        if has_edge_weights:
            if not fields:
                raise GraphValidationError(f"hyperedge {qid} missing its weight")
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


def read_hmetis_vertex_weights(lines, num_vertices: int) -> np.ndarray:
    weights = np.empty(num_vertices, dtype=np.float64)
    for v in range(num_vertices):
        line = next(lines, "")
        if not line:
            raise GraphValidationError("vertex weight section ended early")
        weights[v] = float(line.split()[0])
    return weights


def iter_edge_list_chunks(handle, chunk_edges):
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


def _concat(chunks) -> tuple[np.ndarray, np.ndarray]:
    chunks = list(chunks)
    if not chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.concatenate([q for q, _ in chunks]), np.concatenate([d for _, d in chunks])


def parse_hmetis(handle, chunk_edges: int = 1 << 18):
    """``(q, d, num_edges, num_vertices, edge_weights, vertex_weights)`` of ``.hgr`` text."""
    lines = _lines(handle)
    num_edges, num_vertices, has_ew, has_vw = read_hmetis_header(lines)
    edge_weights = np.empty(num_edges, dtype=np.float64) if has_ew else None
    q, d = _concat(
        iter_hmetis_edge_chunks(lines, num_edges, has_ew, edge_weights, chunk_edges)
    )
    vertex_weights = read_hmetis_vertex_weights(lines, num_vertices) if has_vw else None
    return q, d, num_edges, num_vertices, edge_weights, vertex_weights


def parse_edge_list(handle, chunk_edges: int = 1 << 18):
    """``(q, d)`` of ``query<TAB>data`` text."""
    return _concat(iter_edge_list_chunks(handle, chunk_edges))
