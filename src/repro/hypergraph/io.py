"""Serialization for bipartite graphs / hypergraphs.

Three formats are supported:

* **hMetis** (``.hgr``) — the de-facto exchange format among the partitioners
  the paper compares against (hMetis, PaToH, Mondriaan, Parkway, Zoltan).
  First line: ``num_hyperedges num_vertices [fmt]``; each subsequent line
  lists the 1-based vertex ids of one hyperedge.  ``fmt`` 1/11 prefix each
  hyperedge line with a weight, 10/11 append a vertex-weight section.
  Lines starting with ``%`` are comments.
  Hyperedge weights map exactly onto SHP's traffic ``query_weights`` (the
  weighted-fanout objectives), vertex weights onto ``data_weights``; both
  round-trip.
* **edge list** (``.tsv``) — one ``query<TAB>data`` pair per line.
* **NPZ** — a compact numpy archive for checkpoints and large graphs.

Both text formats are read by one block tokenizer (:class:`TokenLines`):
whole blocks of text become integer arrays with no Python statement per
line or per token, and the writers format whole chunks of CSR rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, TextIO

import numpy as np

from .bipartite import BipartiteGraph, GraphValidationError, plan_row_ranges
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

#: Default edge-chunk size of the streaming text readers, and the number of
#: incidences the text writers format at a time.
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


def _open_for_read(path_or_file) -> tuple[BinaryIO | TextIO, bool]:
    if hasattr(path_or_file, "read"):
        return path_or_file, False
    return open(path_or_file, "rb"), True


def _open_for_write(path_or_file) -> tuple[TextIO, bool]:
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, "w", encoding="utf-8"), True


# ----------------------------------------------------------------------
# Block tokenizer: the one text parser under every reader
# ----------------------------------------------------------------------
#: Text bytes read per incidence of ``chunk_edges``.  A pin costs at least a
#: digit and a separator, so a block of ``2 * chunk_edges`` bytes tokenizes
#: to at most ``chunk_edges`` pins plus the line carried in from the
#: previous block — which is the bound the ``iter_*_chunks`` docstrings state.
TEXT_BYTES_PER_EDGE = 2

_SPACE, _DIGIT, _SIGN, _OTHER = range(4)
#: ``bytes.translate`` table: every byte of a block to its class above
#: (ASCII whitespace as ``bytes.split()`` defines it, digits, ``+``/``-``).
_BYTE_CLASS = bytes(
    _SPACE if c in b" \t\n\r\x0b\x0c"
    else _DIGIT if c in b"0123456789"
    else _SIGN if c in b"+-"
    else _OTHER
    for c in range(256)
)
#: Leading blanks of every block: the eight-byte windows that end in a token
#: never start before the buffer, and the first token has a left edge.
_PAD = b" " * 8
_MAX_DIGITS = 18  # 10**18 - 1 fits int64 with room to spare; 19 digits may not


def _parse_digit_words(words: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Decimal value of the last ``digits`` (1-8) ASCII bytes of each word.

    ``words`` are little-endian uint64 loads of the eight bytes that end
    where a token ends, so the token's last character is the top byte.
    Bytes in front of the token are shifted out, then three multiply-shift
    rounds add neighbouring digits, pairs and quads (the usual SWAR
    eight-digit parse, one array operation per step instead of one token).
    """
    u = np.uint64
    shift = ((8 - digits) * 8).astype(u)
    words = (words >> shift) << shift
    words = ((words & u(0x0F0F0F0F0F0F0F0F)) * u(2561)) >> u(8)
    words = ((words & u(0x00FF00FF00FF00FF)) * u(6553601)) >> u(16)
    return ((words & u(0x0000FFFF0000FFFF)) * u(42949672960001)) >> u(32)


@dataclass
class TokenRun:
    """Consecutive tokenized lines of one text block, as arrays.

    ``values[i]`` is the int64 value of token ``i`` and ``bad`` lists the
    tokens that are *not* ``[+-]?[0-9]{1,18}``: their ``values`` entry means
    nothing, and a reader must reject every one it would otherwise use.
    """

    text: bytes
    starts: np.ndarray  #: byte range of each token in ``text``
    ends: np.ndarray
    values: np.ndarray
    bad: np.ndarray  #: sorted token indices
    first: np.ndarray  #: index of each line's first token, then the token total
    numbers: np.ndarray  #: 1-based line number in the source, comments counted

    def __post_init__(self):
        self.counts = np.diff(self.first)  #: tokens per line

    def lines(self, lo: int, hi: int) -> "TokenRun":
        """The sub-run of lines ``lo:hi``."""
        if lo == 0 and hi == self.counts.size:
            return self
        t0, t1 = int(self.first[lo]), int(self.first[hi])
        bad = self.bad[(self.bad >= t0) & (self.bad < t1)] - t0
        return TokenRun(
            self.text, self.starts[t0:t1], self.ends[t0:t1], self.values[t0:t1],
            bad, self.first[lo : hi + 1] - t0, self.numbers[lo:hi],
        )

    def line_of(self, token: int) -> int:
        """The line (index into ``counts``) that holds ``token``."""
        return int(np.searchsorted(self.first, token, side="right")) - 1

    def token(self, token: int) -> str:
        raw = self.text[self.starts[token] : self.ends[token]]
        return raw.decode("utf-8", "replace")

    def not_an_integer(self, token: int) -> str:
        return (
            f"expected an integer of at most {_MAX_DIGITS} digits, "
            f"got {self.token(token)!r}"
        )

    def leading_weights(
        self, missing: str, problems: list[tuple[int, str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each line's first token as a float64 weight: ``(tokens, weights)``.

        Integer tokens convert as arrays; only a token the tokenizer flagged
        (``1.5``, ``2e3``) goes through ``float()``, one call each.  A line
        without tokens (``missing``) and a token that is no number are added
        to ``problems`` as ``(line, message)``.
        """
        present = np.flatnonzero(self.counts)
        if present.size < self.counts.size:
            problems.append((int(np.argmin(self.counts)), missing))
        tokens = self.first[present]
        weights = self.values[tokens].astype(np.float64)
        if self.bad.size:
            for pos in np.flatnonzero(np.isin(tokens, self.bad)).tolist():
                try:
                    weights[pos] = float(self.token(tokens[pos]))
                except ValueError:
                    got = self.token(tokens[pos])
                    problems.append((int(present[pos]), f"expected a number, got {got!r}"))
                    break
        return tokens, weights


def _tokenize(text: bytes, comment: bytes, lines_before: int) -> TokenRun:
    """Tokenize one block: ``_PAD``, then whole lines, the last one ended."""
    buf = np.frombuffer(text, dtype=np.uint8)
    cls = np.frombuffer(text.translate(_BYTE_CLASS), dtype=np.uint8)
    # The block starts blank and ends in a newline, so the positions where
    # blank and non-blank meet alternate token start, token end.
    in_token = cls != _SPACE
    edges = np.flatnonzero(in_token[1:] != in_token[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    newlines = np.flatnonzero(buf == ord("\n"))
    first = np.zeros(newlines.size + 1, dtype=np.int64)
    first[1:] = np.searchsorted(starts, newlines)
    numbers = np.arange(lines_before + 1, lines_before + 1 + newlines.size)
    if comment in text:
        # A line whose first token starts with the comment character
        # vanishes: its tokens are dropped and it is no line at all.
        counts = np.diff(first)
        lead = np.flatnonzero(counts)
        is_comment = np.zeros(counts.size, dtype=bool)
        is_comment[lead] = buf[starts[first[lead]]] == comment[0]
        keep = np.repeat(~is_comment, counts)
        starts, ends, numbers = starts[keep], ends[keep], numbers[~is_comment]
        first = np.concatenate(([0], np.cumsum(counts[~is_comment])))

    # Validate before any value is trusted: an optional sign, then 1-18
    # digits and nothing else.
    signed = cls[starts] == _SIGN
    digits = ends - starts - signed
    bad = (digits < 1) | (digits > _MAX_DIGITS)
    stray = np.flatnonzero(cls > _DIGIT)  # signs and non-numeric bytes
    if stray.size and starts.size:
        token = np.searchsorted(starts, stray, side="right") - 1
        inside = (token >= 0) & (stray < ends[token])  # not in a dropped comment
        leading_sign = (cls[stray] == _SIGN) & (stray == starts[token])
        bad[token[inside & ~leading_sign]] = True

    # One unaligned little-endian uint64 load per token end; tokens longer
    # than eight digits (rare) take a second and a third load further left.
    words = np.ndarray(buf.size - 7, dtype="<u8", buffer=text, strides=(1,))
    values = _parse_digit_words(words[ends - 8], np.minimum(digits, 8))
    for word, scale in ((1, 10**8), (2, 10**16)):
        more = np.flatnonzero((digits > 8 * word) & ~bad)
        if more.size == 0:
            break
        values[more] += np.uint64(scale) * _parse_digit_words(
            words[ends[more] - 8 * (word + 1)], np.minimum(digits[more] - 8 * word, 8)
        )
    values = values.view(np.int64)
    negative = np.flatnonzero(signed & (buf[starts] == ord("-")))
    values[negative] = -values[negative]
    return TokenRun(text, starts, ends, values, np.flatnonzero(bad), first, numbers)


class TokenLines:
    """A text source as lines of validated integer tokens, block by block.

    The one parser under :func:`read_hmetis`, :func:`read_edge_list` and the
    out-of-core converter.  Text is read in blocks of
    ``TEXT_BYTES_PER_EDGE * chunk_edges`` bytes, cut at the last newline (the
    rest is carried into the next block), and each block is tokenized with
    array operations only — no per-line or per-token Python:

    * tokens are maximal runs of non-whitespace bytes; ``\\n`` ends a line,
      ``\\r`` is whitespace, a missing final newline is supplied;
    * a line whose first token starts with ``comment`` is skipped entirely
      (it is no hyperedge, though it counts in line numbers);
    * a token is an integer only if it is ``[+-]?[0-9]{1,18}``: that is
      checked on the byte classes *before* its value is computed, and
      everything else — words, ``1.5``, 19 digits that might overflow int64,
      and Python-only spellings such as ``1_000`` that ``int()`` used to let
      through — is listed in :attr:`TokenRun.bad` for the reader to reject
      by name (or, for a weight, to hand to ``float()``).

    ``handle`` may be binary or text (``io.StringIO``, an open ``"r"``
    file); text is encoded per block.
    """

    def __init__(self, handle, comment: str, chunk_edges: int):
        self._handle = handle
        self._comment = comment.encode("ascii")
        self._block_bytes = TEXT_BYTES_PER_EDGE * max(int(chunk_edges), 1)
        self._carry = b""
        self._lines_read = 0
        self._block: TokenRun | None = None
        self._line = 0  # lines of the block already taken

    def _read_block(self) -> bool:
        """Tokenize the next newline-cut block; False at end of input."""
        pieces = [_PAD, self._carry]
        self._carry = b""
        while True:
            data = self._handle.read(self._block_bytes)
            if isinstance(data, str):
                data = data.encode("utf-8")
            cut = data.rfind(b"\n") + 1
            if cut:
                pieces.append(data[:cut])
                self._carry = data[cut:]
                break
            pieces.append(data)
            if not data:  # end of input: the last line may lack its newline
                if not any(pieces[1:]):
                    return False
                pieces.append(b"\n")
                break
        text = b"".join(pieces)
        self._block = _tokenize(text, self._comment, self._lines_read)
        self._lines_read += text.count(b"\n")
        self._line = 0
        return True

    def take(self, max_lines: int | None = None) -> TokenRun | None:
        """The next lines of the current block (at most ``max_lines``).

        Returns ``None`` at end of input.  Sections of a file that share a
        block (hyperedges, then vertex weights) each take their own lines.
        """
        while self._block is None or self._line == self._block.counts.size:
            if not self._read_block():
                return None
        end = self._block.counts.size
        if max_lines is not None:
            end = min(end, self._line + max_lines)
        run = self._block.lines(self._line, end)
        self._line = end
        return run


def _raise_first(problems: list[tuple[int, str]], where) -> None:
    """Raise the problem on the earliest line, as a line-by-line reader would."""
    if problems:
        line, message = min(problems)
        raise GraphValidationError(f"{where(line)}: {message}")


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
    vertex weights (``data_weights``), ``11`` for both.  Hyperedges are
    formatted a bounded chunk of rows at a time, straight from the CSR
    arrays, with no Python statement per hyperedge.
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
        indptr = bip.q_indptr
        if has_edge_weights:
            edge_weights = np.asarray(bip.query_weights, dtype=np.float64)
        bounds = plan_row_ranges(indptr, HMETIS_CHUNK_EDGES).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            cuts = (indptr[lo : hi + 1] - indptr[lo]).tolist()
            pins = list(map(str, (bip.q_indices[indptr[lo] : indptr[hi]] + 1).tolist()))
            rows = map(" ".join, map(pins.__getitem__, map(slice, cuts, cuts[1:])))
            if has_edge_weights:
                prefixes = [f"{_format_weight(w)} " for w in edge_weights[lo:hi].tolist()]
                rows = map(str.__add__, prefixes, rows)
            handle.write("\n".join(rows) + "\n")
        if has_vertex_weights:
            weights = np.asarray(bip.data_weights)
            primary = weights[:, 0] if weights.ndim == 2 else weights
            # Exact like the hyperedge weights above: rounding to int here
            # silently corrupted fractional data_weights on round-trip.
            for lo in range(0, primary.size, HMETIS_CHUNK_EDGES):
                chunk = primary[lo : lo + HMETIS_CHUNK_EDGES].tolist()
                handle.write("".join(f"{_format_weight(w)}\n" for w in chunk))
    finally:
        if owned:
            handle.close()


def read_hmetis_header(lines: TokenLines) -> tuple[int, int, bool, bool]:
    """Consume and decode the hMetis header line.

    Returns ``(num_hyperedges, num_vertices, has_edge_weights,
    has_vertex_weights)``.  ``%`` comment lines in front of it are skipped
    (by ``lines``, which must be at the start of the file).
    """
    run = lines.take(1)
    if run is None or run.counts[0] < 2:
        raise GraphValidationError("hMetis header must contain at least two fields")
    where = f"line {run.numbers[0]} (hMetis header)"
    if run.bad.size and run.bad[0] < 3:  # fields after the fmt flag are ignored
        raise GraphValidationError(f"{where}: {run.not_an_integer(int(run.bad[0]))}")
    num_edges, num_vertices = run.values[:2].tolist()
    if num_edges < 0 or num_vertices < 0:
        raise GraphValidationError(f"{where}: counts must be non-negative")
    fmt = int(run.values[2]) if run.counts[0] > 2 else 0
    return num_edges, num_vertices, fmt in (1, 11), fmt in (10, 11)


def iter_hmetis_edge_chunks(
    lines: TokenLines,
    num_edges: int,
    has_edge_weights: bool,
    edge_weights_out: np.ndarray | None = None,
):
    """Stream the hyperedge section as bounded ``(query, data)`` chunks.

    Yields 0-based ``(q_ids, d_ids)`` int64 array pairs, one per text block
    of ``lines``: at most its ``chunk_edges`` incidences plus the line that
    crosses the block boundary — never more than that is resident.  A blank
    line is a hyperedge without pins.  When the file has hyperedge weights
    they are written into ``edge_weights_out`` (one slot per hyperedge) as
    the lines pass by.  This single parser backs both :func:`read_hmetis`
    and the out-of-core store converter, so the two paths cannot drift.
    """
    qid = 0
    while qid < num_edges:
        run = lines.take(num_edges - qid)
        if run is None:
            raise GraphValidationError(
                f"expected {num_edges} hyperedges, file ended early"
            )
        counts, pins, bad_pins = run.counts, run.values, run.bad
        problems: list[tuple[int, str]] = []
        if has_edge_weights:
            # Hyperedge weights are SHP's traffic query weights: every
            # objective becomes its traffic-weighted expectation.
            weight_tokens, weights = run.leading_weights("missing its weight", problems)
            is_pin = np.ones(pins.size, dtype=bool)
            is_pin[weight_tokens] = False
            pins = pins[is_pin]
            bad_pins = bad_pins[is_pin[bad_pins]]
            counts = counts - (counts > 0)
            if edge_weights_out is not None and not problems:
                edge_weights_out[qid : qid + counts.size] = weights
        if bad_pins.size:
            token = int(bad_pins[0])
            problems.append((run.line_of(token), run.not_an_integer(token)))
        _raise_first(problems, lambda line: f"hyperedge {qid + line}")
        q_ids = np.repeat(np.arange(qid, qid + counts.size, dtype=np.int64), counts)
        yield q_ids, pins - 1
        qid += counts.size


def _gather_chunks(chunks) -> tuple[np.ndarray, np.ndarray]:
    """Drain a ``(q_ids, d_ids)`` chunk stream into two whole edge arrays."""
    chunks = list(chunks)
    if not chunks:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    return (
        np.concatenate([q for q, _ in chunks]),
        np.concatenate([d for _, d in chunks]),
    )


def read_hmetis_vertex_weights(lines: TokenLines, num_vertices: int) -> np.ndarray:
    """Read the trailing vertex-weight section (fmt 10/11).

    One weight per line, the first token; ``lines`` continues where the
    hyperedge section stopped, usually in the middle of a block.
    """
    weights = np.empty(num_vertices, dtype=np.float64)
    vertex = 0
    while vertex < num_vertices:
        run = lines.take(num_vertices - vertex)
        if run is None:
            raise GraphValidationError("vertex weight section ended early")
        problems: list[tuple[int, str]] = []
        _, parsed = run.leading_weights("missing vertex weight", problems)
        _raise_first(problems, lambda line: f"line {run.numbers[line]}")
        weights[vertex : vertex + parsed.size] = parsed
        vertex += parsed.size
    return weights


def read_hmetis(
    path_or_file, name: str = "", chunk_edges: int = HMETIS_CHUNK_EDGES
) -> BipartiteGraph:
    """Read an hMetis ``.hgr`` file into a :class:`BipartiteGraph`.

    Parses the file in text blocks sized from ``chunk_edges`` (see
    :class:`TokenLines`): the peak transient is one tokenized block plus the
    accumulated int64 edge arrays.  ``%`` comment lines are skipped wherever
    they stand; a pin, count or weight that is not a plain decimal number is
    a :class:`GraphValidationError` naming the hyperedge (0-based) or line
    (1-based) and the token.
    """
    handle, owned = _open_for_read(path_or_file)
    try:
        lines = TokenLines(handle, "%", chunk_edges)
        num_edges, num_vertices, has_edge_weights, has_vertex_weights = (
            read_hmetis_header(lines)
        )
        edge_weights = (
            np.empty(num_edges, dtype=np.float64) if has_edge_weights else None
        )
        q_ids, d_ids = _gather_chunks(
            iter_hmetis_edge_chunks(lines, num_edges, has_edge_weights, edge_weights)
        )
        weights = (
            read_hmetis_vertex_weights(lines, num_vertices)
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
        q_of_edge, d_of_edge = graph.q_of_edge, graph.q_indices
        for lo in range(0, graph.num_edges, HMETIS_CHUNK_EDGES):
            hi = lo + HMETIS_CHUNK_EDGES
            pairs = zip(
                map(str, q_of_edge[lo:hi].tolist()), map(str, d_of_edge[lo:hi].tolist())
            )
            handle.write("\n".join(map("\t".join, pairs)) + "\n")
    finally:
        if owned:
            handle.close()


def iter_edge_list_chunks(handle, chunk_edges: int = HMETIS_CHUNK_EDGES):
    """Stream ``query<TAB>data`` lines as bounded ``(query, data)`` chunks.

    Yields int64 array pairs, one per text block: at most ``chunk_edges``
    incidences plus the line that crosses the block boundary.  Blank lines
    and ``#`` comments are skipped; tokens after the first two of a line
    are ignored.  This single parser backs both :func:`read_edge_list` and
    the out-of-core store converter, so the two paths cannot drift.
    """
    lines = TokenLines(handle, "#", chunk_edges)
    while (run := lines.take()) is not None:
        rows = np.flatnonzero(run.counts)
        q_tokens = run.first[rows]
        problems: list[tuple[int, str]] = []
        short = run.counts[rows] < 2
        if short.any():
            at = int(np.argmax(short))
            got = run.token(int(q_tokens[at]))
            problems.append((int(rows[at]), f"expected 'query data', got {got!r}"))
            rows, q_tokens = rows[~short], q_tokens[~short]
        if run.bad.size:
            used = run.bad[np.isin(run.bad, q_tokens) | np.isin(run.bad - 1, q_tokens)]
            if used.size:
                token = int(used[0])
                problems.append((run.line_of(token), run.not_an_integer(token)))
        _raise_first(problems, lambda line: f"line {run.numbers[line]}")
        yield run.values[q_tokens], run.values[q_tokens + 1]


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
