"""The RGS binary columnar graph format: header codec, schema, writer.

One ``.rgs`` file holds a bipartite graph as a set of named, 64-byte-aligned
binary **sections** — the CSR arrays in both directions plus the optional
weight columns — behind a fixed-size header block::

    bytes 0..3    magic  b"RGS1"
    bytes 4..7    format version, <u4
    bytes 8..15   header-JSON length, <u8
    bytes 16..    header JSON (graph shape, name, section catalogue)
    byte  4096..  section data, 64-byte aligned, in catalogue order

Every section's dtype is declared in :data:`STORE_SCHEMA` as a fixed-width,
explicit-endian dtype string (``"<i8"``, ``"<f8"``) — :func:`is_exact_dtype`,
the one predicate ``MessageSchema`` validates its columns against too — so
a store written on any host mmap-loads bit-identically on any other.
The header JSON records, per section, the dtype *actually on disk*; a
mismatch against the schema is a format error, never a silent reinterpret.

Failure modes mirror :mod:`repro.distributed.wire`: a file that does not
start with the magic raises :class:`StoreFormatError` (the peer format is
not RGS), an unknown version raises :class:`StoreFormatError` naming the
version, and a file shorter than its catalogue promises raises
:class:`TruncatedStoreError` stating how many bytes are outstanding.
"""

from __future__ import annotations

import json
import re
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "HEADER_SPACE",
    "SECTION_ALIGN",
    "StorageError",
    "StoreFormatError",
    "TruncatedStoreError",
    "is_exact_dtype",
    "StoreSchema",
    "STORE_SCHEMA",
    "StoreHeader",
    "SectionInfo",
    "StoreWriter",
    "read_header",
]

MAGIC = b"RGS1"
FORMAT_VERSION = 1
#: fixed header block; section data starts here.  Generous for the small
#: catalogue (≤ 7 sections), asserted at finalize time.
HEADER_SPACE = 4096
SECTION_ALIGN = 64
#: magic + <u4 version + <u8 header-JSON length.
PREAMBLE = struct.Struct("<4sIQ")

#: explicit-endian multibyte, or order-free single-byte, dtype strings.
_EXACT_DTYPE = re.compile(r"(?:[<>][iufc](?:2|4|8|16)|\|?[iub]1|\|?\?)")


def is_exact_dtype(dtype: object) -> bool:
    """Whether ``dtype`` is a dtype string that means the same bytes on
    every host: fixed-width with explicit byte order (``"<i8"``, ``">f4"``)
    or single-byte (``"u1"``, ``"?"``).  The acceptance set of every column
    that crosses a disk or host boundary — :class:`StoreSchema` here,
    ``MessageSchema`` on the wire — defined once; ``S<n>`` / ``V<n>`` are
    out (no schema carries raw bytes)."""
    return isinstance(dtype, str) and _EXACT_DTYPE.fullmatch(dtype) is not None


class StorageError(ValueError):
    """Base class for graph-store format failures."""


class StoreFormatError(StorageError):
    """The file does not speak the RGS format (bad magic/version/header)."""


class TruncatedStoreError(StorageError):
    """The file ends before the bytes its header catalogue promises."""


class StoreSchema:
    """The column catalogue of the store format: ``(name, dtype)`` pairs.

    Dtypes must pass :func:`is_exact_dtype` — a platform-native dtype here
    would make the same file read differently across hosts — or the
    constructor raises.
    """

    def __init__(self, fields: tuple):
        self.fields = tuple((str(name), str(dtype)) for name, dtype in fields)
        for name, dtype in self.fields:
            if not is_exact_dtype(dtype):
                raise StoreFormatError(
                    f"store column {name!r} declares dtype {dtype!r}; store "
                    "dtypes must be fixed-width and explicit-endian "
                    "(e.g. '<i8', '<f8')"
                )
        self._by_name = dict(self.fields)

    def dtype_of(self, name: str) -> str:
        if name not in self._by_name:
            raise StoreFormatError(
                f"unknown store section {name!r}; "
                f"known: {', '.join(n for n, _ in self.fields)}"
            )
        return self._by_name[name]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name


#: v1 column catalogue.  CSR adjacency in both directions (so the d-side
#: partition slices and the q-side gain kernels are both zero-copy), plus
#: the optional weight columns.  ``data_weights`` may be 2-D (multi-dim
#: balance); all other sections are 1-D.
STORE_SCHEMA = StoreSchema(fields=(
    ("q_indptr", "<i8"),
    ("q_indices", "<i8"),
    ("d_indptr", "<i8"),
    ("d_indices", "<i8"),
    ("data_weights", "<f8"),
    ("query_weights", "<f8"),
))


@dataclass(frozen=True)
class SectionInfo:
    """One catalogued section: where it lives and how to map it."""

    name: str
    dtype: str
    shape: tuple
    offset: int
    nbytes: int


@dataclass(frozen=True)
class StoreHeader:
    """Decoded header block of one ``.rgs`` file."""

    version: int
    num_queries: int
    num_data: int
    num_edges: int
    name: str
    sections: tuple

    def section(self, name: str) -> SectionInfo | None:
        for info in self.sections:
            if info.name == name:
                return info
        return None

    def to_json(self) -> dict:
        return {
            "num_queries": self.num_queries,
            "num_data": self.num_data,
            "num_edges": self.num_edges,
            "name": self.name,
            "sections": [
                {
                    "name": s.name,
                    "dtype": s.dtype,
                    "shape": list(s.shape),
                    "offset": s.offset,
                    "nbytes": s.nbytes,
                }
                for s in self.sections
            ],
        }


def read_header(path: str | Path) -> StoreHeader:
    """Decode and validate the header block of ``path``.

    Mirrors the wire codec's failure taxonomy: bad magic / bad version /
    undecodable catalogue raise :class:`StoreFormatError`; a file shorter
    than the preamble, the header JSON, or any catalogued section raises
    :class:`TruncatedStoreError` naming the outstanding bytes.
    """
    path = Path(path)
    size = path.stat().st_size
    with path.open("rb") as handle:
        preamble = handle.read(PREAMBLE.size)
        if len(preamble) < PREAMBLE.size:
            raise TruncatedStoreError(
                f"{path}: file ends inside the store preamble "
                f"({PREAMBLE.size - len(preamble)} of {PREAMBLE.size} bytes outstanding)"
            )
        magic, version, json_len = PREAMBLE.unpack(preamble)
        if magic != MAGIC:
            raise StoreFormatError(
                f"{path}: bad store magic {magic!r} (expected {MAGIC!r}): "
                "not a repro graph store"
            )
        if version > FORMAT_VERSION:
            raise StoreFormatError(
                f"{path}: store format version {version} is newer than this "
                f"reader (supports up to {FORMAT_VERSION}); upgrade repro or "
                "re-convert the graph"
            )
        if version < 1:
            raise StoreFormatError(f"{path}: invalid store format version {version}")
        if PREAMBLE.size + json_len > size:
            raise TruncatedStoreError(
                f"{path}: file ends inside the header JSON "
                f"({PREAMBLE.size + json_len - size} of {json_len} bytes outstanding)"
            )
        raw = handle.read(json_len)
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreFormatError(f"{path}: undecodable store header: {exc}") from exc
    try:
        sections = tuple(
            SectionInfo(
                name=str(s["name"]),
                dtype=str(s["dtype"]),
                shape=tuple(int(x) for x in s["shape"]),
                offset=int(s["offset"]),
                nbytes=int(s["nbytes"]),
            )
            for s in data["sections"]
        )
        header = StoreHeader(
            version=int(version),
            num_queries=int(data["num_queries"]),
            num_data=int(data["num_data"]),
            num_edges=int(data["num_edges"]),
            name=str(data.get("name", "")),
            sections=sections,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreFormatError(f"{path}: malformed store header: {exc!r}") from exc
    for info in header.sections:
        if info.name not in STORE_SCHEMA:
            raise StoreFormatError(
                f"{path}: header catalogues unknown section {info.name!r}"
            )
        expected = STORE_SCHEMA.dtype_of(info.name)
        if info.dtype != expected:
            raise StoreFormatError(
                f"{path}: section {info.name!r} declares dtype {info.dtype!r} "
                f"but the v{FORMAT_VERSION} schema requires {expected!r}"
            )
        want = int(np.prod(info.shape, dtype=np.int64)) * np.dtype(info.dtype).itemsize
        if want != info.nbytes:
            raise StoreFormatError(
                f"{path}: section {info.name!r} shape {info.shape} disagrees "
                f"with its byte length {info.nbytes}"
            )
        if info.nbytes and info.offset + info.nbytes > size:
            raise TruncatedStoreError(
                f"{path}: file ends inside section {info.name!r} "
                f"({info.offset + info.nbytes - size} of {info.nbytes} bytes outstanding)"
            )
    return header


def _align(offset: int) -> int:
    return (offset + SECTION_ALIGN - 1) // SECTION_ALIGN * SECTION_ALIGN


class StoreWriter:
    """Sequential section writer for one ``.rgs`` file.

    Sections are appended one at a time — ``begin_section`` /
    ``append`` / ``end_section`` for chunked streams of unknown final
    length, or :meth:`write_section` for whole arrays — and
    :meth:`finalize` stamps the header block once every section's extent
    is known.  The writer never buffers section data: chunk bytes go
    straight to the file, which is what keeps the converter's RSS bounded.
    """

    def __init__(
        self, path: str | Path, num_queries: int, num_data: int, name: str = ""
    ):
        self.path = Path(path)
        self.num_queries = int(num_queries)
        self.num_data = int(num_data)
        self.num_edges = 0
        self.name = name
        self._handle: BinaryIO = self.path.open("wb")
        self._handle.truncate(HEADER_SPACE)
        self._offset = HEADER_SPACE
        self._sections: list[SectionInfo] = []
        self._open_section: str | None = None
        self._open_dtype: np.dtype | None = None
        self._open_offset = 0
        self._open_items = 0
        self._finalized = False

    # ------------------------------------------------------------------
    def begin_section(self, name: str) -> None:
        if self._open_section is not None:
            raise StoreFormatError(
                f"section {self._open_section!r} is still open; "
                "end_section() before beginning another"
            )
        if any(info.name == name for info in self._sections):
            raise StoreFormatError(f"section {name!r} written twice")
        dtype = np.dtype(STORE_SCHEMA.dtype_of(name))
        self._offset = _align(self._offset)
        self._handle.seek(self._offset)
        self._open_section = name
        self._open_dtype = dtype
        self._open_offset = self._offset
        self._open_items = 0

    def append(self, chunk: np.ndarray) -> None:
        """Append one chunk to the open section (cast to the wire dtype)."""
        if self._open_section is None:
            raise StoreFormatError("no section open for append")
        data = np.ascontiguousarray(chunk, dtype=self._open_dtype)
        self._handle.write(data.tobytes())
        self._open_items += data.size
        self._offset += data.nbytes

    def end_section(self, shape: tuple | None = None) -> None:
        """Close the open section; ``shape`` defaults to the 1-D item count."""
        if self._open_section is None:
            raise StoreFormatError("no section open to end")
        shape = tuple(int(x) for x in (shape or (self._open_items,)))
        if int(np.prod(shape, dtype=np.int64)) != self._open_items:
            raise StoreFormatError(
                f"section {self._open_section!r}: declared shape {shape} does "
                f"not cover the {self._open_items} items written"
            )
        self._sections.append(SectionInfo(
            name=self._open_section,
            dtype=str(STORE_SCHEMA.dtype_of(self._open_section)),
            shape=shape,
            offset=self._open_offset,
            nbytes=self._open_items * self._open_dtype.itemsize,
        ))
        self._open_section = None
        self._open_dtype = None

    def write_section(self, name: str, array: np.ndarray) -> None:
        """Write one whole array as a section (chunked append underneath)."""
        array = np.asarray(array)
        self.begin_section(name)
        self.append(array.reshape(-1))
        self.end_section(shape=array.shape)

    # ------------------------------------------------------------------
    def finalize(self, num_edges: int) -> StoreHeader:
        """Stamp the header block and close the file."""
        if self._open_section is not None:
            raise StoreFormatError(f"section {self._open_section!r} left open")
        self.num_edges = int(num_edges)
        header = StoreHeader(
            version=FORMAT_VERSION,
            num_queries=self.num_queries,
            num_data=self.num_data,
            num_edges=self.num_edges,
            name=self.name,
            sections=tuple(self._sections),
        )
        raw = json.dumps(header.to_json()).encode("utf-8")
        if PREAMBLE.size + len(raw) > HEADER_SPACE:
            raise StoreFormatError(
                f"store header needs {PREAMBLE.size + len(raw)} bytes, "
                f"exceeding the {HEADER_SPACE}-byte header block"
            )
        self._handle.seek(0)
        self._handle.write(PREAMBLE.pack(MAGIC, FORMAT_VERSION, len(raw)))
        self._handle.write(raw)
        self._handle.close()
        self._finalized = True
        return header

    def abort(self) -> None:
        """Close and remove a partially written file (error-path cleanup)."""
        if not self._handle.closed:
            self._handle.close()
        if not self._finalized:
            self.path.unlink(missing_ok=True)

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, *_: object) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._handle.closed:  # pragma: no cover - misuse guard
            self._handle.close()
