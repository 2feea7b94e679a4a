"""Framed-socket transport for the RPC backend.

One frame = an 12-byte header (4-byte magic ``RPR1`` + 8-byte big-endian
payload length) followed by the pickled payload.  The framing gives the
stream self-describing message boundaries over TCP — a reader always knows
how many bytes the next message occupies, so batches of any size (the
>64 KiB column payloads of a real superstep) travel without ambiguity, and
a connection that dies mid-message is detected as a
:class:`TruncatedFrameError` instead of a silent short read.

A frame that fails closes its socket before the :class:`WireError`
propagates: once a frame stopped part-way the stream is no longer at a
frame boundary (the next read would take payload bytes for a header), so
the one thing left to do with the connection — on the master and on a
worker alike — is what this module has already done.

Every send/receive helper returns the number of bytes it moved, which is
how :class:`~repro.distributed.backend_rpc.RpcBackend` meters real
bytes-on-wire per superstep (``SuperstepMetrics.wire_bytes``) — actual
serialized traffic, as opposed to the backend-independent *logical* byte
meters computed from message schemas.

Security note: frames carry pickles, the same trust model as the
multiprocess backend's pipes.  Only connect workers and masters that trust
each other (a private cluster network), never an untrusted port.
"""

from __future__ import annotations

import pickle
import socket
import struct

__all__ = [
    "WireError",
    "TruncatedFrameError",
    "FrameProtocolError",
    "MAGIC",
    "HEADER",
    "encode_frame",
    "decode_header",
    "send_frame",
    "recv_frame",
    "send_obj",
    "recv_obj",
]

MAGIC = b"RPR1"
#: frame header: magic + unsigned 64-bit big-endian payload length.
HEADER = struct.Struct("!4sQ")
#: sanity bound on a single frame (1 TiB); anything larger is corruption.
MAX_FRAME = 1 << 40
_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL
_CHUNK = 1 << 20


class WireError(ConnectionError):
    """Base class for transport failures on a framed connection."""


class TruncatedFrameError(WireError):
    """The peer closed (or the stream ended) in the middle of a frame."""


class FrameProtocolError(WireError):
    """The stream does not speak the frame protocol (bad magic / length)."""


def encode_frame(payload: bytes) -> bytes:
    """Prefix ``payload`` with the frame header; returns the full frame."""
    return HEADER.pack(MAGIC, len(payload)) + payload


def decode_header(header: bytes) -> int:
    """Validate a frame header and return the payload length it announces."""
    magic, length = HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}): "
            "the peer is not speaking the repro RPC protocol"
        )
    if length > MAX_FRAME:
        raise FrameProtocolError(f"frame length {length} exceeds sanity bound")
    return int(length)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise :class:`TruncatedFrameError`."""
    parts: list[bytes] = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(min(remaining, _CHUNK))
        except socket.timeout as exc:
            raise TruncatedFrameError(
                f"timed out with {remaining} of {n} frame bytes outstanding"
            ) from exc
        except OSError as exc:
            raise TruncatedFrameError(f"connection failed mid-frame: {exc}") from exc
        if not chunk:
            raise TruncatedFrameError(
                f"peer closed with {remaining} of {n} frame bytes outstanding"
            )
        parts.append(chunk)
        remaining -= len(chunk)
    return b"".join(parts)


def send_frame(sock: socket.socket, payload: bytes) -> int:
    """Send one framed payload; returns total bytes written.  A failed
    send closes ``sock`` (how much of the frame left is unknowable)."""
    frame = encode_frame(payload)
    try:
        sock.sendall(frame)
    except OSError as exc:
        sock.close()
        raise WireError(f"send failed: {exc}") from exc
    return len(frame)


def recv_frame(sock: socket.socket) -> tuple[bytes, int]:
    """Receive one frame; returns ``(payload, total bytes read)``.

    Raises :class:`TruncatedFrameError` on EOF/timeout mid-frame and
    :class:`FrameProtocolError` on a malformed header, with ``sock``
    closed either way.  A clean EOF before any header byte also raises
    :class:`TruncatedFrameError` — the caller decides whether "peer hung up
    between frames" is an error.
    """
    try:
        header = _recv_exact(sock, HEADER.size)
        length = decode_header(header)
        payload = _recv_exact(sock, length)
    except WireError:
        sock.close()
        raise
    return payload, HEADER.size + length


def send_obj(sock: socket.socket, obj: object) -> int:
    """Pickle and send one object as a frame; returns bytes written."""
    return send_frame(sock, pickle.dumps(obj, protocol=_PICKLE_PROTO))


def recv_obj(sock: socket.socket) -> tuple[object, int]:
    """Receive and unpickle one framed object; returns ``(obj, bytes read)``."""
    payload, nbytes = recv_frame(sock)
    return pickle.loads(payload), nbytes
