"""Frame codec tests for the RPC transport (``repro.distributed.wire``).

Round-trips (including payloads well past 64 KiB, the size where a single
``recv`` stops being enough), truncated-frame detection, bad-magic and
oversized-length rejection, and the byte accounting the backend's
``wire_bytes`` meter is built on.
"""
from __future__ import annotations

import pickle
import socket
import struct
import threading

import numpy as np
import pytest

from repro.distributed.wire import (
    HEADER,
    MAGIC,
    MAX_FRAME,
    FrameProtocolError,
    TruncatedFrameError,
    WireError,
    decode_header,
    encode_frame,
    recv_frame,
    recv_obj,
    send_frame,
    send_obj,
)


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def test_encode_decode_header_roundtrip():
    frame = encode_frame(b"hello")
    assert frame[:4] == MAGIC
    assert decode_header(frame[: HEADER.size]) == 5
    assert frame[HEADER.size :] == b"hello"


def test_frame_roundtrip_small(pair):
    a, b = pair
    sent = send_frame(a, b"payload")
    payload, read = recv_frame(b)
    assert payload == b"payload"
    assert sent == read == HEADER.size + len(b"payload")


def test_frame_roundtrip_large_payload(pair):
    """A >64 KiB frame crosses many recv() chunks and must reassemble exactly."""
    a, b = pair
    rng = np.random.default_rng(0)
    payload = rng.integers(0, 256, size=300_000, dtype=np.uint8).tobytes()
    assert len(payload) > 64 * 1024

    got = {}

    def reader():
        got["frame"] = recv_frame(b)

    t = threading.Thread(target=reader)
    t.start()
    sent = send_frame(a, payload)
    t.join(timeout=10)
    assert not t.is_alive()
    data, read = got["frame"]
    assert data == payload
    assert sent == read == HEADER.size + len(payload)


def test_obj_roundtrip_structured(pair):
    a, b = pair
    obj = ("step", 3, {"w": np.arange(5)}, [b"blob", None])
    got = {}
    t = threading.Thread(target=lambda: got.update(o=recv_obj(b)))
    t.start()
    sent = send_obj(a, obj)
    t.join(timeout=10)
    out, read = got["o"]
    assert out[0] == "step" and out[1] == 3
    np.testing.assert_array_equal(out[2]["w"], np.arange(5))
    assert out[3] == [b"blob", None]
    assert sent == read  # both sides account identical bytes for the meter


def test_truncated_mid_payload(pair):
    a, b = pair
    frame = encode_frame(b"x" * 1000)
    a.sendall(frame[:200])  # header + partial payload
    a.close()
    with pytest.raises(TruncatedFrameError, match="outstanding"):
        recv_frame(b)


def test_truncated_mid_header(pair):
    a, b = pair
    a.sendall(MAGIC + b"\x00\x00")  # 6 of 12 header bytes
    a.close()
    with pytest.raises(TruncatedFrameError):
        recv_frame(b)


def test_clean_eof_is_truncated_frame(pair):
    a, b = pair
    a.close()
    with pytest.raises(TruncatedFrameError):
        recv_frame(b)


def test_timeout_mid_frame_is_truncated_frame(pair):
    a, b = pair
    a.sendall(encode_frame(b"y" * 100)[:50])
    b.settimeout(0.05)
    with pytest.raises(TruncatedFrameError, match="timed out"):
        recv_frame(b)


def test_bad_magic_rejected(pair):
    a, b = pair
    a.sendall(HEADER.pack(b"EVIL", 4) + b"data")
    with pytest.raises(FrameProtocolError, match="magic"):
        recv_frame(b)


def test_oversized_length_rejected(pair):
    a, b = pair
    a.sendall(HEADER.pack(MAGIC, MAX_FRAME + 1))
    with pytest.raises(FrameProtocolError, match="sanity"):
        recv_frame(b)


def test_send_on_closed_socket_is_wire_error(pair):
    a, b = pair
    b.close()
    a.close()
    with pytest.raises(WireError):
        send_frame(a, b"anything")


def test_back_to_back_frames_keep_boundaries(pair):
    """Framing separates messages sharing one TCP stream (no sticky reads)."""
    a, b = pair
    objs = [("init", {"k": 2}), ("step", 0, {}, {1: [b"z" * 70_000]}), ("exit",)]
    t = threading.Thread(target=lambda: [send_obj(a, o) for o in objs])
    t.start()
    for expect in objs:
        got, _ = recv_obj(b)
        assert got == expect
    t.join(timeout=10)


def test_pickle_frame_matches_manual_framing():
    payload = pickle.dumps({"a": 1}, protocol=pickle.HIGHEST_PROTOCOL)
    frame = encode_frame(payload)
    magic, length = struct.unpack("!4sQ", frame[: HEADER.size])
    assert magic == MAGIC and length == len(payload)


# ----------------------------------------------------------------------
# A failed frame ends the connection — with no sanitizer in the picture
# ----------------------------------------------------------------------

@pytest.fixture()
def default_env(monkeypatch):
    monkeypatch.delenv("REPRO_SAN", raising=False)


def _partial(frame: bytes, cut: int, hang_up: bool):
    def start(a):
        a.sendall(frame[:cut])
        if hang_up:
            a.close()
    return start


@pytest.mark.parametrize(
    "start, first",
    [
        (_partial(encode_frame(b"x" * 1000), 6, False), "timed out with 6 of 12"),
        (_partial(encode_frame(b"x" * 1000), 200, False), "timed out with 812 of 1000"),
        (_partial(encode_frame(b"x" * 1000), 200, True), "peer closed with 812 of 1000"),
        (_partial(HEADER.pack(b"EVIL", 4) + b"data", 16, False), "bad frame magic"),
    ],
    ids=["timeout-mid-header", "timeout-mid-payload", "peer-close-mid-payload", "bad-magic"],
)
def test_a_recv_that_fails_closes_the_socket_so_the_stream_cannot_be_reread(
    pair, default_env, start, first
):
    """The stream is no longer at a frame boundary: with the socket left
    open, the next ``recv_frame`` read payload bytes as a header (``bad
    frame magic b'xxxx'``) — and only ``REPRO_SAN=1`` said so."""
    a, b = pair
    b.settimeout(0.05)
    start(a)
    with pytest.raises(WireError, match=first):
        recv_frame(b)
    assert b.fileno() == -1
    if a.fileno() != -1:
        with pytest.raises(BrokenPipeError):  # the rest of the payload has no reader
            a.sendall(b"x" * 812)
    with pytest.raises(WireError, match="connection failed mid-frame") as again:
        recv_frame(b)
    assert not isinstance(again.value, FrameProtocolError)
    assert b.fileno() == -1


def test_a_send_that_fails_closes_the_socket(pair, default_env):
    a, b = pair
    b.close()  # peer gone
    with pytest.raises(WireError, match="send failed"):
        send_frame(a, b"y" * 100_000)
    assert a.fileno() == -1
    with pytest.raises(WireError):
        send_obj(a, ("step", 1))


def test_a_clean_eof_between_frames_is_still_a_truncated_frame(pair, default_env):
    a, b = pair
    send_frame(a, b"whole")
    a.close()
    assert recv_frame(b)[0] == b"whole"
    with pytest.raises(TruncatedFrameError, match="peer closed with 12 of 12 frame bytes"):
        recv_frame(b)


def test_the_wire_has_no_sanitizer_hook():
    import repro.distributed.wire as wire_module

    assert not hasattr(wire_module, "_sanitizer")
