"""Frame protocol edge cases: partial reads, short writes, garbage, EOF.

The TCP framing layer must never wedge a connection into an undefined
state: every malformed input maps to a typed :class:`FrameProtocolError`
and every partial-progress syscall (short write, dribbled read) resumes
from the exact byte boundary.
"""

import asyncio
import socket

import pytest

from repro.common.errors import WireFormatError
from repro.wire.netframe import (
    FRAME_HEADER_SIZE,
    FRAME_MAGIC,
    FrameProtocolError,
    FrameReceiver,
    pack_frame_header,
    parse_frame_header,
    read_frame_async,
    send_frame,
    write_frame_async,
)


class DribbleSocket:
    """recv_into-only socket double that returns at most ``chunk`` bytes
    per call — the pathological slow-peer read pattern."""

    def __init__(self, data: bytes, chunk: int = 1):
        self._data = memoryview(bytes(data))
        self._pos = 0
        self._chunk = chunk

    def recv_into(self, buf) -> int:
        n = min(self._chunk, len(buf), len(self._data) - self._pos)
        buf[:n] = self._data[self._pos : self._pos + n]
        self._pos += n
        return n


class StingySendSocket:
    """sendmsg-only socket double that accepts at most ``accept`` bytes
    per call, forcing the short-write resume path mid-part and mid-vector."""

    def __init__(self, accept: int = 3):
        self._accept = accept
        self.sent = bytearray()
        self.calls = 0

    def sendmsg(self, buffers) -> int:
        self.calls += 1
        budget = self._accept
        taken = 0
        for part in buffers:
            view = memoryview(part)
            n = min(budget - taken, len(view))
            self.sent += view[:n]
            taken += n
            if taken == budget:
                break
        return taken


def _frame_bytes(kind: int, payload: bytes) -> bytes:
    return pack_frame_header(kind, len(payload)) + payload


# -- header parsing ------------------------------------------------------------


def test_parse_header_roundtrip():
    head = pack_frame_header(7, 1234)
    assert len(head) == FRAME_HEADER_SIZE
    assert parse_frame_header(head, max_frame_bytes=1 << 20) == (7, 1234)


def test_garbage_magic_is_typed_error():
    head = b"HTTP" + pack_frame_header(0, 0)[4:]
    with pytest.raises(FrameProtocolError, match="magic"):
        parse_frame_header(head, max_frame_bytes=1 << 20)


def test_absurd_length_is_garbage_not_allocation():
    head = pack_frame_header(0, 1 << 30)
    with pytest.raises(FrameProtocolError, match="cap"):
        parse_frame_header(head, max_frame_bytes=1 << 20)


def test_frame_error_is_wire_format_error():
    # Callers catch the storage taxonomy, not a transport-private type.
    assert issubclass(FrameProtocolError, WireFormatError)


# -- blocking receiver ---------------------------------------------------------


def test_recv_frame_assembles_from_single_byte_reads():
    payload = bytes(range(256)) * 3
    rx = FrameReceiver(DribbleSocket(_frame_bytes(5, payload), chunk=1))
    kind, view = rx.recv_frame()
    assert kind == 5
    assert bytes(view) == payload


def test_recv_frame_clean_eof_between_frames_returns_none():
    rx = FrameReceiver(DribbleSocket(_frame_bytes(1, b"abc"), chunk=64))
    assert rx.recv_frame() is not None
    assert rx.recv_frame() is None


def test_recv_frame_eof_mid_header_raises():
    data = _frame_bytes(1, b"abc")[: FRAME_HEADER_SIZE - 3]
    rx = FrameReceiver(DribbleSocket(data, chunk=64))
    with pytest.raises(FrameProtocolError, match="mid-frame"):
        rx.recv_frame()


def test_recv_frame_eof_mid_payload_raises():
    data = _frame_bytes(1, b"x" * 100)[:-40]
    rx = FrameReceiver(DribbleSocket(data, chunk=7))
    with pytest.raises(FrameProtocolError, match="mid-frame"):
        rx.recv_frame()


def test_recv_frame_garbage_header_raises_before_payload_read():
    rx = FrameReceiver(DribbleSocket(b"\x00" * 64, chunk=64))
    with pytest.raises(FrameProtocolError, match="magic"):
        rx.recv_frame()


def test_receive_buffer_grows_for_large_frames():
    payload = bytes(200) * 1024  # 200 KiB > the 64 KiB initial buffer
    rx = FrameReceiver(DribbleSocket(_frame_bytes(2, payload), chunk=8192))
    kind, view = rx.recv_frame()
    assert (kind, len(view)) == (2, len(payload))


def test_returned_view_is_invalidated_by_next_recv():
    data = _frame_bytes(1, b"first") + _frame_bytes(1, b"secon")
    rx = FrameReceiver(DribbleSocket(data, chunk=64))
    _, first = rx.recv_frame()
    assert bytes(first) == b"first"
    rx.recv_frame()
    # Same backing buffer, new contents: the borrow expired.
    assert bytes(first) == b"secon"


# -- vectored send -------------------------------------------------------------


def test_send_frame_short_writes_resume_at_exact_boundary():
    parts = [b"hello ", memoryview(b"zero-copy "), bytearray(b"world")]
    sock = StingySendSocket(accept=3)
    total = send_frame(sock, 9, parts)
    assert total == FRAME_HEADER_SIZE + 21
    assert bytes(sock.sent) == _frame_bytes(9, b"hello zero-copy world")
    assert sock.calls >= total // 3


def test_send_frame_empty_payload():
    sock = StingySendSocket(accept=1024)
    send_frame(sock, 4, [])
    assert bytes(sock.sent) == pack_frame_header(4, 0)


def test_send_recv_roundtrip_over_real_socketpair():
    left, right = socket.socketpair()
    try:
        payload_parts = [memoryview(b"a" * 1000)[100:200], b"tail"]
        send_frame(left, 3, payload_parts)
        left.shutdown(socket.SHUT_WR)
        rx = FrameReceiver(right)
        kind, view = rx.recv_frame()
        assert kind == 3
        assert bytes(view) == b"a" * 100 + b"tail"
        assert rx.recv_frame() is None
    finally:
        left.close()
        right.close()


def test_send_frame_vector_larger_than_iov_cap():
    # 1030 one-byte parts exceed the 512-entry sendmsg vector cap; the
    # frame must still arrive intact via multiple sendmsg calls.
    left, right = socket.socketpair()
    try:
        parts = [b"%d" % (i % 10) for i in range(1030)]
        send_frame(left, 1, parts)
        left.shutdown(socket.SHUT_WR)
        kind, view = FrameReceiver(right).recv_frame()
        assert kind == 1
        assert bytes(view) == b"".join(parts)
    finally:
        left.close()
        right.close()


# -- asyncio twins -------------------------------------------------------------


def _feed_reader(data: bytes, *, eof: bool = True) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    if eof:
        reader.feed_eof()
    return reader


def test_read_frame_async_roundtrip():
    async def run():
        reader = _feed_reader(_frame_bytes(6, b"payload"))
        assert await read_frame_async(reader) == (6, b"payload")
        assert await read_frame_async(reader) is None

    asyncio.run(run())


def test_read_frame_async_mid_header_eof_raises():
    async def run():
        reader = _feed_reader(b"\x4b\x46")
        with pytest.raises(FrameProtocolError, match="mid-header"):
            await read_frame_async(reader)

    asyncio.run(run())


def test_read_frame_async_mid_payload_eof_raises():
    async def run():
        reader = _feed_reader(_frame_bytes(1, b"x" * 50)[:-10])
        with pytest.raises(FrameProtocolError, match="mid-frame"):
            await read_frame_async(reader)

    asyncio.run(run())


def test_read_frame_async_garbage_raises():
    async def run():
        reader = _feed_reader(b"GET / HTTP/1.1\r\n")
        with pytest.raises(FrameProtocolError, match="magic"):
            await read_frame_async(reader)

    asyncio.run(run())


def test_write_frame_async_matches_blocking_layout():
    class SinkWriter:
        """Counts transport calls: each one may cost a ``send()``."""

        def __init__(self):
            self.data = bytearray()
            self.calls = 0

        def write(self, b):
            self.calls += 1
            self.data += b

        def writelines(self, parts):
            self.calls += 1
            for b in parts:
                self.data += b

    sink = SinkWriter()
    total = write_frame_async(sink, 8, [b"ab", memoryview(b"cd")])
    assert total == FRAME_HEADER_SIZE + 4
    assert bytes(sink.data) == _frame_bytes(8, b"abcd")
    # Header plus parts reach the writer in one call, whatever the count.
    assert sink.calls == 1
    sink = SinkWriter()
    write_frame_async(sink, 9, [bytes([i]) * 3 for i in range(40)])
    assert sink.calls == 1
    assert bytes(sink.data) == _frame_bytes(9, b"".join(bytes([i]) * 3 for i in range(40)))


def test_magic_spells_kfrm():
    assert FRAME_MAGIC.to_bytes(4, "little") == b"KFRM"
