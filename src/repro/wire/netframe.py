"""Length-prefixed frame protocol for stream sockets.

The worker transport's TCP pipe (``repro.runtime.socket_transport``) and the asyncio
client gateway (``repro.gateway``) move the existing zero-copy wire
frames over TCP. A *frame* is one length-prefixed message::

    [u32 magic][u32 kind][u32 payload_len][payload_len bytes]

``kind`` is transport-defined (replicate fast path, packed ack, pickled
fallback, hello, ...). The payload is opaque here; replicate frames carry
the chunk wire bytes verbatim, so this layer never re-encodes anything.

Copy discipline, mirroring :mod:`repro.wire.ring`:

* the **write side** is vectored — :func:`send_frame` hands the header
  plus the caller's payload parts (typically ``memoryview`` slices of
  broker segment memory) to ``socket.sendmsg`` as one scatter-gather
  list, so frame bytes go from segment buffers straight into the kernel
  without an intermediate coalescing copy. Short writes (a full socket
  buffer mid-vector) are resumed from the exact byte where the kernel
  stopped;
* the **read side** owns one preallocated, growable receive buffer per
  connection: :meth:`FrameReceiver.recv_frame` reads with ``recv_into``
  (no per-recv ``bytes`` allocation) and returns a zero-copy view into
  that buffer, valid until the next call — the same borrow contract as
  the ring's ``read``/``consume`` pair, collapsed into one call because
  a TCP stream needs no explicit consume.

Failure taxonomy (all typed, none wedge the connection state):

* clean EOF *between* frames — ``recv_frame`` returns ``None``;
* EOF *inside* a frame (peer died mid-send) — :class:`FrameProtocolError`;
* garbage where a header should be (bad magic) or an absurd length —
  :class:`FrameProtocolError`; the receiver cannot resynchronize a byte
  stream, so callers must drop the connection.
"""

from __future__ import annotations

import socket
import struct
from collections.abc import Sequence
from typing import TYPE_CHECKING

from repro.common.errors import WireFormatError

if TYPE_CHECKING:  # asyncio is imported lazily by the async helpers
    import asyncio

#: ``b"KFRM"`` little-endian: the first four bytes of every frame.
FRAME_MAGIC = 0x4D52464B
_FRAME_HEAD = struct.Struct("<III")  # magic, kind, payload_len
FRAME_HEADER_SIZE = _FRAME_HEAD.size
#: Default per-frame payload ceiling; a length above the configured
#: maximum is treated as garbage, not as a huge allocation request.
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024
#: Conservative scatter-gather vector cap (Linux IOV_MAX is 1024).
_SENDMSG_MAX_PARTS = 512

#: One ``bytes``-like payload part.
BufferPart = bytes | bytearray | memoryview


class FrameProtocolError(WireFormatError):
    """The byte stream is not a valid frame sequence (garbage header,
    oversized length, or a connection dropped mid-frame)."""


def pack_frame_header(kind: int, payload_len: int) -> bytes:
    return _FRAME_HEAD.pack(FRAME_MAGIC, kind, payload_len)


def parse_frame_header(
    buf: bytes | bytearray | memoryview, *, max_frame_bytes: int
) -> tuple[int, int]:
    """Validate a 12-byte header; returns ``(kind, payload_len)``."""
    magic, kind, length = _FRAME_HEAD.unpack_from(buf, 0)
    if magic != FRAME_MAGIC:
        raise FrameProtocolError(
            f"bad frame magic {magic:#010x} (expected {FRAME_MAGIC:#010x}): "
            f"stream is garbage or desynchronized"
        )
    if length > max_frame_bytes:
        raise FrameProtocolError(
            f"frame length {length} exceeds the {max_frame_bytes}-byte cap"
        )
    return kind, length


def send_frame(sock: socket.socket, kind: int, parts: Sequence[BufferPart]) -> int:
    """Write one frame with scatter-gather ``sendmsg``; returns total bytes.

    The header and every payload part go to the kernel as one iovec (no
    coalescing copy). A short write — the kernel accepted only a prefix —
    resumes from the exact boundary: whole parts already sent are dropped
    from the vector and the split part continues as a sliced view.
    """
    payload_len = sum(len(p) for p in parts)
    buffers: list[BufferPart] = [pack_frame_header(kind, payload_len), *parts]
    total = FRAME_HEADER_SIZE + payload_len
    index = 0
    offset = 0
    while index < len(buffers):
        head = buffers[index]
        vec: list[BufferPart] = [memoryview(head)[offset:] if offset else head]
        vec.extend(buffers[index + 1 : index + _SENDMSG_MAX_PARTS])
        sent = sock.sendmsg(vec)
        if sent == 0:  # pragma: no cover - sendmsg never returns 0 on success
            raise FrameProtocolError("socket send returned 0 mid-frame")
        while sent > 0 and index < len(buffers):
            remaining = len(buffers[index]) - offset
            if sent >= remaining:
                sent -= remaining
                index += 1
                offset = 0
            else:
                offset += sent
                sent = 0
    return total


class FrameReceiver:
    """Incremental frame reader over one (blocking) stream socket.

    Owns a single growable receive buffer; the ``(kind, view)`` returned
    by :meth:`recv_frame` aliases it and is valid only until the next
    call (callers that keep payload bytes must copy — the address-space
    boundary discipline applies regardless: CRCs are re-validated by the
    receiver before the bytes are trusted).
    """

    def __init__(
        self,
        sock: socket.socket,
        *,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self._sock = sock
        self._max = max_frame_bytes
        self._buf = bytearray(min(64 * 1024, max(max_frame_bytes, FRAME_HEADER_SIZE)))

    def _recv_exact(self, length: int, *, eof_ok: bool) -> bool:
        """Fill ``self._buf[:length]`` from the socket.

        Returns False on a clean EOF before the first byte (only when
        ``eof_ok``); raises :class:`FrameProtocolError` on EOF mid-way.
        """
        view = memoryview(self._buf)
        got = 0
        while got < length:
            n = self._sock.recv_into(view[got:length])
            if n == 0:
                if eof_ok and got == 0:
                    return False
                raise FrameProtocolError(
                    f"connection closed mid-frame ({got} of {length} bytes read)"
                )
            got += n
        return True

    def recv_frame(self) -> tuple[int, memoryview] | None:
        """Read one frame; ``None`` on clean EOF at a frame boundary.

        The returned payload view aliases the receiver's buffer and is
        invalidated by the next ``recv_frame`` call.
        """
        if not self._recv_exact(FRAME_HEADER_SIZE, eof_ok=True):
            return None
        kind, length = parse_frame_header(self._buf, max_frame_bytes=self._max)
        if length > len(self._buf):
            # Grow once to the next power of two that fits; the buffer is
            # per-connection and reused for every subsequent frame.
            size = len(self._buf)
            while size < length:
                size *= 2
            self._buf = bytearray(min(size, self._max))
        self._recv_exact(length, eof_ok=False)
        return kind, memoryview(self._buf)[:length]  # borrows: _buf -- valid until the next recv_frame overwrites the receive buffer


async def read_frame_async(
    reader: "asyncio.StreamReader",
    *,
    max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
) -> tuple[int, bytes] | None:
    """Asyncio twin of :meth:`FrameReceiver.recv_frame` for the gateway.

    Returns ``(kind, payload)`` or ``None`` on clean EOF between frames;
    raises :class:`FrameProtocolError` on garbage or mid-frame EOF.
    """
    import asyncio

    try:
        head = await reader.readexactly(FRAME_HEADER_SIZE)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameProtocolError(
            f"connection closed mid-header ({len(exc.partial)} of "
            f"{FRAME_HEADER_SIZE} bytes read)"
        ) from None
    kind, length = parse_frame_header(head, max_frame_bytes=max_frame_bytes)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of {length} "
            f"bytes read)"
        ) from None
    return kind, payload


def write_frame_async(
    writer: "asyncio.StreamWriter", kind: int, parts: Sequence[BufferPart]
) -> int:
    """Hand one frame to an asyncio stream writer; returns total bytes.

    The header and every part go to the transport in one ``writelines``
    call, so a frame costs one transport call and, while the transport's
    buffer is empty, one syscall — not one per part. CPython 3.11's
    selector transport joins the list into one ``bytes`` and ``send()``s
    it; 3.12+ passes it to one vectored ``sendmsg`` without the join.
    Either way, whatever the kernel does not take lands in the
    transport's buffer; the caller decides when to ``drain()``.
    """
    payload_len = sum(len(p) for p in parts)
    writer.writelines([pack_frame_header(kind, payload_len), *parts])
    return FRAME_HEADER_SIZE + payload_len
