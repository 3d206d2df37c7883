"""Single-producer/single-consumer byte ring for shared-memory transports.

The shared-memory pipe (``repro.runtime.process``) moves replication
frames between a broker and its backup workers through two of these per
binding (request ring + response ring), each living in one
``multiprocessing.shared_memory`` block. The ring itself is agnostic to
where its bytes live: it wraps any writable buffer, so unit tests drive
it over a plain ``bytearray``.

Layout (little-endian; the two counters in native byte order, which is
the same thing on every host both ends of a ring can share)::

    [0:8)   head  u64  monotonic bytes published by the writer
    [8:16)  tail  u64  monotonic bytes consumed by the reader
    [16:20) closed u32 writer or reader has closed the channel
    [20:64) reserved (pads the header to one cache line)
    [64:64+capacity) data region

    record := [u32 payload_len][u32 kind][payload, padded to 8 bytes]

Records never wrap: capacity is a multiple of 8 and record sizes are
8-aligned, so the space before the wrap point is always 0 or >= 8 bytes;
a record that would not fit contiguously is preceded by a ``KIND_PAD``
record covering the remainder, which the reader skips transparently.

Safety argument (why no locks): exactly one writer mutates ``head`` and
exactly one reader mutates ``tail``; both counters only grow. The writer
copies the payload into the data region *before* publishing ``head``
(single aligned 8-byte store), so the reader never observes a partially
written record; the reader hands out a zero-copy view into the ring and
only advances ``tail`` on :meth:`consume`, after which the writer may
reuse those bytes. The counters are read and written through a
``'Q'``-typed view of the header: CPython stores an item of such a view
with one 8-byte ``memcpy`` — an aligned 8-byte store, atomic on every
platform we target. (``struct.pack_into`` is *not* such a store: it
zeroes the destination before writing the value, so the other process
could observe a counter of 0 in between and run off into unwritten
bytes.)

``free_bytes`` doubles as the transport's credit signal: a full ring is
backpressure, propagated to the shipper instead of blocking producers.
"""

from __future__ import annotations

import struct
import time
from collections.abc import Sequence

from repro.common.errors import RpcError

HEADER_SIZE = 64
#: Indices into the header's u64 view (byte offsets 0 and 8).
_HEAD, _TAIL = 0, 1
_CLOSED = struct.Struct("<I")  # at offset 16
_RECORD = struct.Struct("<II")  # [payload_len][kind]
RECORD_HEADER = _RECORD.size  # 8

#: Reserved record kind: skipped filler before a wrap point.
KIND_PAD = 0


def _align8(n: int) -> int:
    return (n + 7) & ~7


class RingClosed(RpcError):
    """The peer closed the ring."""


class SpscRing:
    """One direction of a shared-memory channel. Each process touches only
    its own side: the writer calls ``try_write``/``write``/``close``, the
    reader calls ``try_read``/``consume``/``close``."""

    def __init__(self, buf: memoryview | bytearray, *, reset: bool = False) -> None:
        view = memoryview(buf)
        if view.readonly:
            raise RpcError("ring buffer must be writable")
        view = view.cast("B")
        if len(view) <= HEADER_SIZE:
            raise RpcError("ring buffer smaller than its header")
        self.capacity = (len(view) - HEADER_SIZE) & ~7
        if self.capacity < 2 * RECORD_HEADER:
            raise RpcError("ring capacity too small for any record")
        self._buf = view  # borrows: buf -- the ring aliases the caller's shared-memory block for its whole lifetime
        self._counters = view[:16].cast("Q")  # borrows: buf
        self._data = view[HEADER_SIZE : HEADER_SIZE + self.capacity]  # borrows: buf
        if reset:
            view[:HEADER_SIZE] = bytes(HEADER_SIZE)
        # Reader-side cache of the last peeked record's total size.
        self._peeked: int = 0

    # -- header accessors ----------------------------------------------------

    @property
    def _head(self) -> int:
        return int(self._counters[_HEAD])

    @property
    def _tail(self) -> int:
        return int(self._counters[_TAIL])

    @property
    def closed(self) -> bool:
        return _CLOSED.unpack_from(self._buf, 16)[0] != 0

    def close(self) -> None:
        _CLOSED.pack_into(self._buf, 16, 1)

    @property
    def free_bytes(self) -> int:
        """Writable bytes right now — the transport's credit signal."""
        return self.capacity - (self._head - self._tail)

    @property
    def pending_bytes(self) -> int:
        return self._head - self._tail

    # -- writer side ---------------------------------------------------------

    def try_write(self, kind: int, parts: Sequence[bytes | bytearray | memoryview]) -> bool:
        """Copy ``parts`` into the ring as one record; False when full.

        The single copy here is *the* address-space boundary crossing —
        everything downstream reads the ring bytes in place.
        """
        if kind == KIND_PAD:
            raise RpcError("record kind 0 is reserved for padding")
        if self.closed:
            raise RingClosed("ring is closed")
        payload_len = sum(len(p) for p in parts)
        needed = RECORD_HEADER + _align8(payload_len)
        if needed > self.capacity:
            raise RpcError(
                f"record of {payload_len} bytes exceeds ring capacity {self.capacity}"
            )
        head = self._head
        pos = head % self.capacity
        contiguous = self.capacity - pos
        total = needed if needed <= contiguous else contiguous + needed
        if total > self.capacity - (head - self._tail):
            return False
        if needed > contiguous:
            # Fill to the wrap point with a pad record the reader skips.
            _RECORD.pack_into(self._data, pos, contiguous - RECORD_HEADER, KIND_PAD)
            head += contiguous
            pos = 0
        _RECORD.pack_into(self._data, pos, payload_len, kind)
        offset = pos + RECORD_HEADER
        for part in parts:
            view = memoryview(part).cast("B")
            self._data[offset : offset + len(view)] = view
            offset += len(view)
        # Publish: payload bytes first, then the head store makes the
        # record visible to the reader.
        self._counters[_HEAD] = head + needed
        return True

    def write(
        self,
        kind: int,
        parts: Sequence[bytes | bytearray | memoryview],
        timeout: float | None = None,
    ) -> bool:
        """``try_write`` with bounded spin-waiting for reader progress."""
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 1e-5
        while not self.try_write(kind, parts):
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(delay)
            delay = min(delay * 2, 1e-3)
        return True

    # -- reader side ---------------------------------------------------------

    def try_read(self) -> tuple[int, memoryview] | None:
        """Peek the next record as ``(kind, zero-copy payload view)``.

        The view aliases ring memory: it is valid until :meth:`consume`,
        which releases the bytes back to the writer. Returns ``None``
        when the ring is empty. Pad records are skipped internally.
        """
        while True:
            tail = self._tail
            if tail == self._head:
                return None
            pos = tail % self.capacity
            payload_len, kind = _RECORD.unpack_from(self._data, pos)
            total = RECORD_HEADER + _align8(payload_len)
            if kind == KIND_PAD:
                self._counters[_TAIL] = tail + total
                continue
            self._peeked = total
            start = pos + RECORD_HEADER
            return kind, self._data[start : start + payload_len]

    def consume(self) -> None:
        """Release the record returned by the last :meth:`try_read`."""
        if self._peeked == 0:
            raise RpcError("consume without a peeked record")
        self._counters[_TAIL] = self._tail + self._peeked
        self._peeked = 0

    def read(self, timeout: float | None = None) -> tuple[int, memoryview] | None:
        """``try_read`` with bounded spin-waiting; ``None`` on timeout or
        when the ring is closed *and* fully drained (close-then-drain is
        the shutdown contract: queued records are still delivered)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 1e-5
        while True:
            record = self.try_read()
            if record is not None:
                return record
            if self.closed:
                # The closer may have published its last record between
                # our peek and its close: look once more before EOF.
                return self.try_read()
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(delay)
            delay = min(delay * 2, 1e-3)
