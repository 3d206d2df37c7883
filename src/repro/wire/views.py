"""Lazy zero-copy decode views over encoded frames.

The write path encodes once and ships views of the encoded bytes; these
classes are the read-path mirror: a :class:`ChunkView` wraps an encoded
chunk frame (header + records) *in place*, parsing header fields on
demand and never copying payload bytes until the caller materializes
them. A :class:`RecordView` does the same for one record entry inside the
payload — its value is exposed as a :class:`memoryview` slice of the
frame, so a consumer that filters on headers or hands values straight to
another buffer touches each byte exactly once.

Views are plain ``__slots__`` classes rather than dataclasses: they sit
on the per-record consume hot path, and they are *windows onto shared
bytes*, not messages — the frame they alias belongs to a segment buffer
or a cache entry and must not be mutated while views are live (append-only
segment bytes below the durable head never are).

Integrity discipline mirrors :class:`repro.wire.chunk.Chunk`: a view
carries a ``verified`` bit meaning "the payload CRC was checked against
these very bytes in this address space". The fan-out cache validates once
per cached chunk and every consumer group inherits the bit; per-record
header checksums are then redundant on the read path (the chunk CRC
covers every payload byte) and are only recomputed on demand via
:meth:`RecordView.verify`.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.common.checksum import crc32c
from repro.common.errors import ChecksumError, WireFormatError
from repro.wire.chunk import (
    CHUNK_HEADER_SIZE,
    CHUNK_MAGIC,
    CHUNK_FMT_VERSION,
    Chunk,
    decode_chunk,
)
from repro.wire.record import RECORD_FIXED_HEADER, Record, decode_records

_CHUNK_HEADER = struct.Struct("<HBBIIIIIIIII")
_RECORD_FIXED = struct.Struct("<IBBI")
_U64 = struct.Struct("<Q")
_U16 = struct.Struct("<H")

_FLAG_VERSION = 0x01
_FLAG_TIMESTAMP = 0x02


class RecordView:
    """A zero-copy window onto one encoded record entry.

    The fixed header (checksum, flags, key_count, value_len) is parsed at
    construction — iteration needs the entry's extent anyway — while the
    optional attributes, keys, and value bytes are materialized only on
    access.
    """

    __slots__ = (
        "_buf",
        "offset",
        "checksum",
        "flags",
        "key_count",
        "value_len",
        "end_offset",
        "_body_start",
    )

    def __init__(self, buf: memoryview, offset: int = 0) -> None:
        if offset + RECORD_FIXED_HEADER > len(buf):
            raise WireFormatError(
                f"truncated record header at offset {offset} "
                f"(buffer {len(buf)} bytes)"
            )
        self._buf = buf  # borrows: buf -- a RecordView is a window into its chunk's payload bytes
        self.offset = offset
        checksum, flags, key_count, value_len = _RECORD_FIXED.unpack_from(
            buf, offset
        )
        self.checksum = checksum
        self.flags = flags
        self.key_count = key_count
        self.value_len = value_len
        pos = offset + RECORD_FIXED_HEADER
        pos += 8 * bool(flags & _FLAG_VERSION) + 8 * bool(flags & _FLAG_TIMESTAMP)
        if key_count:
            key_end = pos + 2 * key_count
            if key_end > len(buf):
                raise WireFormatError(
                    f"truncated record header fields at offset {offset}"
                )
            for i in range(key_count):
                pos += 2 + _U16.unpack_from(buf, key_end - 2 * (key_count - i))[0]
            # ``pos`` now spans the key-length array plus every key body.
        self._body_start = pos
        self.end_offset = pos + value_len
        if self.end_offset > len(buf):
            raise WireFormatError(f"truncated record body at offset {offset}")

    @property
    def size(self) -> int:
        return self.end_offset - self.offset

    @property
    def version(self) -> int | None:
        if not self.flags & _FLAG_VERSION:
            return None
        return int(_U64.unpack_from(self._buf, self.offset + RECORD_FIXED_HEADER)[0])

    @property
    def timestamp(self) -> int | None:
        if not self.flags & _FLAG_TIMESTAMP:
            return None
        pos = self.offset + RECORD_FIXED_HEADER
        pos += 8 * bool(self.flags & _FLAG_VERSION)
        return int(_U64.unpack_from(self._buf, pos)[0])

    @property
    def keys(self) -> tuple[bytes, ...]:
        """The record's keys, copied out (empty for benchmark records)."""
        if not self.key_count:
            return ()
        pos = self.offset + RECORD_FIXED_HEADER
        pos += 8 * bool(self.flags & _FLAG_VERSION)
        pos += 8 * bool(self.flags & _FLAG_TIMESTAMP)
        lens = [
            _U16.unpack_from(self._buf, pos + 2 * i)[0]
            for i in range(self.key_count)
        ]
        pos += 2 * self.key_count
        keys = []
        for klen in lens:
            keys.append(bytes(self._buf[pos : pos + klen]))
            pos += klen
        return tuple(keys)

    @property
    def value_view(self) -> memoryview:
        """The value bytes, zero-copy (a slice of the backing frame)."""
        return self._buf[self._body_start : self.end_offset]

    @property
    def value(self) -> bytes:
        """The value bytes, materialized (copies)."""
        return bytes(self.value_view)

    def verify(self) -> None:
        """Recompute the entry-header checksum; raise on corruption."""
        covered = bytes(self._buf[self.offset + 4 : self.end_offset])
        actual = crc32c(covered)
        if actual != self.checksum:
            raise ChecksumError(
                self.checksum, actual, f"record at offset {self.offset}"
            )

    def to_record(self) -> Record:
        """Materialize an immutable :class:`Record` (copies all bytes)."""
        return Record(
            value=self.value,
            keys=self.keys,
            version=self.version,
            timestamp=self.timestamp,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RecordView(offset={self.offset}, value_len={self.value_len}, "
            f"keys={self.key_count})"
        )


class ChunkView:
    """A zero-copy window onto one encoded chunk frame.

    Wraps ``frame`` (header + payload bytes, e.g. a
    :meth:`repro.storage.segment.StoredChunk.encoded_view` slice of a
    segment buffer) without decoding it. Header fields are parsed on the
    first access of any of them and memoized as a tuple; the payload is
    only ever exposed as views until a caller explicitly materializes
    records.

    ``verified`` follows the write path's discipline: it is set when the
    payload CRC has been checked over these very bytes in this address
    space (:meth:`verify_payload`, or by the fan-out cache at admission).
    """

    __slots__ = ("frame", "verified", "_fields", "_records")

    def __init__(self, frame: memoryview | bytes, *, verified: bool = False) -> None:
        view = frame if isinstance(frame, memoryview) else memoryview(frame)
        if len(view) < CHUNK_HEADER_SIZE:
            raise WireFormatError(
                f"frame of {len(view)} bytes is shorter than a chunk header"
            )
        self.frame = view  # borrows: frame -- the view window is only valid while the caller's frame bytes (ring slot / segment buffer / cache entry) stay alive
        self.verified = verified
        self._fields: tuple[int, ...] | None = None
        self._records: list[Record] | None = None

    # -- lazy header ---------------------------------------------------------

    def _header(self) -> tuple[int, ...]:
        fields = self._fields
        if fields is None:
            fields = _CHUNK_HEADER.unpack_from(self.frame, 0)
            if fields[0] != CHUNK_MAGIC:
                raise WireFormatError(f"bad chunk magic {fields[0]:#06x} in frame")
            if fields[1] != CHUNK_FMT_VERSION:
                raise WireFormatError(
                    f"unsupported chunk format version {fields[1]}"
                )
            if CHUNK_HEADER_SIZE + fields[10] > len(self.frame):
                raise WireFormatError(
                    f"frame of {len(self.frame)} bytes shorter than header + "
                    f"payload_len {fields[10]}"
                )
            self._fields = fields
        return fields

    @property
    def stream_id(self) -> int:
        return self._header()[3]

    @property
    def streamlet_id(self) -> int:
        return self._header()[4]

    @property
    def producer_id(self) -> int:
        return self._header()[5]

    @property
    def chunk_seq(self) -> int:
        return self._header()[6]

    @property
    def group_id(self) -> int:
        return self._header()[7]

    @property
    def segment_id(self) -> int:
        return self._header()[8]

    @property
    def record_count(self) -> int:
        return self._header()[9]

    @property
    def payload_len(self) -> int:
        return self._header()[10]

    @property
    def payload_crc(self) -> int:
        return self._header()[11]

    @property
    def size(self) -> int:
        """Total wire size (header + payload) — same accounting surface as
        :class:`~repro.wire.chunk.Chunk`, so fetch responses can hold
        either."""
        return CHUNK_HEADER_SIZE + self.payload_len

    # -- payload access ------------------------------------------------------

    @property
    def payload_view(self) -> memoryview:
        """The encoded record entries, zero-copy."""
        return self.frame[CHUNK_HEADER_SIZE : CHUNK_HEADER_SIZE + self.payload_len]

    def verify_payload(self) -> None:
        """Check the payload CRC over the framed bytes; idempotent per
        address space, exactly like :meth:`Chunk.verify_payload`."""
        if self.verified:
            return
        actual = crc32c(self.payload_view)
        if actual != self.payload_crc:
            raise ChecksumError(self.payload_crc, actual, "chunk frame payload")
        self.verified = True

    def record_views(self) -> Iterator[RecordView]:
        """Iterate lazy record views over the payload, in order."""
        payload = self.payload_view
        offset = 0
        end = len(payload)
        while offset < end:
            view = RecordView(payload, offset)
            yield view
            offset = view.end_offset

    def records(self) -> list[Record]:
        """Materialized records, decoded on the first call and memoized.

        Decodes *without* per-record checksum verification
        (:func:`~repro.wire.record.decode_records` with ``verify=False``:
        the vectorized path for uniform keyless payloads, the per-record
        loop for any other shape): the chunk CRC covers every payload
        byte and callers hold views whose ``verified`` bit the serving
        boundary already earned. Call :meth:`RecordView.verify` per record
        when scanning bytes of unknown provenance. The memo makes repeated
        consumption free. Threads sharing one view may race on the first
        call: each then decodes, and each publishes an equal list.
        """
        records = self._records
        if records is None:
            records = decode_records(self.payload_view, verify=False)
            self._records = records
        return records

    def to_chunk(self, *, verify: bool = False) -> Chunk:
        """Materialize a :class:`Chunk` (copies the payload)."""
        chunk, _ = decode_chunk(self.frame, verify=verify)
        if not verify:
            chunk.verified = self.verified
        return chunk

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkView(size={len(self.frame)}, verified={self.verified})"
        )
