"""Chunk format and builder.

Producers group record entries into *chunks* of configurable fixed
capacity (e.g. 1 KB or 16 KB). Each chunk is tagged with the producer
identifier and a per-(producer, streamlet) sequence number — the broker
uses the pair for exactly-once de-duplication — and with ``[group,
segment]`` attributes assigned at broker append time, which recovery uses
to reconstruct each group consistently (paper, Section IV-B).

Header layout (little-endian, 40 bytes)::

    u16  magic          0xCE7A
    u8   fmt_version    1
    u8   flags          bit0: payload present
    u32  stream_id
    u32  streamlet_id
    u32  producer_id
    u32  chunk_seq      per (producer, streamlet) sequence number
    u32  group_id       broker-assigned (GROUP_UNASSIGNED from producers)
    u32  segment_id     broker-assigned (SEGMENT_UNASSIGNED from producers)
    u32  record_count
    u32  payload_len
    u32  payload_crc    CRC-32C over the record entries
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.common.checksum import crc32c, crc32c_append, crc32c_concat_rows, crc32c_many
from repro.common.errors import WireFormatError, ChecksumError
from repro.wire.record import (
    Record,
    encode_record,
    decode_records,
    uniform_frame_checksums,
    uniform_frame_crcs,
    uniform_keyless_frames,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.wire.pool import BufferPool

CHUNK_MAGIC = 0xCE7A
CHUNK_FMT_VERSION = 1
#: Sentinel for the broker-assigned attributes before append.
GROUP_UNASSIGNED = 0xFFFFFFFF
SEGMENT_UNASSIGNED = 0xFFFFFFFF

_HEADER = struct.Struct("<HBBIIIIIIIII")
#: Size of the chunk header in bytes.
CHUNK_HEADER_SIZE = _HEADER.size
assert CHUNK_HEADER_SIZE == 40

#: Byte offset of the broker-assigned ``group_id``/``segment_id`` pair
#: within an encoded chunk header (two consecutive little-endian u32s).
#: ``Segment.append`` stamps placement by patching these 8 bytes in the
#: segment buffer instead of re-encoding the chunk.
CHUNK_PLACEMENT_OFFSET = 20

_PLACEMENT = struct.Struct("<II")

_FLAG_PAYLOAD = 0x01


def placement_bytes(group_id: int, segment_id: int) -> bytes:
    """The 8 header bytes stamped at :data:`CHUNK_PLACEMENT_OFFSET`."""
    return _PLACEMENT.pack(group_id, segment_id)


@dataclass
class Chunk:  # noqa: A004 -- mutable by design: the broker assigns group/segment in place-free clones on the per-chunk append hot path (see Chunk.assigned), and __post_init__ backfills payload_crc; never shared across threads before append.
    """A batch of records, the unit of ingestion and replication.

    ``payload`` holds the back-to-back encoded record entries, or ``None``
    for metadata-only chunks (simulation benches), in which case
    ``payload_len`` still records the byte length the records would
    occupy. All storage-engine accounting works off ``payload_len`` so the
    two fidelities follow one code path.
    """

    stream_id: int
    streamlet_id: int
    producer_id: int
    chunk_seq: int
    record_count: int
    payload_len: int
    payload: bytes | memoryview | None = field(default=None, repr=False)
    payload_crc: int = 0
    group_id: int = GROUP_UNASSIGNED
    segment_id: int = SEGMENT_UNASSIGNED
    #: Cached encoded frame (header + payload) for the ids above. Producers
    #: encode once at build time; every later hop reuses these bytes. Not
    #: part of identity (``compare=False``) and dropped by :meth:`assigned`
    #: when the placement changes.
    wire: bytes | None = field(default=None, repr=False, compare=False)
    #: Whether ``payload_crc`` is known to match the payload bytes *in this
    #: address space*: set when the CRC was computed over these very bytes
    #: (builder/``__post_init__``) or checked against them (``decode_chunk``
    #: with ``verify=True``, :meth:`verify_payload`). Validation is a
    #: boundary-crossing cost — a chunk handed across threads by reference
    #: keeps the bit, while any transport that copies bytes between address
    #: spaces re-decodes and re-earns it on the receiving side.
    verified: bool = field(default=False, repr=False, compare=False)
    #: Whether every record's header checksum is known to match its bytes,
    #: with :attr:`verified`'s meaning: earned over these very bytes in
    #: this address space. Only :func:`verify_chunks` sets it — there the
    #: pass that checks the payload CRC computes every record checksum
    #: anyway — and it lets :meth:`records` skip reading the bytes again.
    records_verified: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.payload is not None:
            if len(self.payload) != self.payload_len:
                raise WireFormatError(
                    f"payload_len {self.payload_len} != len(payload) {len(self.payload)}"
                )
            if self.payload_crc == 0:
                self.payload_crc = crc32c(self.payload)
                self.verified = True

    @classmethod
    def meta(
        cls,
        *,
        stream_id: int,
        streamlet_id: int,
        producer_id: int,
        chunk_seq: int,
        record_count: int,
        payload_len: int,
    ) -> "Chunk":
        """Build a metadata-only chunk (no payload bytes)."""
        return cls(
            stream_id=stream_id,
            streamlet_id=streamlet_id,
            producer_id=producer_id,
            chunk_seq=chunk_seq,
            record_count=record_count,
            payload_len=payload_len,
        )

    @property
    def size(self) -> int:
        """Total wire size: header plus payload."""
        return CHUNK_HEADER_SIZE + self.payload_len

    @property
    def has_payload(self) -> bool:
        return self.payload is not None

    def records(self, *, verify: bool = True) -> list[Record]:
        """Decode the chunk's records (requires a payload)."""
        if self.payload is None:
            raise WireFormatError("metadata-only chunk has no records to decode")
        return decode_records(self.payload, verify=verify and not self.records_verified)

    def dedup_key(self) -> tuple[int, int, int]:
        """Identity used for exactly-once de-duplication at the broker."""
        return (self.streamlet_id, self.producer_id, self.chunk_seq)

    def assigned(self, group_id: int, segment_id: int) -> "Chunk":
        """Copy of this chunk with broker-assigned placement attributes.

        Hand-rolled rather than :func:`dataclasses.replace` — this sits on
        the per-chunk append path and ``replace`` re-runs validation that
        already held.
        """
        clone = object.__new__(Chunk)
        clone.stream_id = self.stream_id
        clone.streamlet_id = self.streamlet_id
        clone.producer_id = self.producer_id
        clone.chunk_seq = self.chunk_seq
        clone.record_count = self.record_count
        clone.payload_len = self.payload_len
        clone.payload = self.payload
        clone.payload_crc = self.payload_crc
        clone.group_id = group_id
        clone.segment_id = segment_id
        # The cached frame encodes this chunk's placement ids; it only
        # survives a clone that keeps them.
        same_placement = group_id == self.group_id and segment_id == self.segment_id
        clone.wire = self.wire if same_placement else None
        clone.verified = self.verified
        clone.records_verified = self.records_verified
        return clone

    def encoded_frame(self) -> bytes:
        """The encoded wire frame (header + payload), cached on first use.

        This is the encode-once entry point: producers populate the cache
        at build time, ``Segment.append`` copies it into the segment
        buffer (stamping placement in place there), and replication ships
        views of those bytes. Chunks with payloads must not be mutated
        after the first call; :meth:`assigned` is the sanctioned way to
        change placement.
        """
        return encode_chunk(self)

    def verify_payload(self) -> None:
        """Check the payload CRC; raise :class:`ChecksumError` on corruption.

        Idempotent per address space: once the CRC has been computed or
        checked over these payload bytes (:attr:`verified`), later calls
        are free — re-hashing bytes that never left the process would
        only re-prove what construction already proved."""
        if self.payload is None or self.verified:
            return
        actual = crc32c(self.payload)
        if actual != self.payload_crc:
            raise ChecksumError(self.payload_crc, actual, "chunk payload")
        self.verified = True


def encode_chunk(chunk: Chunk) -> bytes:
    """Serialize header + payload. Metadata-only chunks encode the header
    followed by ``payload_len`` zero bytes so framing stays self-describing.

    Payload-carrying chunks cache the result on ``chunk.wire``, so
    repeated encodes of the same placement are free."""
    if chunk.wire is not None:
        return chunk.wire
    flags = _FLAG_PAYLOAD if chunk.payload is not None else 0
    header = _HEADER.pack(
        CHUNK_MAGIC,
        CHUNK_FMT_VERSION,
        flags,
        chunk.stream_id,
        chunk.streamlet_id,
        chunk.producer_id,
        chunk.chunk_seq,
        chunk.group_id,
        chunk.segment_id,
        chunk.record_count,
        chunk.payload_len,
        chunk.payload_crc,
    )
    if chunk.payload is not None:
        frame = b"".join((header, chunk.payload))
        chunk.wire = frame
        return frame
    return header + b"\x00" * chunk.payload_len


def decode_chunk(
    buf: bytes | bytearray | memoryview, offset: int = 0, *, verify: bool = True
) -> tuple[Chunk, int]:
    """Decode one chunk at ``offset``; return ``(chunk, next_offset)``."""
    view = memoryview(buf)
    if offset + CHUNK_HEADER_SIZE > len(view):
        raise WireFormatError(f"truncated chunk header at offset {offset}")
    (
        magic,
        fmt_version,
        flags,
        stream_id,
        streamlet_id,
        producer_id,
        chunk_seq,
        group_id,
        segment_id,
        record_count,
        payload_len,
        payload_crc,
    ) = _HEADER.unpack_from(view, offset)
    if magic != CHUNK_MAGIC:
        raise WireFormatError(f"bad chunk magic {magic:#06x} at offset {offset}")
    if fmt_version != CHUNK_FMT_VERSION:
        raise WireFormatError(f"unsupported chunk format version {fmt_version}")
    start = offset + CHUNK_HEADER_SIZE
    end = start + payload_len
    if end > len(view):
        raise WireFormatError(f"truncated chunk payload at offset {offset}")
    payload = bytes(view[start:end]) if flags & _FLAG_PAYLOAD else None
    if payload is not None and verify:
        actual = crc32c(payload)
        if actual != payload_crc:
            raise ChecksumError(payload_crc, actual, f"chunk at offset {offset}")
    chunk = Chunk(
        stream_id=stream_id,
        streamlet_id=streamlet_id,
        producer_id=producer_id,
        chunk_seq=chunk_seq,
        record_count=record_count,
        payload_len=payload_len,
        payload=payload,
        payload_crc=payload_crc,
        group_id=group_id,
        segment_id=segment_id,
        verified=payload is not None and verify,
    )
    return chunk, end


def verify_chunks(chunks: Sequence[Chunk], offsets: Sequence[int]) -> None:
    """Validate chunks decoded with ``verify=False``, all in one pass.

    The batch form of ``decode_chunk(verify=True)`` for a boundary that
    receives many chunks at once (a fetch response): ``offsets[i]`` is
    where ``chunks[i]`` was decoded from and names it in the
    :class:`ChecksumError` a payload CRC mismatch raises — the error
    ``decode_chunk`` would have raised there. Nothing is marked unless
    every chunk passes.

    Chunks of uniform keyless records are stacked by shape and read by
    one :func:`~repro.common.checksum.crc32c_rows` pass each: it yields every record's header checksum, which
    is compared with the stored one (``record at offset N`` of the chunk
    payload on mismatch, as :func:`decode_records` reports it), and the
    payload CRCs are stitched from those record CRCs rather than read a
    second time; such chunks also earn :attr:`Chunk.records_verified`.
    Every other chunk is checked by one :func:`crc32c_many` pass and
    keeps its per-record verification in :meth:`Chunk.records`.
    """
    uniform: dict[tuple[int, int], list[int]] = {}
    plain: list[int] = []
    for i, chunk in enumerate(chunks):
        if chunk.payload is None or chunk.verified:
            continue
        frames = uniform_keyless_frames(chunk.payload)
        if frames is None:
            plain.append(i)
        else:
            uniform.setdefault(frames.shape, []).append(i)
    actual: dict[int, int] = {}
    if plain:
        actual.update(zip(plain, crc32c_many([chunks[i].payload for i in plain])))
    #: (chunk index, payload offset, stored, computed) of each group's first
    bad_records: list[tuple[int, int, int, int]] = []
    for (count, size), idxs in uniform.items():
        blob = b"".join([chunks[i].payload for i in idxs])
        frames = np.frombuffer(blob, dtype=np.uint8).reshape(len(idxs), count, size)
        stored, computed = uniform_frame_checksums(frames)
        payload_crcs = crc32c_concat_rows(uniform_frame_crcs(stored, computed, size), size)
        actual.update(zip(idxs, payload_crcs.tolist()))
        rows, cols = np.nonzero(stored != computed)
        if len(rows):
            row, col = int(rows[0]), int(cols[0])
            bad_records.append(
                (idxs[row], col * size, int(stored[row, col]), int(computed[row, col]))
            )
    for i in sorted(actual):
        if actual[i] != chunks[i].payload_crc:
            raise ChecksumError(
                chunks[i].payload_crc, actual[i], f"chunk at offset {offsets[i]}"
            )
    if bad_records:
        _, offset, expected, got = min(bad_records)
        raise ChecksumError(expected, got, f"record at offset {offset}")
    for i in actual:
        chunks[i].verified = True
    for idxs in uniform.values():
        for i in idxs:
            chunks[i].records_verified = True


class ChunkBuilder:
    """Accumulates records into a chunk of bounded byte capacity.

    Producers keep one builder per streamlet; the source thread appends
    records until the chunk fills or the linger timeout fires, then the
    requests thread seals it with :meth:`build` (paper, Figure 6).

    Records are encoded straight into a scratch buffer with
    :data:`CHUNK_HEADER_SIZE` bytes of headroom, so :meth:`build` writes
    the header in front of the already-laid-out payload and emits the
    complete wire frame in one copy — the chunk leaves the producer with
    its :attr:`Chunk.wire` cache populated and is never re-encoded
    downstream. The scratch buffer may come from a shared
    :class:`~repro.wire.pool.BufferPool` (``pool=``); call :meth:`close`
    to hand it back when the builder retires.
    """

    __slots__ = (
        "capacity",
        "stream_id",
        "streamlet_id",
        "producer_id",
        "_scratch",
        "_pool",
        "_size",
        "_count",
        "_payload_crc",
        "_crc_known",
    )

    def __init__(
        self,
        capacity: int,
        *,
        stream_id: int,
        streamlet_id: int,
        producer_id: int,
        pool: "BufferPool | None" = None,
    ) -> None:
        if capacity <= 0:
            raise WireFormatError("chunk capacity must be positive")
        self.capacity = capacity
        self.stream_id = stream_id
        self.streamlet_id = streamlet_id
        self.producer_id = producer_id
        self._pool = pool
        if pool is not None:
            scratch = pool.rent()
            if len(scratch) < CHUNK_HEADER_SIZE + capacity:
                pool.release(scratch)
                raise WireFormatError(
                    f"pool buffers of {len(scratch)} bytes cannot hold a "
                    f"{capacity}-byte chunk plus header"
                )
            self._scratch: bytearray | None = scratch
        else:
            self._scratch = bytearray(CHUNK_HEADER_SIZE + capacity)
        self._size = 0
        self._count = 0
        # Running finalized CRC of the payload staged so far, maintained
        # as long as every append supplied its own CRC (appends that
        # don't flip _crc_known and build() falls back to re-reading).
        self._payload_crc = 0
        self._crc_known = True

    @property
    def record_count(self) -> int:
        return self._count

    @property
    def payload_size(self) -> int:
        return self._size

    @property
    def is_empty(self) -> bool:
        return self._count == 0

    def remaining(self) -> int:
        return self.capacity - self._size

    def try_append(self, record: Record) -> bool:
        """Append if the encoded record fits; return whether it did.

        A record larger than an *empty* chunk's capacity is a hard error —
        it could never be shipped.
        """
        encoded = encode_record(record)
        if len(encoded) > self.capacity:
            raise WireFormatError(
                f"record of {len(encoded)} bytes exceeds chunk capacity {self.capacity}"
            )
        return self.try_append_encoded(encoded)

    def try_append_encoded(
        self, encoded: bytes, count: int = 1, *, payload_crc: int | None = None
    ) -> bool:
        """Append pre-encoded record bytes (vectorized workload path).

        ``payload_crc``, when the caller already knows the CRC-32C of
        ``encoded`` (the batch encoder computes record CRCs anyway),
        folds into a running payload checksum so :meth:`build` can seal
        without re-reading the scratch bytes; any append without it
        falls the chunk back to the re-reading seal.
        """
        if self._size + len(encoded) > self.capacity:
            return False
        if self._scratch is None:
            raise WireFormatError("append on closed chunk builder")
        start = CHUNK_HEADER_SIZE + self._size
        self._scratch[start : start + len(encoded)] = encoded
        if payload_crc is None:
            self._crc_known = False
        elif self._crc_known:
            self._payload_crc = (
                payload_crc
                if self._size == 0
                else crc32c_append(self._payload_crc, payload_crc, len(encoded))
            )
        self._size += len(encoded)
        self._count += count
        return True

    def build(self, chunk_seq: int) -> Chunk:
        """Seal the accumulated records into a chunk and reset the builder.

        The returned chunk carries its encoded frame (:attr:`Chunk.wire`)
        and a zero-copy ``payload`` view into it.
        """
        if self._scratch is None:
            raise WireFormatError("build on closed chunk builder")
        end = CHUNK_HEADER_SIZE + self._size
        if self._crc_known:
            # Every append carried its CRC: the payload checksum composed
            # incrementally and sealing touches no payload bytes.
            payload_crc = self._payload_crc
        else:
            payload_crc = crc32c(memoryview(self._scratch)[CHUNK_HEADER_SIZE:end])
        _HEADER.pack_into(
            self._scratch,
            0,
            CHUNK_MAGIC,
            CHUNK_FMT_VERSION,
            _FLAG_PAYLOAD,
            self.stream_id,
            self.streamlet_id,
            self.producer_id,
            chunk_seq,
            GROUP_UNASSIGNED,
            SEGMENT_UNASSIGNED,
            self._count,
            self._size,
            payload_crc,
        )
        frame = bytes(memoryview(self._scratch)[:end])
        chunk = Chunk(
            stream_id=self.stream_id,
            streamlet_id=self.streamlet_id,
            producer_id=self.producer_id,
            chunk_seq=chunk_seq,
            record_count=self._count,
            payload_len=self._size,
            payload=memoryview(frame)[CHUNK_HEADER_SIZE:],
            payload_crc=payload_crc,
            wire=frame,
            verified=True,
        )
        self._size = 0
        self._count = 0
        self._payload_crc = 0
        self._crc_known = True
        return chunk

    def close(self) -> None:
        """Release the scratch buffer (back to the pool when pooled)."""
        if self._scratch is None:
            return
        if self._pool is not None:
            self._pool.release(self._scratch)
        self._scratch = None
