"""Physical segments and stored-chunk placements.

``Each chunk acquired by the storage system is appended into a segment
represented by an in-memory buffer managed by the broker`` (paper,
Section IV-A). The segment stores the *encoded* chunk (header + records)
so a backup or a recovery scan can reconstruct placement from the bytes
alone; each segment is additionally tagged with the stream and streamlet
identifiers (used at recovery time).

A segment keeps the paper's two offsets: the *head* (next free byte) and
the *durable head* (bytes already replicated). Chunks become durable
strictly in append order — the replication layer acks them in virtual-log
order, and all chunks of one group flow through one virtual log.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

from repro.common.errors import SegmentFullError, StorageError
from repro.storage.index import SegmentOffsetIndex
from repro.wire.buffers import AppendBuffer
from repro.wire.chunk import (
    Chunk,
    CHUNK_HEADER_SIZE,
    CHUNK_PLACEMENT_OFFSET,
    placement_bytes,
)
from repro.wire.framing import iter_chunk_views


@dataclass(frozen=True)
class StoredChunk:
    """The placement of an ingested chunk: which segment, where, how big.

    This is exactly the metadata a virtual-segment *chunk reference*
    carries: ``a reference to the physical segment and the chunk's offset
    into physical segment and length`` (paper, Section IV-B).
    """

    segment: "Segment"
    offset: int
    length: int
    record_count: int
    payload_len: int
    payload_crc: int
    producer_id: int
    chunk_seq: int
    #: Logical record offset of this chunk's first record within its group.
    base_record_offset: int

    @property
    def stream_id(self) -> int:
        return self.segment.stream_id

    @property
    def streamlet_id(self) -> int:
        return self.segment.streamlet_id

    @property
    def group_id(self) -> int:
        return self.segment.group_id

    @property
    def segment_id(self) -> int:
        return self.segment.segment_id

    @property
    def end_offset(self) -> int:
        return self.offset + self.length

    @property
    def size(self) -> int:
        """Wire size alias so responses can account stored chunks and
        chunk views uniformly (metadata-only fetch path)."""
        return self.length

    @property
    def is_durable(self) -> bool:
        """Whether every byte of this chunk is below the durable head."""
        return self.end_offset <= self.segment.durable_head

    def encoded_view(self) -> memoryview:
        """Zero-copy view of the encoded chunk (materialized mode only)."""
        return self.segment.buffer.view(self.offset, self.length)

    def to_chunk(self, *, verify: bool = False) -> Chunk:
        """Re-decode the stored chunk (materialized mode only)."""
        from repro.wire.chunk import decode_chunk

        chunk, _ = decode_chunk(self.encoded_view(), verify=verify)
        return chunk

    def to_wire_chunk(self) -> Chunk:
        """Wire form of this chunk for replication and migration.

        Real bytes when the segment is materialized; an accounting-
        equivalent metadata chunk otherwise. Placement tags are carried
        either way.
        """
        if self.segment.buffer.materialized:
            return self.to_chunk()
        meta = Chunk.meta(
            stream_id=self.stream_id,
            streamlet_id=self.streamlet_id,
            producer_id=self.producer_id,
            chunk_seq=self.chunk_seq,
            record_count=self.record_count,
            payload_len=self.payload_len,
        )
        return meta.assigned(group_id=self.group_id, segment_id=self.segment_id)


class Segment:
    """A fixed-size append-only chunk container."""

    __slots__ = (
        "stream_id",
        "streamlet_id",
        "group_id",
        "segment_id",
        "buffer",
        "entries",
        "index",
        "_record_count",
    )

    def __init__(
        self,
        *,
        stream_id: int,
        streamlet_id: int,
        group_id: int,
        segment_id: int,
        capacity: int,
        materialize: bool = True,
    ) -> None:
        self.stream_id = stream_id
        self.streamlet_id = streamlet_id
        self.group_id = group_id
        self.segment_id = segment_id
        self.buffer = AppendBuffer(capacity, materialize=materialize)
        self.entries: list[StoredChunk] = []
        #: Record offset → frame byte range, built as frames land.
        self.index = SegmentOffsetIndex()
        self._record_count = 0

    # -- write path ---------------------------------------------------------

    def append(self, chunk: Chunk, base_record_offset: int) -> StoredChunk:
        """Append an encoded chunk; raise :class:`SegmentFullError` if it
        does not fit. The broker-assigned ``[group, segment]`` attributes
        are stamped into the encoded header here (paper: "updated at
        append time") — by patching the 8 placement bytes in the segment
        buffer after the frame lands, not by cloning and re-encoding the
        chunk."""
        length = CHUNK_HEADER_SIZE + chunk.payload_len
        if not self.buffer.fits(length):
            raise SegmentFullError(
                f"chunk of {length} bytes does not fit segment "
                f"{self.segment_id} (remaining {self.buffer.remaining()})"
            )
        if self.buffer.materialized:
            offset = self.buffer.append(chunk.encoded_frame())
            if (
                chunk.group_id != self.group_id
                or chunk.segment_id != self.segment_id
            ):
                self.buffer.patch(
                    offset + CHUNK_PLACEMENT_OFFSET,
                    placement_bytes(self.group_id, self.segment_id),
                )
        else:
            offset = self.buffer.reserve(length)
        stored = StoredChunk(
            segment=self,
            offset=offset,
            length=length,
            record_count=chunk.record_count,
            payload_len=chunk.payload_len,
            payload_crc=chunk.payload_crc,
            producer_id=chunk.producer_id,
            chunk_seq=chunk.chunk_seq,
            base_record_offset=base_record_offset,
        )
        self.entries.append(stored)
        self.index.add(chunk.record_count, offset, length)
        self._record_count += chunk.record_count
        return stored

    def seal(self) -> None:
        self.buffer.seal()

    # -- durability ------------------------------------------------------------

    @property
    def head(self) -> int:
        return self.buffer.head

    @property
    def durable_head(self) -> int:
        return self.buffer.durable_head

    def mark_chunk_durable(self, stored: StoredChunk) -> None:
        """Advance the durable head past ``stored``.

        Chunks must become durable in append order; a gap means the
        replication layer violated virtual-log ordering.
        """
        if stored.segment is not self:
            raise StorageError("chunk belongs to a different segment")
        if stored.offset != self.buffer.durable_head:
            raise StorageError(
                f"out-of-order durability: chunk at {stored.offset}, "
                f"durable head at {self.buffer.durable_head}"
            )
        self.buffer.advance_durable(stored.end_offset)

    # -- read path ------------------------------------------------------------

    @property
    def record_count(self) -> int:
        return self._record_count

    @property
    def chunk_count(self) -> int:
        return len(self.entries)

    @property
    def sealed(self) -> bool:
        return self.buffer.sealed

    def durable_entries(self) -> list[StoredChunk]:
        """The prefix of chunks that consumers may see."""
        durable = self.buffer.durable_head
        out = []
        for stored in self.entries:
            if stored.end_offset > durable:
                break
            out.append(stored)
        return out

    def read_at(self, record_offset: int) -> memoryview:
        """Zero-copy view of the encoded frame containing the segment-local
        ``record_offset`` — one bisect through the offset index, no scan."""
        if not self.buffer.materialized:
            raise StorageError("cannot read a metadata-only segment")
        start, end = self.index.frame_range(self.index.locate(record_offset))
        return self.buffer.view(start, end - start)

    def read_range(self, start_record: int, end_record: int) -> memoryview:
        """Zero-copy view spanning the frames that hold records
        ``[start_record, end_record)``.

        Frames are laid out back to back in the segment buffer, so any
        frame run is one contiguous byte range; the result is a single
        view regardless of how many frames the range covers. The range is
        frame-aligned (frames are the wire framing unit).
        """
        if not self.buffer.materialized:
            raise StorageError("cannot read a metadata-only segment")
        start, end = self.index.byte_range(start_record, end_record)
        return self.buffer.view(start, end - start)

    def rebuild_index(self) -> None:
        """Reconstruct the offset index from raw bytes (disk recovery:
        loaded segments arrive as frames without append-time metadata)."""
        if not self.buffer.materialized:
            raise StorageError("cannot rebuild the index of a metadata-only segment")
        self.index = SegmentOffsetIndex.rebuild(self.buffer.view(0, self.buffer.head))

    def scan(self, *, verify: bool = True) -> Iterator[Chunk]:
        """Decode all appended chunks from the raw bytes (recovery path)."""
        if not self.buffer.materialized:
            raise StorageError("cannot scan a metadata-only segment")
        return iter_chunk_views(self.buffer.view(0, self.buffer.head), verify=verify)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Segment(s{self.stream_id}/l{self.streamlet_id}/g{self.group_id}/"
            f"seg{self.segment_id}, chunks={len(self.entries)}, head={self.head})"
        )
