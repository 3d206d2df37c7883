"""Gateway frame kinds and packed payload forms.

Every gateway message rides in one :mod:`repro.wire.netframe` frame; the
payload forms here are packed structs, not pickles — the gateway fronts
untrusted client connections, and a struct layout bounds what a malformed
payload can do (a typed decode error on this side, never arbitrary
object construction).

Layout invariant shared by every kind: the payload begins with the
``u64`` request id, so a server that fails to decode the rest can still
address its error frame, and the client reader can correlate any
response kind without knowing its shape.

Chunk bytes cross this boundary *verbatim*: produce payloads embed the
producer-built chunk frames (header + payload, CRC stamped at build
time), fetch responses embed the broker's frame views. Each side
re-validates CRCs on receipt because the bytes crossed an address space
— the same discipline as the replication plane's
``frames_verified=False`` — and does it once per message, not per chunk:
the server batch-verifies a merge window in its coalescer, the client a
whole fetch response in :func:`decode_fetch_ok`.

Responses are decoded by clients of a server they may not trust either:
a short or garbage response raises a typed :class:`GatewayError` (or the
wire layer's ``WireFormatError`` / ``ChecksumError``), never a bare
``struct.error``.
"""

from __future__ import annotations

import re
import struct
from collections.abc import Sequence

from repro.common.errors import NotLeaderError, RetriableRpcError, RpcError
from repro.wire.chunk import Chunk, decode_chunk, verify_chunks
from repro.wire.netframe import BufferPart
from repro.kera.messages import ChunkAssignment, FetchPosition

#: Frame kinds (the socket transport owns 1-8; the gateway owns 10+).
GW_PRODUCE = 10
GW_PRODUCE_OK = 11
GW_FETCH = 12
GW_FETCH_OK = 13
GW_ERROR = 14
GW_CREATE_STREAM = 15
GW_OK = 16
GW_META = 17
GW_META_OK = 18

_REQUEST_ID = struct.Struct("<Q")
_PRODUCE_HEAD = struct.Struct("<QqI")  # request_id, producer_id, nchunks
_U32 = struct.Struct("<I")
_PRODUCE_OK_HEAD = struct.Struct("<QI")  # request_id, nassignments
#: stream, streamlet, group, segment, offset, duplicate
_ASSIGNMENT = struct.Struct("<qqqqqB")
#: request_id, consumer_id, max_chunks, max_wait_ms, npositions
_FETCH_HEAD = struct.Struct("<QqIII")
#: stream, streamlet, entry, group_pos, chunk_pos, seek_record (-1 = none)
_POSITION = struct.Struct("<qqqqqq")
_FETCH_OK_HEAD = struct.Struct("<QI")  # request_id, nentries
_ENTRY_HEAD = struct.Struct("<I")  # nchunks (after position + next_position)
_CREATE_STREAM = struct.Struct("<Qqq")  # request_id, stream_id, num_streamlets
_OK_HEAD = struct.Struct("<Q")
_META_REQ = struct.Struct("<Qq")  # request_id, stream_id
_META_OK_HEAD = struct.Struct("<QqqI")  # request_id, q_active, chunk_size, nstreamlets
_I64 = struct.Struct("<q")


class GatewayError(RpcError):
    """A request failed server-side; carries the relayed message."""


# -- produce -----------------------------------------------------------------


def encode_produce(
    request_id: int, producer_id: int, frames: Sequence[BufferPart]
) -> list[BufferPart]:
    """Client side: chunk frames go out verbatim (length-prefixed each)."""
    parts: list[BufferPart] = [_PRODUCE_HEAD.pack(request_id, producer_id, len(frames))]
    for frame in frames:
        parts.append(_U32.pack(len(frame)))
        parts.append(frame)
    return parts


def decode_produce(
    payload: bytes | memoryview, *, verify: bool = True
) -> tuple[int, int, list[Chunk]]:
    """Server side: re-validate every chunk CRC at the trust boundary.

    With ``verify=False`` the structural decode still happens but the CRC
    check is deferred: chunks come back with ``verified=False`` and the
    caller owes the re-validation before the bytes reach the data plane
    (the gateway batch-verifies off the loop thread in its coalescer).
    """
    request_id, producer_id, nchunks = _PRODUCE_HEAD.unpack_from(payload, 0)
    offset = _PRODUCE_HEAD.size
    chunks: list[Chunk] = []
    for _ in range(nchunks):
        (length,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        chunk, end = decode_chunk(payload, offset, verify=verify)
        if end != offset + length:
            raise GatewayError(
                f"chunk frame length mismatch: declared {length}, "
                f"decoded {end - offset}"
            )
        # The produce path re-ships these bytes to the replication plane;
        # caching the verbatim frame keeps the encode-once discipline.
        chunk.wire = bytes(payload[offset:end])
        chunks.append(chunk)
        offset = end
    return request_id, producer_id, chunks


def encode_produce_ok(
    request_id: int, assignments: Sequence[ChunkAssignment]
) -> list[BufferPart]:
    parts: list[BufferPart] = [_PRODUCE_OK_HEAD.pack(request_id, len(assignments))]
    for a in assignments:
        parts.append(
            _ASSIGNMENT.pack(
                a.stream_id,
                a.streamlet_id,
                a.group_id,
                a.segment_id,
                a.offset,
                1 if a.duplicate else 0,
            )
        )
    return parts


def decode_produce_ok(payload: bytes | memoryview) -> tuple[int, list[ChunkAssignment]]:
    try:
        request_id, count = _PRODUCE_OK_HEAD.unpack_from(payload, 0)
        offset = _PRODUCE_OK_HEAD.size
        assignments: list[ChunkAssignment] = []
        for _ in range(count):
            stream, streamlet, group, segment, off, dup = _ASSIGNMENT.unpack_from(
                payload, offset
            )
            offset += _ASSIGNMENT.size
            assignments.append(
                ChunkAssignment(
                    stream_id=stream,
                    streamlet_id=streamlet,
                    group_id=group,
                    segment_id=segment,
                    offset=off,
                    duplicate=bool(dup),
                )
            )
    except struct.error as exc:
        raise GatewayError(f"truncated GW_PRODUCE_OK payload: {exc}") from None
    return request_id, assignments


# -- fetch -------------------------------------------------------------------


def _pack_position(pos: FetchPosition) -> bytes:
    seek = -1 if pos.seek_record is None else pos.seek_record
    return _POSITION.pack(
        pos.stream_id, pos.streamlet_id, pos.entry, pos.group_pos, pos.chunk_pos, seek
    )


def _unpack_position(payload: bytes | memoryview, offset: int) -> FetchPosition:
    stream, streamlet, entry, group_pos, chunk_pos, seek = _POSITION.unpack_from(
        payload, offset
    )
    return FetchPosition(
        stream_id=stream,
        streamlet_id=streamlet,
        entry=entry,
        group_pos=group_pos,
        chunk_pos=chunk_pos,
        seek_record=None if seek < 0 else seek,
    )


def encode_fetch(
    request_id: int,
    consumer_id: int,
    positions: Sequence[FetchPosition],
    max_chunks_per_entry: int,
    max_wait_ms: int = 0,
) -> list[BufferPart]:
    """``max_wait_ms`` is the fetch-wait contract, carried per request:
    when no requested cursor has a durable chunk the server may hold the
    request that long for one to appear (0 = answer at once)."""
    parts: list[BufferPart] = [
        _FETCH_HEAD.pack(
            request_id, consumer_id, max_chunks_per_entry, max_wait_ms, len(positions)
        )
    ]
    parts.extend(_pack_position(pos) for pos in positions)
    return parts


def decode_fetch(
    payload: bytes | memoryview,
) -> tuple[int, int, int, int, list[FetchPosition]]:
    """``(request_id, consumer_id, max_chunks, max_wait_ms, positions)``."""
    try:
        request_id, consumer_id, max_chunks, max_wait_ms, npositions = (
            _FETCH_HEAD.unpack_from(payload, 0)
        )
        offset = _FETCH_HEAD.size
        positions: list[FetchPosition] = []
        for _ in range(npositions):
            positions.append(_unpack_position(payload, offset))
            offset += _POSITION.size
    except struct.error as exc:
        raise GatewayError(f"truncated GW_FETCH payload: {exc}") from None
    return request_id, consumer_id, max_chunks, max_wait_ms, positions


def encode_fetch_ok(
    request_id: int,
    entries: Sequence[tuple[FetchPosition, FetchPosition, Sequence[BufferPart]]],
) -> list[BufferPart]:
    """Server side: ``(position, next_position, chunk frames)`` per entry.

    The frame parts are typically ``ChunkView.frame`` memoryviews served
    out of the fan-out cache, returned as-is: nothing is copied here.
    :func:`~repro.wire.netframe.write_frame_async` passes them with the
    small header parts to the transport in one call — on CPython 3.11
    one join of the whole frame and one ``send()``, on 3.12+ one
    vectored ``sendmsg``.
    """
    parts: list[BufferPart] = [_FETCH_OK_HEAD.pack(request_id, len(entries))]
    for position, next_position, frames in entries:
        parts.append(_pack_position(position))
        parts.append(_pack_position(next_position))
        parts.append(_ENTRY_HEAD.pack(len(frames)))
        for frame in frames:
            parts.append(_U32.pack(len(frame)))
            parts.append(frame)
    return parts


def decode_fetch_ok(
    payload: bytes | memoryview,
) -> tuple[int, list[tuple[FetchPosition, FetchPosition, list[Chunk]]]]:
    """Client side: decode + re-validate the fetched chunk frames.

    The frames decode structurally first; then the whole response is
    validated in one :func:`~repro.wire.chunk.verify_chunks` pass before
    anything is returned, so each byte is read by a CRC engine once for
    the response instead of once per chunk and again per record.
    """
    try:
        request_id, nentries = _FETCH_OK_HEAD.unpack_from(payload, 0)
        offset = _FETCH_OK_HEAD.size
        entries: list[tuple[FetchPosition, FetchPosition, list[Chunk]]] = []
        fetched: list[Chunk] = []
        offsets: list[int] = []
        for _ in range(nentries):
            position = _unpack_position(payload, offset)
            offset += _POSITION.size
            next_position = _unpack_position(payload, offset)
            offset += _POSITION.size
            (nchunks,) = _ENTRY_HEAD.unpack_from(payload, offset)
            offset += _ENTRY_HEAD.size
            chunks: list[Chunk] = []
            for _ in range(nchunks):
                (length,) = _U32.unpack_from(payload, offset)
                offset += _U32.size
                chunk, end = decode_chunk(payload, offset, verify=False)
                if end != offset + length:
                    raise GatewayError(
                        f"chunk frame length mismatch: declared {length}, "
                        f"decoded {end - offset}"
                    )
                chunks.append(chunk)
                offsets.append(offset)
                offset = end
            fetched.extend(chunks)
            entries.append((position, next_position, chunks))
    except struct.error as exc:
        raise GatewayError(f"truncated GW_FETCH_OK payload: {exc}") from None
    if fetched:
        verify_chunks(fetched, offsets)
    return request_id, entries


# -- admin / meta ------------------------------------------------------------


def encode_create_stream(
    request_id: int, stream_id: int, num_streamlets: int
) -> list[BufferPart]:
    return [_CREATE_STREAM.pack(request_id, stream_id, num_streamlets)]


def decode_create_stream(payload: bytes | memoryview) -> tuple[int, int, int]:
    request_id, stream_id, num_streamlets = _CREATE_STREAM.unpack_from(payload, 0)
    return request_id, stream_id, num_streamlets


def encode_ok(request_id: int) -> list[BufferPart]:
    return [_OK_HEAD.pack(request_id)]


def encode_meta(request_id: int, stream_id: int) -> list[BufferPart]:
    return [_META_REQ.pack(request_id, stream_id)]


def decode_meta(payload: bytes | memoryview) -> tuple[int, int]:
    request_id, stream_id = _META_REQ.unpack_from(payload, 0)
    return request_id, stream_id


def encode_meta_ok(
    request_id: int,
    q_active_groups: int,
    chunk_size: int,
    streamlet_ids: Sequence[int],
) -> list[BufferPart]:
    parts: list[BufferPart] = [
        _META_OK_HEAD.pack(request_id, q_active_groups, chunk_size, len(streamlet_ids))
    ]
    parts.extend(_I64.pack(sid) for sid in streamlet_ids)
    return parts


def decode_meta_ok(payload: bytes | memoryview) -> tuple[int, int, int, list[int]]:
    try:
        request_id, q_active, chunk_size, count = _META_OK_HEAD.unpack_from(payload, 0)
        offset = _META_OK_HEAD.size
        streamlets: list[int] = []
        for _ in range(count):
            streamlets.append(_I64.unpack_from(payload, offset)[0])
            offset += _I64.size
    except struct.error as exc:
        raise GatewayError(f"truncated GW_META_OK payload: {exc}") from None
    return request_id, q_active, chunk_size, streamlets


# -- errors ------------------------------------------------------------------


def encode_error(request_id: int, exc: BaseException) -> list[BufferPart]:
    message = f"{type(exc).__name__}: {exc}"
    return [_REQUEST_ID.pack(request_id), message.encode("utf-8", "replace")]


#: Relayed ``NotLeaderError`` messages, as ``encode_error`` renders them
#: (``str(NotLeaderError(...))`` — see :mod:`repro.common.errors`).
_NOT_LEADER = re.compile(
    r"^NotLeaderError: not leader for stream (-?\d+) streamlet (-?\d+)"
    r"(?: \(leader is broker (\d+)\))?$"
)

#: Server-side exception type names whose relays stay retryable: the
#: condition is transient (a broker mid-failover, replication catching
#: up) and the client should refresh metadata and re-send.
_RETRYABLE_NAMES = frozenset({"RetriableRpcError", "ReplicationError"})


def decode_error(payload: bytes | memoryview) -> tuple[int, RpcError]:
    """Decode an error relay, re-typing the retryable ones.

    A broker that died mid-pipeline surfaces here as the server-side
    ``NotLeaderError`` the fenced broker raised; reconstructing the
    typed error (rather than an opaque :class:`GatewayError`) lets
    pipelined producers refresh routing and retry instead of dying.
    Everything else stays a ``GatewayError``: the gateway fronts an
    untrusted boundary, so only messages matching the known typed
    shapes are promoted — never arbitrary type names.
    """
    (request_id,) = _REQUEST_ID.unpack_from(payload, 0)
    message = bytes(payload[_REQUEST_ID.size :]).decode("utf-8", "replace")
    match = _NOT_LEADER.match(message)
    if match:
        leader = match.group(3)
        return request_id, NotLeaderError(
            int(match.group(1)),
            int(match.group(2)),
            None if leader is None else int(leader),
        )
    name, sep, _ = message.partition(":")
    if sep and name in _RETRYABLE_NAMES:
        return request_id, RetriableRpcError(message)
    return request_id, GatewayError(message)


def peek_request_id(payload: bytes | memoryview) -> int:
    """Every gateway payload leads with its request id (layout invariant)."""
    return int(_REQUEST_ID.unpack_from(payload, 0)[0])
