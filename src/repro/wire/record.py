"""Record entry format.

A record is ``several keys (possibly none) and its value`` plus an entry
header whose checksum ``covers everything but this field`` (paper,
Section IV-A). The header optionally carries a version and a timestamp so
key-value interfaces can be layered on top efficiently.

Layout (little-endian)::

    u32  checksum      CRC-32C over every byte after this field
    u8   flags         bit0: version present, bit1: timestamp present
    u8   key_count
    u32  value_len
    [u64 version]      if flags bit0
    [u64 timestamp]    if flags bit1
    u16  key_len[key_count]
    ...  key bytes, back to back
    ...  value bytes

A 100-byte benchmark record (the paper's workload) is a keyless,
version-less record with a 90-byte value: 10 bytes of fixed header + 90.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from repro.common.checksum import crc32c, crc32c_rows, crc32c_rows_prepend_u32
from repro.common.errors import WireFormatError, ChecksumError

#: Size of the always-present header fields (checksum, flags, key_count,
#: value_len).
RECORD_FIXED_HEADER = 10

_FLAG_VERSION = 0x01
_FLAG_TIMESTAMP = 0x02

_FIXED = struct.Struct("<IBBI")
_U64 = struct.Struct("<Q")
_U16 = struct.Struct("<H")


class Record(NamedTuple):
    """An immutable stream record.

    ``keys`` is a tuple of byte strings (empty for the non-keyed records
    used throughout the paper's evaluation); ``value`` is the payload.
    ``version`` and ``timestamp`` are optional header attributes.

    A named tuple, so a decoder builds one in a single tuple allocation
    (no per-field ``__setattr__``). Equality and hashing go by fields
    and an instance is immutable; the one widening over a frozen
    dataclass is that a ``Record`` also equals the plain ``(value, keys,
    version, timestamp)`` tuple and unpacks like one.
    """

    value: bytes
    keys: tuple[bytes, ...] = ()
    version: int | None = None
    timestamp: int | None = None

    def encoded_size(self) -> int:
        """Exact size in bytes of :func:`encode_record` output."""
        size = RECORD_FIXED_HEADER + len(self.value)
        if self.version is not None:
            size += 8
        if self.timestamp is not None:
            size += 8
        size += 2 * len(self.keys) + sum(len(k) for k in self.keys)
        return size

    @property
    def key(self) -> bytes | None:
        """The first key, or ``None`` for non-keyed records."""
        return self.keys[0] if self.keys else None


def encode_record(record: Record) -> bytes:
    """Serialize ``record``; the header checksum is computed here."""
    if len(record.keys) > 255:
        raise WireFormatError("at most 255 keys per record")
    flags = 0
    tail = bytearray()
    if record.version is not None:
        flags |= _FLAG_VERSION
        tail += _U64.pack(record.version)
    if record.timestamp is not None:
        flags |= _FLAG_TIMESTAMP
        tail += _U64.pack(record.timestamp)
    for k in record.keys:
        if len(k) > 0xFFFF:
            raise WireFormatError("key longer than 65535 bytes")
        tail += _U16.pack(len(k))
    for k in record.keys:
        tail += k
    tail += record.value
    # The checksum covers everything after the checksum field itself:
    # flags, key_count, value_len, and the tail.
    covered = (
        struct.pack("<BBI", flags, len(record.keys), len(record.value)) + bytes(tail)
    )
    return _FIXED.pack(crc32c(covered), flags, len(record.keys), len(record.value)) + bytes(
        tail
    )


def decode_record(
    buf: bytes | bytearray | memoryview, offset: int = 0, *, verify: bool = True
) -> tuple[Record, int]:
    """Decode one record at ``offset``; return ``(record, next_offset)``.

    With ``verify=True`` (the default) the header checksum is recomputed
    and a :class:`ChecksumError` raised on mismatch.
    """
    view = memoryview(buf)
    if offset + RECORD_FIXED_HEADER > len(view):
        raise WireFormatError(
            f"truncated record header at offset {offset} (buffer {len(view)} bytes)"
        )
    checksum, flags, key_count, value_len = _FIXED.unpack_from(view, offset)
    pos = offset + RECORD_FIXED_HEADER
    # Bounds-check the optional fields before unpacking: recovery scans
    # corrupt/truncated buffers and must get a structured error, not a
    # struct.error.
    optional = 8 * bool(flags & _FLAG_VERSION) + 8 * bool(flags & _FLAG_TIMESTAMP)
    if pos + optional + 2 * key_count > len(view):
        raise WireFormatError(
            f"truncated record header fields at offset {offset}"
        )
    version = timestamp = None
    if flags & _FLAG_VERSION:
        (version,) = _U64.unpack_from(view, pos)
        pos += 8
    if flags & _FLAG_TIMESTAMP:
        (timestamp,) = _U64.unpack_from(view, pos)
        pos += 8
    key_lens = []
    for _ in range(key_count):
        (klen,) = _U16.unpack_from(view, pos)
        key_lens.append(klen)
        pos += 2
    keys = []
    for klen in key_lens:
        keys.append(bytes(view[pos : pos + klen]))
        pos += klen
    end = pos + value_len
    if end > len(view):
        raise WireFormatError(f"truncated record body at offset {offset}")
    value = bytes(view[pos:end])
    if verify:
        actual = crc32c(view[offset + 4 : end])
        if actual != checksum:
            raise ChecksumError(checksum, actual, f"record at offset {offset}")
    return (
        Record(value=value, keys=tuple(keys), version=version, timestamp=timestamp),
        end,
    )


def iter_records(
    buf: bytes | bytearray | memoryview, *, verify: bool = True
) -> Iterator[Record]:
    """Iterate back-to-back record entries until the buffer is exhausted."""
    view = memoryview(buf)
    offset = 0
    while offset < len(view):
        record, offset = decode_record(view, offset, verify=verify)
        yield record


#: Batch size from which :func:`encode_records` and :func:`decode_records`
#: try the vectorized uniform-record path; smaller batches loop. With the
#: word-table lane engine the numpy dispatch overhead amortizes from about
#: nine ~100-byte records (measured crossover).
_VECTOR_MIN_RECORDS = 8

_U32LE = np.dtype("<u4")


def uniform_keyless_frames(buf: bytes | bytearray | memoryview) -> np.ndarray | None:
    """``buf`` as an ``(n, size)`` byte matrix, one uniform record per row.

    Not ``None`` only when the buffer is exactly ``n >=``
    :data:`_VECTOR_MIN_RECORDS` back-to-back entries that all share the
    first entry's post-checksum header (``flags == key_count == 0`` and
    one non-zero ``value_len``) — the shape :func:`_encode_uniform_keyless` emits.
    Then every entry's structure is known without walking the buffer, and
    the scalar decoder would find exactly these ``n`` records. Anything
    else (keys, attributes, mixed sizes, a ragged tail) is ``None``:
    eligibility is a property of the bytes.
    """
    view = memoryview(buf)
    total = len(view)
    if total < _VECTOR_MIN_RECORDS * RECORD_FIXED_HEADER:
        return None
    _, flags, key_count, value_len = _FIXED.unpack_from(view, 0)
    if flags or key_count or not value_len:
        return None
    n, ragged = divmod(total, RECORD_FIXED_HEADER + value_len)
    if ragged or n < _VECTOR_MIN_RECORDS:
        return None
    frames = np.frombuffer(view, dtype=np.uint8).reshape(n, -1)
    headers = frames[:, 4:RECORD_FIXED_HEADER]
    if not (headers == headers[0]).all():
        return None
    return frames


#: Most records one checksum pass takes (above the positional tables'
#: row crossover that is a lane pass). It bounds the pass's widened
#: ``intp`` matrix (8 bytes per 2 of payload: 3 MB here for 100-byte
#: records, where an unbounded 64 MB response would ask for 256 MB) and
#: keeps its per-step vectors cache-sized — measured 226 ns/record at 5 k
#: lanes, 400 at 64 k.
_LANE_SLAB = 8192


def uniform_frame_checksums(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(stored, actual)`` header checksums of uniform record ``frames``.

    ``frames`` is any C-contiguous uint8 array whose last axis is one
    record (:func:`uniform_keyless_frames`, or several such matrices
    stacked); both results have its leading shape. One
    :func:`~repro.common.checksum.crc32c_rows` pass (per
    :data:`_LANE_SLAB` records) reads every covered region — the
    decode-side mirror of :func:`_encode_uniform_keyless`.
    """
    rows = frames.reshape(-1, frames.shape[-1])
    stored = rows[:, :4].copy().view(_U32LE).reshape(frames.shape[:-1])
    actual = np.concatenate(
        [crc32c_rows(rows[i : i + _LANE_SLAB], 4) for i in range(0, len(rows), _LANE_SLAB)]
    )
    return stored, actual.reshape(stored.shape)


def uniform_frame_crcs(stored: np.ndarray, actual: np.ndarray, size: int) -> np.ndarray:
    """CRC of each whole ``size``-byte record (checksum field included).

    Composed from :func:`uniform_frame_checksums`' results the way the
    encoder does it: the four stored-checksum bytes folded into the
    covered CRC (GF(2) linearity) — so a payload CRC can be stitched from
    its records without reading them again
    (:func:`~repro.common.checksum.crc32c_concat_rows`).
    """
    return crc32c_rows_prepend_u32(stored, actual, size)


def _uniform_records(frames: np.ndarray) -> list[Record]:
    value_len = frames.shape[1] - RECORD_FIXED_HEADER
    values = frames[:, RECORD_FIXED_HEADER:].tobytes()
    return [
        Record(values[start : start + value_len])
        for start in range(0, len(values), value_len)
    ]


def decode_records(
    buf: bytes | bytearray | memoryview, *, verify: bool = True
) -> list[Record]:
    """Decode every record in ``buf``; see :func:`iter_records`.

    A buffer of uniform keyless records — what the batch encoders emit
    for the paper's benchmark workload — is checked in one
    :func:`~repro.common.checksum.crc32c_rows` pass and its values
    sliced out of one ``bytes``; the result, and the
    :class:`ChecksumError` for the first corrupt record, are those of the
    per-record loop (property-tested), which decodes every other shape.
    """
    frames = uniform_keyless_frames(buf)
    if frames is None:
        return list(iter_records(buf, verify=verify))
    if verify:
        stored, actual = uniform_frame_checksums(frames)
        bad = np.flatnonzero(stored != actual)
        if len(bad):
            i = int(bad[0])
            raise ChecksumError(
                int(stored[i]), int(actual[i]), f"record at offset {i * frames.shape[1]}"
            )
    return _uniform_records(frames)


def _encode_uniform_keyless(
    values_blob: bytes, n: int, value_len: int, *, with_crcs: bool = False
) -> bytes | tuple[bytes, np.ndarray]:
    """Vectorized encoder for equal-length keyless, attribute-less records.

    Every record shares the 6-byte post-checksum header (flags=0,
    key_count=0, value_len), so the frames are assembled as one uint8
    matrix and one :func:`~repro.common.checksum.crc32c_rows` call over
    its covered columns checksums the whole batch. ``values_blob`` is
    the ``n`` values concatenated back to back. Byte-identical to the
    per-record encoder (golden-tested).

    With ``with_crcs`` the return is ``(blob, full_crcs)`` where
    ``full_crcs[i]`` is the CRC over record ``i``'s *entire* encoded
    bytes (checksum field included) — composed from the covered CRCs
    just computed, so chunk sealing can checksum a whole payload via
    :func:`~repro.common.checksum.crc32c_concat` without re-reading it.
    """
    size = RECORD_FIXED_HEADER + value_len
    out = np.empty((n, size), dtype=np.uint8)
    out[:, 4:RECORD_FIXED_HEADER] = np.frombuffer(
        struct.pack("<BBI", 0, 0, value_len), dtype=np.uint8
    )
    out[:, RECORD_FIXED_HEADER:] = np.frombuffer(values_blob, dtype=np.uint8).reshape(
        n, value_len
    )
    crcs = crc32c_rows(out, 4)
    out[:, :4] = crcs.astype(_U32LE).view(np.uint8).reshape(n, 4)
    if not with_crcs:
        return out.tobytes()
    return out.tobytes(), uniform_frame_crcs(crcs, crcs, size)


def encode_records(records: list[Record] | tuple[Record, ...]) -> bytes:
    """Serialize records back to back (a chunk payload).

    Batches of uniform keyless records — the paper's benchmark workload —
    are encoded through the lane-parallel CRC engine in one pass; anything
    else falls back to the per-record encoder.
    """
    if len(records) >= _VECTOR_MIN_RECORDS:
        first_len = len(records[0].value)
        if all(
            not r.keys
            and r.version is None
            and r.timestamp is None
            and len(r.value) == first_len
            for r in records
        ):
            return _encode_uniform_keyless(
                b"".join(r.value for r in records), len(records), first_len
            )
    return b"".join(encode_record(r) for r in records)


def encode_keyless_value(value: bytes) -> bytes:
    """Serialize one keyless, attribute-less record value."""
    covered = struct.pack("<BBI", 0, 0, len(value)) + value
    return _FIXED.pack(crc32c(covered), 0, 0, len(value)) + value


def encode_keyless_values(values: "list[bytes] | tuple[bytes, ...]") -> bytes:
    """Serialize keyless record values back to back (a chunk payload).

    The no-:class:`Record` twin of :func:`encode_records` for the
    paper's benchmark workload: producers stage raw value bytes and
    batch-encode at chunk-seal time, skipping one :class:`Record` per record.
    Uniform-length batches take the vectorized path
    (:func:`~repro.common.checksum.crc32c_rows`).
    """
    if len(values) >= _VECTOR_MIN_RECORDS:
        value_len = min(map(len, values))
        if value_len == max(map(len, values)):
            return _encode_uniform_keyless(
                b"".join(values), len(values), value_len
            )
    return b"".join(encode_keyless_value(v) for v in values)


def encode_keyless_values_with_crcs(
    values: "list[bytes] | tuple[bytes, ...]",
) -> tuple[bytes, "np.ndarray | None"]:
    """:func:`encode_keyless_values` plus per-record full-frame CRCs.

    Returns ``(payload, crcs)`` where ``crcs[i]`` checksums record
    ``i``'s entire encoded bytes — the inputs chunk sealing needs to
    compose a payload CRC via
    :func:`~repro.common.checksum.crc32c_concat`. ``crcs`` is ``None``
    when the batch fell back to the per-record encoder (short or
    non-uniform batches), in which case the caller re-reads bytes as
    usual.
    """
    if len(values) >= _VECTOR_MIN_RECORDS:
        value_len = min(map(len, values))
        if value_len == max(map(len, values)):
            return _encode_uniform_keyless(
                b"".join(values), len(values), value_len, with_crcs=True
            )
    return b"".join(encode_keyless_value(v) for v in values), None


def make_uniform_payload(count: int, record_size: int, *, fill: int = 0x5A) -> bytes:
    """Build ``count`` identical keyless records of ``record_size`` bytes, fast.

    This is the vectorized path for the benchmark workload (100-byte
    non-keyed records): one record is encoded, then tiled with numpy. All
    records share a value, hence a checksum, so the result is byte-exact
    with the per-record encoder (property-tested).
    """
    if record_size < RECORD_FIXED_HEADER:
        raise WireFormatError(
            f"record_size must be >= {RECORD_FIXED_HEADER} (fixed header)"
        )
    value = bytes([fill]) * (record_size - RECORD_FIXED_HEADER)
    one = np.frombuffer(encode_record(Record(value=value)), dtype=np.uint8)
    return np.tile(one, count).tobytes()
