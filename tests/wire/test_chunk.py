"""Chunk codec and builder tests."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ChecksumError, WireFormatError
from repro.wire.chunk import (
    Chunk,
    ChunkBuilder,
    CHUNK_HEADER_SIZE,
    GROUP_UNASSIGNED,
    SEGMENT_UNASSIGNED,
    encode_chunk,
    decode_chunk,
    verify_chunks,
)
from repro.wire.framing import encode_chunks, decode_chunks
from repro.wire.record import Record, encode_records


def make_chunk(records=None, **overrides):
    records = records if records is not None else [Record(value=b"v" * 20)] * 3
    payload = encode_records(records)
    kwargs = dict(
        stream_id=1,
        streamlet_id=2,
        producer_id=3,
        chunk_seq=4,
        record_count=len(records),
        payload_len=len(payload),
        payload=payload,
    )
    kwargs.update(overrides)
    return Chunk(**kwargs)


def test_roundtrip_with_payload():
    chunk = make_chunk()
    buf = encode_chunk(chunk)
    assert len(buf) == chunk.size == CHUNK_HEADER_SIZE + chunk.payload_len
    decoded, end = decode_chunk(buf)
    assert end == len(buf)
    assert decoded == chunk
    assert decoded.records() == [Record(value=b"v" * 20)] * 3


def test_roundtrip_meta_only():
    chunk = Chunk.meta(
        stream_id=9,
        streamlet_id=8,
        producer_id=7,
        chunk_seq=6,
        record_count=10,
        payload_len=1000,
    )
    buf = encode_chunk(chunk)
    assert len(buf) == CHUNK_HEADER_SIZE + 1000
    decoded, _ = decode_chunk(buf)
    assert decoded.payload is None
    assert decoded.payload_len == 1000
    assert decoded.record_count == 10
    with pytest.raises(WireFormatError):
        decoded.records()


def test_meta_chunk_size_accounting():
    chunk = Chunk.meta(
        stream_id=0, streamlet_id=0, producer_id=0, chunk_seq=0,
        record_count=10, payload_len=1024,
    )
    assert chunk.size == CHUNK_HEADER_SIZE + 1024
    assert not chunk.has_payload


def test_payload_len_mismatch_rejected():
    with pytest.raises(WireFormatError):
        make_chunk(payload_len=5)


def test_payload_crc_autocomputed_and_verified():
    chunk = make_chunk()
    assert chunk.payload_crc != 0
    chunk.verify_payload()
    buf = bytearray(encode_chunk(chunk))
    buf[CHUNK_HEADER_SIZE + 1] ^= 0x55
    with pytest.raises(ChecksumError):
        decode_chunk(bytes(buf))


def test_bad_magic_rejected():
    buf = bytearray(encode_chunk(make_chunk()))
    buf[0] ^= 0xFF
    with pytest.raises(WireFormatError):
        decode_chunk(bytes(buf))


def test_truncated_payload_rejected():
    buf = encode_chunk(make_chunk())
    with pytest.raises(WireFormatError):
        decode_chunk(buf[:-1])


def test_assignment_attributes():
    chunk = make_chunk()
    assert chunk.group_id == GROUP_UNASSIGNED
    assert chunk.segment_id == SEGMENT_UNASSIGNED
    placed = chunk.assigned(group_id=5, segment_id=17)
    assert (placed.group_id, placed.segment_id) == (5, 17)
    # Placement survives the wire.
    decoded, _ = decode_chunk(encode_chunk(placed))
    assert (decoded.group_id, decoded.segment_id) == (5, 17)
    # Original untouched.
    assert chunk.group_id == GROUP_UNASSIGNED


def decoded_unverified(chunks):
    """``chunks`` as a boundary first sees them: structure only."""
    buf = b"".join(encode_chunk(c) for c in chunks)
    decoded, offsets, offset = [], [], 0
    for _ in chunks:
        offsets.append(offset)
        chunk, offset = decode_chunk(buf, offset, verify=False)
        decoded.append(chunk)
    return decoded, offsets


def test_verify_chunks_marks_nothing_unless_every_chunk_passes():
    uniform = [Record(value=bytes([i]) * 20) for i in range(10)]
    sent = [make_chunk(uniform), make_chunk(), make_chunk(uniform, chunk_seq=5)]
    decoded, offsets = decoded_unverified(sent)
    assert not any(c.verified or c.records_verified for c in decoded)
    corrupt = bytearray(decoded[2].payload)
    corrupt[-1] ^= 1
    decoded[2].payload = bytes(corrupt)
    with pytest.raises(ChecksumError, match=f"chunk at offset {offsets[2]}"):
        verify_chunks(decoded, offsets)
    assert not any(c.verified or c.records_verified for c in decoded)
    decoded[2].payload = sent[2].payload
    verify_chunks(decoded, offsets)
    assert [c.verified for c in decoded] == [True, True, True]
    assert [c.records_verified for c in decoded] == [True, False, True]
    assert [c.records() for c in decoded] == [c.records() for c in sent]


def test_verify_chunks_leaves_verified_and_meta_chunks_alone():
    meta = Chunk.meta(
        stream_id=1, streamlet_id=2, producer_id=3, chunk_seq=9, record_count=4, payload_len=64
    )
    built = make_chunk([Record(value=b"x" * 20)] * 10)  # verified by construction
    verify_chunks([meta, built], [0, 0])
    assert not meta.verified and not meta.records_verified
    assert built.verified and not built.records_verified


def test_dedup_key():
    chunk = make_chunk()
    assert chunk.dedup_key() == (2, 3, 4)


def test_framing_roundtrip():
    chunks = [make_chunk(chunk_seq=i) for i in range(4)]
    chunks.append(
        Chunk.meta(
            stream_id=1, streamlet_id=1, producer_id=1, chunk_seq=99,
            record_count=2, payload_len=64,
        )
    )
    buf = encode_chunks(chunks)
    assert decode_chunks(buf) == chunks


class TestChunkBuilder:
    def builder(self, capacity=128):
        return ChunkBuilder(capacity, stream_id=1, streamlet_id=2, producer_id=3)

    def test_fills_until_capacity(self):
        b = self.builder(capacity=100)
        record = Record(value=b"x" * 30)  # encodes to 40 bytes
        assert b.try_append(record)
        assert b.try_append(record)
        assert not b.try_append(record)  # 120 > 100
        assert b.record_count == 2
        assert b.payload_size == 80
        assert b.remaining() == 20

    def test_build_resets(self):
        b = self.builder()
        b.try_append(Record(value=b"hello"))
        chunk = b.build(chunk_seq=7)
        assert chunk.chunk_seq == 7
        assert chunk.record_count == 1
        assert chunk.records() == [Record(value=b"hello")]
        assert b.is_empty
        assert b.payload_size == 0

    def test_oversized_record_is_hard_error(self):
        b = self.builder(capacity=16)
        with pytest.raises(WireFormatError):
            b.try_append(Record(value=b"y" * 100))

    def test_append_encoded(self):
        from repro.wire.record import make_uniform_payload

        b = self.builder(capacity=1024)
        payload = make_uniform_payload(5, 100)
        assert b.try_append_encoded(payload, count=5)
        chunk = b.build(chunk_seq=0)
        assert chunk.record_count == 5
        assert chunk.payload_len == 500
        assert len(chunk.records()) == 5

    @given(st.lists(st.binary(max_size=40), min_size=1, max_size=30))
    def test_builder_roundtrip_property(self, values):
        b = ChunkBuilder(4096, stream_id=1, streamlet_id=1, producer_id=1)
        appended = []
        for v in values:
            record = Record(value=v)
            if b.try_append(record):
                appended.append(record)
        chunk = b.build(chunk_seq=0)
        decoded, _ = decode_chunk(encode_chunk(chunk))
        assert decoded.records() == appended


def test_builder_requires_positive_capacity():
    with pytest.raises(WireFormatError):
        ChunkBuilder(0, stream_id=1, streamlet_id=1, producer_id=1)
