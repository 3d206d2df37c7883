"""Golden-bytes wire compatibility tests.

The encode-once data path (pooled builders, cached frames, in-place
placement stamps, vectorized record batches) must not change the wire
format by a single byte. These tests pin the exact encodings against
hex literals captured from the reference encoders, and prove every
fast-path encoder byte-identical to its straightforward counterpart.
"""

import pytest
from hypothesis import given, strategies as st

from repro.storage.segment import Segment
from repro.wire.chunk import (
    Chunk,
    ChunkBuilder,
    CHUNK_HEADER_SIZE,
    CHUNK_PLACEMENT_OFFSET,
    encode_chunk,
    decode_chunk,
    placement_bytes,
)
from repro.wire.pool import BufferPool
from repro.wire.record import Record, encode_record, encode_records, decode_records

# -- record golden bytes ----------------------------------------------------

RECORD_GOLDEN = [
    (Record(value=b"hello"), "fa6f235f00000500000068656c6c6f"),
    (Record(value=b""), "8a7c2a57000000000000"),
    (Record(value=b"v", version=7), "8b6c0b94010001000000070000000000000076"),
    (
        Record(value=b"ts", timestamp=1_700_000_000_000),
        "032ba5fc0200020000000068e5cf8b0100007473",
    ),
    (
        Record(value=b"payload", keys=(b"k1", b"key-two"), version=3, timestamp=42),
        "aab4a3ee03020700000003000000000000002a00000000000000"
        "020007006b316b65792d74776f7061796c6f6164",
    ),
]


@pytest.mark.parametrize("record,expected_hex", RECORD_GOLDEN)
def test_record_golden_bytes(record, expected_hex):
    encoded = encode_record(record)
    assert encoded.hex() == expected_hex
    assert decode_records(encoded) == [record]


def test_golden_record_decodes_through_the_vectorized_path(monkeypatch):
    # Nine copies of the committed keyless record are a uniform batch:
    # the lane-parallel decoder must read the very bytes pinned above.
    from repro.wire import record as record_module

    passes = []
    real = record_module.crc32c_lanes

    def counting(m):
        passes.append(m.shape)
        return real(m)

    monkeypatch.setattr(record_module, "crc32c_lanes", counting)
    golden, golden_hex = RECORD_GOLDEN[0]
    assert decode_records(bytes.fromhex(golden_hex * 9)) == [golden] * 9
    assert passes == [(11, 9)]  # 6 header + 5 value bytes covered, 9 lanes


# -- chunk golden bytes -----------------------------------------------------


def golden_chunk():
    payload = encode_records(
        [Record(value=b"abc"), Record(value=b"defg", keys=(b"k",))]
    )
    return Chunk(
        stream_id=1,
        streamlet_id=2,
        producer_id=3,
        chunk_seq=4,
        record_count=2,
        payload_len=len(payload),
        payload=payload,
    )


CHUNK_UNASSIGNED_HEX = (
    "7ace010101000000020000000300000004000000ffffffffffffffff"
    "020000001e00000033f88b733681cf55000003000000616263"
    "edbfdb5400010400000001006b64656667"
)
CHUNK_PLACED_HEX = (
    "7ace01010100000002000000030000000400000005000000110000"
    "00020000001e00000033f88b733681cf55000003000000616263"
    "edbfdb5400010400000001006b64656667"
)
CHUNK_META_HEX = (
    "7ace010009000000080000000700000006000000ffffffffffffffff"
    "0200000010000000000000000000000000000000000000000000"
    "0000"
)


def test_chunk_golden_bytes():
    chunk = golden_chunk()
    assert encode_chunk(chunk).hex() == CHUNK_UNASSIGNED_HEX
    placed = chunk.assigned(group_id=5, segment_id=17)
    assert encode_chunk(placed).hex() == CHUNK_PLACED_HEX


def test_meta_chunk_golden_bytes():
    meta = Chunk.meta(
        stream_id=9,
        streamlet_id=8,
        producer_id=7,
        chunk_seq=6,
        record_count=2,
        payload_len=16,
    )
    assert encode_chunk(meta).hex() == CHUNK_META_HEX


def test_placement_stamp_equals_reencode():
    """Patching the 8 placement bytes in an encoded frame must produce the
    exact bytes of re-encoding the assigned clone from scratch."""
    chunk = golden_chunk()
    frame = bytearray(encode_chunk(chunk))
    frame[CHUNK_PLACEMENT_OFFSET : CHUNK_PLACEMENT_OFFSET + 8] = placement_bytes(
        5, 17
    )
    assert bytes(frame).hex() == CHUNK_PLACED_HEX
    decoded, _ = decode_chunk(bytes(frame))
    assert (decoded.group_id, decoded.segment_id) == (5, 17)
    assert decoded.records() == chunk.records()


# -- zero-copy encoders are byte-identical ----------------------------------


def test_vectorized_uniform_batch_matches_per_record():
    records = [Record(value=bytes([i]) * 90) for i in range(16)]
    assert encode_records(records) == b"".join(encode_record(r) for r in records)


def test_mixed_batch_matches_per_record():
    records = [
        Record(value=b"a" * 10),
        Record(value=b"b" * 10, keys=(b"k",)),
        Record(value=b"c" * 10, version=1),
        Record(value=b"d" * 12),
    ] * 3
    assert encode_records(records) == b"".join(encode_record(r) for r in records)


@given(
    st.integers(min_value=8, max_value=40),
    st.integers(min_value=0, max_value=64),
    st.integers(min_value=0, max_value=255),
)
def test_vectorized_batch_property(count, value_len, seed):
    values = [
        bytes((seed + i + j) % 256 for j in range(value_len)) for i in range(count)
    ]
    records = [Record(value=v) for v in values]
    assert encode_records(records) == b"".join(encode_record(r) for r in records)


def test_builder_frame_matches_reference_encoding():
    records = [Record(value=b"r" * 30), Record(value=b"s" * 7, keys=(b"key",))]
    builder = ChunkBuilder(1024, stream_id=1, streamlet_id=2, producer_id=3)
    for record in records:
        assert builder.try_append(record)
    chunk = builder.build(chunk_seq=9)
    payload = b"".join(encode_record(r) for r in records)
    reference = Chunk(
        stream_id=1,
        streamlet_id=2,
        producer_id=3,
        chunk_seq=9,
        record_count=2,
        payload_len=len(payload),
        payload=payload,
    )
    assert chunk.wire == encode_chunk(reference)
    assert bytes(chunk.payload) == payload


def test_pooled_builder_matches_unpooled():
    pool = BufferPool(CHUNK_HEADER_SIZE + 256)
    pooled = ChunkBuilder(
        256, stream_id=1, streamlet_id=2, producer_id=3, pool=pool
    )
    plain = ChunkBuilder(256, stream_id=1, streamlet_id=2, producer_id=3)
    for record in [Record(value=b"x" * 40), Record(value=b"y" * 12)]:
        assert pooled.try_append(record)
        assert plain.try_append(record)
    assert pooled.build(chunk_seq=5).wire == plain.build(chunk_seq=5).wire
    pooled.close()
    assert pool.free == 1


def test_builder_reuse_is_byte_stable():
    """Building, resetting, and building again from one scratch buffer must
    not leak bytes of the previous chunk into the next frame."""
    builder = ChunkBuilder(256, stream_id=1, streamlet_id=2, producer_id=3)
    assert builder.try_append(Record(value=b"\xff" * 100))
    first = builder.build(chunk_seq=0)
    assert builder.try_append(Record(value=b"\x00" * 8))
    second = builder.build(chunk_seq=1)
    assert bytes(first.payload) == encode_record(Record(value=b"\xff" * 100))
    assert bytes(second.payload) == encode_record(Record(value=b"\x00" * 8))
    decoded, _ = decode_chunk(second.wire)
    assert decoded.records() == [Record(value=b"\x00" * 8)]


# -- segment bytes carry the stamped placement ------------------------------


def test_segment_append_stamps_encoded_bytes():
    """A materialized segment's bytes must equal the full re-encoding of
    each assigned chunk: the in-place header patch is invisible on the
    wire."""
    seg = Segment(
        stream_id=1,
        streamlet_id=2,
        group_id=7,
        segment_id=3,
        capacity=4096,
        materialize=True,
    )
    chunks = [golden_chunk().assigned(group_id=c, segment_id=c) for c in (0, 1)]
    expected = b""
    for chunk in chunks:
        seg.append(chunk, base_record_offset=0)
        expected += encode_chunk(chunk.assigned(group_id=7, segment_id=3))
    assert bytes(seg.buffer.view(0, seg.buffer.head)) == expected
    for stored in seg.entries:
        decoded = stored.to_chunk(verify=True)
        assert (decoded.group_id, decoded.segment_id) == (7, 3)
