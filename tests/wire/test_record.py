"""Record codec tests: round-trips, corruption detection, size accounting."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ChecksumError, WireFormatError
from repro.wire.record import (
    Record,
    RECORD_FIXED_HEADER,
    encode_record,
    decode_record,
    decode_records,
    encode_records,
    make_uniform_payload,
)

records_strategy = st.builds(
    Record,
    value=st.binary(max_size=300),
    keys=st.lists(st.binary(max_size=40), max_size=5).map(tuple),
    version=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
    timestamp=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
)


@given(records_strategy)
def test_roundtrip(record):
    encoded = encode_record(record)
    decoded, end = decode_record(encoded)
    assert decoded == record
    assert end == len(encoded)
    assert record.encoded_size() == len(encoded)


@given(st.lists(records_strategy, max_size=8))
def test_batch_roundtrip(records):
    buf = encode_records(records)
    assert decode_records(buf) == records


def test_plain_record_is_header_plus_value():
    record = Record(value=b"x" * 90)
    assert len(encode_record(record)) == RECORD_FIXED_HEADER + 90
    # The paper's 100-byte benchmark record.
    assert record.encoded_size() == 100


def test_key_accessor():
    assert Record(value=b"v").key is None
    assert Record(value=b"v", keys=(b"k1", b"k2")).key == b"k1"


def test_keyword_construction_and_defaults():
    record = Record(value=b"v")
    assert (record.value, record.keys, record.version, record.timestamp) == (
        b"v",
        (),
        None,
        None,
    )
    full = Record(value=b"v", keys=(b"k",), version=7, timestamp=9)
    assert (full.value, full.keys, full.version, full.timestamp) == (b"v", (b"k",), 7, 9)
    assert Record(b"v", (b"k",), 7, 9) == full


def test_equality_and_hash_are_by_fields():
    a = Record(value=b"v", keys=(b"k",), version=1, timestamp=2)
    b = Record(value=bytes(b"v"), keys=(b"k",), version=1, timestamp=2)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    for other in (
        Record(value=b"w", keys=(b"k",), version=1, timestamp=2),
        Record(value=b"v", keys=(), version=1, timestamp=2),
        Record(value=b"v", keys=(b"k",), version=None, timestamp=2),
        Record(value=b"v", keys=(b"k",), version=1, timestamp=3),
    ):
        assert a != other


def test_encoded_size_counts_every_optional_field():
    assert Record(value=b"").encoded_size() == RECORD_FIXED_HEADER
    record = Record(value=b"abc", keys=(b"k1", b"key2"), version=1, timestamp=2)
    assert record.encoded_size() == RECORD_FIXED_HEADER + 3 + 8 + 8 + 2 * 2 + 6
    assert record.encoded_size() == len(encode_record(record))


@pytest.mark.parametrize("field", ["value", "keys", "version", "timestamp"])
def test_record_is_immutable(field):
    record = Record(value=b"v")
    with pytest.raises(AttributeError):
        setattr(record, field, b"other")
    assert record == Record(value=b"v")


@given(records_strategy.filter(lambda r: r.encoded_size() > 4))
def test_corruption_detected(record):
    # Flipping any post-checksum byte must be detected — either as a
    # checksum mismatch or, when a length field was hit, as a framing error.
    encoded = bytearray(encode_record(record))
    encoded[len(encoded) - 1] ^= 0xFF
    with pytest.raises(WireFormatError):
        decode_record(bytes(encoded))


def test_body_corruption_is_checksum_error():
    encoded = bytearray(encode_record(Record(value=b"abcdef")))
    encoded[-1] ^= 0xFF
    with pytest.raises(ChecksumError):
        decode_record(bytes(encoded))


def test_corruption_skippable_without_verify():
    encoded = bytearray(encode_record(Record(value=b"payload")))
    encoded[-1] ^= 0xFF
    decoded, _ = decode_record(bytes(encoded), verify=False)
    assert decoded.value != b"payload"


def test_truncated_header_rejected():
    with pytest.raises(WireFormatError):
        decode_record(b"\x00\x01\x02")


def test_truncated_body_rejected():
    encoded = encode_record(Record(value=b"0123456789"))
    with pytest.raises(WireFormatError):
        decode_record(encoded[:-3])


def test_too_many_keys_rejected():
    record = Record(value=b"", keys=tuple(bytes([i % 256]) for i in range(256)))
    with pytest.raises(WireFormatError):
        encode_record(record)


@given(st.integers(1, 50), st.integers(RECORD_FIXED_HEADER, 200))
def test_uniform_payload_matches_per_record_encoding(count, record_size):
    fast = make_uniform_payload(count, record_size)
    value = bytes([0x5A]) * (record_size - RECORD_FIXED_HEADER)
    slow = encode_records([Record(value=value)] * count)
    assert fast == slow
    assert len(fast) == count * record_size


def test_uniform_payload_rejects_tiny_records():
    with pytest.raises(WireFormatError):
        make_uniform_payload(1, RECORD_FIXED_HEADER - 1)
