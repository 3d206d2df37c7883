"""``decode_records`` must be indistinguishable from the per-record loop.

The vectorized uniform-keyless path is chosen from the bytes alone, so
the property is stated over bytes: whatever ``list(iter_records(buf))``
does — the records it returns or the error it raises, field for field —
``decode_records(buf)`` does too, with and without verification.
"""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ChecksumError, WireFormatError
from repro.wire.record import (
    Record,
    RECORD_FIXED_HEADER,
    decode_records,
    encode_keyless_values,
    encode_record,
    encode_records,
    iter_records,
    uniform_keyless_frames,
)


def loop_decode(buf, *, verify):
    return list(iter_records(buf, verify=verify))


def outcome(decode, buf, verify):
    try:
        return decode(buf, verify=verify)
    except ChecksumError as exc:
        return (ChecksumError, exc.expected, exc.actual, exc.context)
    except WireFormatError as exc:
        return (WireFormatError, str(exc))


def assert_equivalent(buf):
    """Compare both decoders, unverified and verified; the verified outcome."""
    for verify in (False, True):
        reference = outcome(loop_decode, buf, verify)
        assert outcome(decode_records, buf, verify) == reference
    return reference


def uniform_values(count, value_len, seed):
    return [bytes((seed + 7 * i + j) % 256 for j in range(value_len)) for i in range(count)]


uniform_batches = st.builds(
    uniform_values, st.integers(8, 200), st.integers(1, 121), st.integers(0, 255)
)

any_records = st.builds(
    Record,
    value=st.binary(max_size=60),
    keys=st.lists(st.binary(max_size=12), max_size=3).map(tuple),
    version=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
    timestamp=st.one_of(st.none(), st.integers(0, 2**64 - 1)),
)


@given(uniform_batches)
def test_uniform_batch_takes_the_fast_path_and_matches(values):
    buf = encode_keyless_values(values)
    assert uniform_keyless_frames(buf) is not None
    records = assert_equivalent(buf)
    assert [r.value for r in records] == values
    for record in records:
        assert type(record.value) is bytes
        assert record.keys == () and record.version is None and record.timestamp is None


@given(uniform_batches, st.integers(0, 3))
def test_views_at_any_alignment_match(values, shift):
    # A payload is usually a window into a larger frame: the matrix view
    # must not depend on where the window starts or on the buffer type.
    framed = bytearray(shift) + encode_keyless_values(values)
    assert_equivalent(memoryview(framed)[shift:])
    assert_equivalent(bytearray(framed[shift:]))


@given(st.integers(1, 7), st.integers(0, 64), st.integers(0, 255))
def test_batches_below_the_threshold_match(count, value_len, seed):
    buf = encode_keyless_values(uniform_values(count, value_len, seed))
    assert uniform_keyless_frames(buf) is None
    assert_equivalent(buf)


@given(st.integers(8, 64))
def test_empty_values_stay_on_the_loop(count):
    buf = encode_keyless_values([b""] * count)
    assert uniform_keyless_frames(buf) is None
    assert assert_equivalent(buf) == [Record(value=b"")] * count


@given(st.lists(any_records, max_size=12))
def test_mixed_keyed_and_versioned_records_match(records):
    assert_equivalent(encode_records(records))


@given(uniform_batches, any_records)
def test_uniform_prefix_then_one_odd_record_matches(values, last):
    buf = encode_keyless_values(values) + encode_record(last)
    assert_equivalent(buf)


@given(uniform_batches, st.data())
def test_same_size_record_with_another_header_matches(values, data):
    # Equal total length, but one entry is keyed: 6 + len(value) bytes of
    # a keyless record re-spent as key_len + key + value.
    value_len = len(values[0])
    if value_len < 3:
        return
    index = data.draw(st.integers(0, len(values) - 1))
    keyed = encode_record(Record(value=b"v" * (value_len - 3), keys=(b"k",)))
    encoded = [encode_record(Record(value=v)) for v in values]
    assert len(keyed) == len(encoded[index])
    encoded[index] = keyed
    buf = b"".join(encoded)
    assert uniform_keyless_frames(buf) is None
    assert_equivalent(buf)


@given(uniform_batches, st.data())
def test_truncated_tail_matches(values, data):
    buf = encode_keyless_values(values)
    cut = data.draw(st.integers(1, min(len(buf) - 1, 2 * (RECORD_FIXED_HEADER + len(values[0])))))
    assert_equivalent(buf[:-cut])


@pytest.mark.parametrize("region", ["checksum", "header", "value"])
@given(values=uniform_batches, data=st.data())
def test_single_flipped_bit_matches(region, values, data):
    buf = bytearray(encode_keyless_values(values))
    size = RECORD_FIXED_HEADER + len(values[0])
    low, high = {
        "checksum": (0, 4),
        "header": (4, RECORD_FIXED_HEADER),
        "value": (RECORD_FIXED_HEADER, size),
    }[region]
    index = data.draw(st.integers(0, len(values) - 1))
    byte = index * size + data.draw(st.integers(low, high - 1))
    buf[byte] ^= 1 << data.draw(st.integers(0, 7))
    reference = assert_equivalent(bytes(buf))
    if region != "header":
        # Structure intact, so the fast path itself reported the record.
        assert reference[0] is ChecksumError
        assert reference[3] == f"record at offset {index * size}"


def test_first_of_several_corrupt_records_is_the_one_reported():
    values = uniform_values(32, 90, 1)
    buf = bytearray(encode_keyless_values(values))
    for index in (20, 5, 11):
        buf[index * 100 + 50] ^= 0x10
    reference = assert_equivalent(bytes(buf))
    assert reference[3] == "record at offset 500"


def test_batches_wider_than_one_lane_pass_match():
    # The lane pass is slabbed (bounded working set); records past the
    # first slab must be checked and reported like any other.
    values = uniform_values(8192 + 77, 6, 3)
    buf = bytearray(encode_keyless_values(values))
    assert [r.value for r in assert_equivalent(bytes(buf))] == values
    buf[8200 * 16 + 12] ^= 0x02
    assert assert_equivalent(bytes(buf))[3] == f"record at offset {8200 * 16}"
