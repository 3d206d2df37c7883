"""The client's address-space boundary: ``protocol.decode_fetch_ok``.

A fetch response is validated once, as a whole, before anything is
returned. These tests pin that the single pass checks everything the
per-chunk ``decode_chunk(verify=True)`` + per-record ``records()`` pair
checked — against that pair, kept here as the reference — and that a
short or garbage response of any kind raises a typed error.
"""

import struct

import pytest

from repro.common import checksum
from repro.common.errors import ChecksumError, WireFormatError
from repro.gateway import protocol
from repro.gateway.protocol import GatewayError
from repro.kera.messages import ChunkAssignment, FetchPosition
from repro.wire import record as record_module
from repro.wire.chunk import CHUNK_HEADER_SIZE, Chunk, decode_chunk, encode_chunk
from repro.wire.record import Record, encode_records

POSITIONS_SIZE = 2 * 48  # position + next_position


def uniform_records(count, seed, value_len=90):
    return [
        Record(value=bytes((seed + 3 * i + j) % 256 for j in range(value_len)))
        for i in range(count)
    ]


def keyed_records(count, seed):
    return [
        Record(value=bytes([seed, i]) * (3 + i), keys=(b"k%d" % i,), version=i)
        for i in range(count)
    ]


def chunk_of(records, seq, streamlet=0):
    payload = encode_records(records)
    return Chunk(
        stream_id=1,
        streamlet_id=streamlet,
        producer_id=7,
        chunk_seq=seq,
        record_count=len(records),
        payload_len=len(payload),
        payload=payload,
        group_id=streamlet,
        segment_id=0,
    )


def response(entries, request_id=9):
    """Encode ``[[chunk, ...], ...]`` as one GW_FETCH_OK payload."""
    packed = []
    for streamlet, chunks in enumerate(entries):
        position = FetchPosition(stream_id=1, streamlet_id=streamlet, entry=0)
        following = FetchPosition(
            stream_id=1, streamlet_id=streamlet, entry=0, chunk_pos=len(chunks)
        )
        packed.append((position, following, [encode_chunk(c) for c in chunks]))
    return b"".join(bytes(p) for p in protocol.encode_fetch_ok(request_id, packed))


def frame_offsets(payload):
    """Offset of every chunk frame in a GW_FETCH_OK payload."""
    _, nentries = struct.unpack_from("<QI", payload, 0)
    offset = 12
    found = []
    for _ in range(nentries):
        offset += POSITIONS_SIZE
        (nchunks,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        for _ in range(nchunks):
            (length,) = struct.unpack_from("<I", payload, offset)
            found.append(offset + 4)
            offset += 4 + length
    return found


def reference_decode(payload):
    """The boundary as it was: one verified ``decode_chunk`` per frame."""
    return [decode_chunk(payload, offset, verify=True)[0] for offset in frame_offsets(payload)]


def checksum_failure(decode, payload):
    with pytest.raises(ChecksumError) as caught:
        decode(payload)
    return caught.value.expected, caught.value.actual, caught.value.context


MIXED = [
    [chunk_of(uniform_records(40, 1), 0, 0), chunk_of(uniform_records(40, 2), 1, 0)],
    [chunk_of(keyed_records(9, 3), 0, 1)],
    [chunk_of(uniform_records(25, 4, value_len=33), 0, 2)],  # odd covered length
    [],
    [chunk_of(uniform_records(3, 5), 0, 4), chunk_of(uniform_records(40, 6), 1, 4)],
]


def test_response_decodes_to_what_per_chunk_verification_returned():
    payload = response(MIXED)
    request_id, entries = protocol.decode_fetch_ok(payload)
    assert request_id == 9
    assert [len(chunks) for _, _, chunks in entries] == [2, 1, 1, 0, 2]
    assert [following.chunk_pos for _, following, _ in entries] == [2, 1, 1, 0, 2]
    decoded = [c for _, _, chunks in entries for c in chunks]
    sent = [c for chunks in MIXED for c in chunks]
    for chunk, ref, original in zip(decoded, reference_decode(payload), sent, strict=True):
        assert chunk == ref == original  # every header field + payload
        assert bytes(chunk.payload) == bytes(original.payload)
        assert chunk.verified and ref.verified
        assert chunk.records() == ref.records() == original.records()


def test_uniform_and_keyed_chunks_are_both_validated():
    _, entries = protocol.decode_fetch_ok(response(MIXED))
    chunks = [c for _, _, cs in entries for c in cs]
    assert all(c.verified for c in chunks)
    # The lane pass covers records only where it ran: 40- and 25-record
    # uniform chunks; keyed and 3-record chunks verify in records().
    assert [c.records_verified for c in chunks] == [True, True, False, True, False, True]


@pytest.mark.parametrize("which", [0, 1, 3, 5], ids=["first", "second", "odd-size", "last"])
@pytest.mark.parametrize("field", ["record-value", "record-checksum"])
def test_flipped_record_bit_is_rejected_as_before(which, field):
    payload = bytearray(response(MIXED))
    frames = frame_offsets(payload)
    sent = [c for chunks in MIXED for c in chunks][which]
    size = sent.payload_len // sent.record_count
    within = 2 * size + (1 if field == "record-checksum" else 10 + 7)  # third record
    payload[frames[which] + CHUNK_HEADER_SIZE + within] ^= 0x04
    failure = checksum_failure(protocol.decode_fetch_ok, bytes(payload))
    assert failure == checksum_failure(reference_decode, bytes(payload))
    assert failure[2] == f"chunk at offset {frames[which]}"


def test_flipped_keyed_chunk_bit_is_rejected_as_before():
    payload = bytearray(response(MIXED))
    frames = frame_offsets(payload)
    payload[frames[2] + CHUNK_HEADER_SIZE + 30] ^= 0x80
    failure = checksum_failure(protocol.decode_fetch_ok, bytes(payload))
    assert failure == checksum_failure(reference_decode, bytes(payload))


@pytest.mark.parametrize("which", [1, 2, 4], ids=["uniform", "keyed", "sub-threshold"])
def test_flipped_header_payload_crc_is_rejected_as_before(which):
    payload = bytearray(response(MIXED))
    frames = frame_offsets(payload)
    payload[frames[which] + CHUNK_HEADER_SIZE - 2] ^= 0x01  # inside payload_crc
    failure = checksum_failure(protocol.decode_fetch_ok, bytes(payload))
    assert failure == checksum_failure(reference_decode, bytes(payload))


def test_first_corrupt_chunk_in_response_order_is_reported():
    payload = bytearray(response(MIXED))
    frames = frame_offsets(payload)
    for which in (5, 2, 3):
        payload[frames[which] + CHUNK_HEADER_SIZE + 20] ^= 0x01
    failure = checksum_failure(protocol.decode_fetch_ok, bytes(payload))
    assert failure == checksum_failure(reference_decode, bytes(payload))
    assert failure[2] == f"chunk at offset {frames[2]}"


def sealed_over_a_corrupt_record(records, byte):
    """A chunk whose payload CRC was computed over an already-bad record."""
    payload = bytearray(encode_records(records))
    payload[byte] ^= 0x40
    return Chunk(
        stream_id=1, streamlet_id=0, producer_id=7, chunk_seq=0,
        record_count=len(records), payload_len=len(payload), payload=bytes(payload),
    )


def test_bad_record_under_a_good_payload_crc_is_caught_at_the_boundary():
    # The per-chunk boundary passed this chunk on and records() rejected
    # it; the single pass sees the record checksum too, so the same error
    # comes earlier and nothing is delivered.
    bad = sealed_over_a_corrupt_record(uniform_records(40, 8), 13 * 100 + 1)
    payload = response([[chunk_of(uniform_records(40, 7), 0)], [bad]])
    passed_on = reference_decode(payload)[1]
    late = checksum_failure(lambda chunk: chunk.records(), passed_on)
    assert late[2] == "record at offset 1300"
    assert checksum_failure(protocol.decode_fetch_ok, payload) == late


def test_locally_built_chunk_still_verifies_every_record():
    # Never through a validating boundary: records_verified is not earned
    # by construction, so records() reads and checks every record.
    for records in (uniform_records(40, 8), keyed_records(9, 8)):
        bad = sealed_over_a_corrupt_record(records, 1)
        assert bad.verified and not bad.records_verified
        with pytest.raises(ChecksumError, match="record at offset 0"):
            bad.records()
        assert len(bad.records(verify=False)) == len(records)


def test_boundary_validated_chunk_survives_assignment():
    _, entries = protocol.decode_fetch_ok(response(MIXED))
    chunk = entries[0][2][0]
    placed = chunk.assigned(5, 17)
    assert placed.records_verified and placed.verified
    assert placed.records() == chunk.records() == MIXED[0][0].records()


@pytest.fixture
def lane_passes(monkeypatch):
    """Count every lane-engine call, whichever module made it."""
    calls = []
    for name in ("crc32c_lanes16", "crc32c_lanes"):
        real = getattr(checksum, name)

        def counting(m, _real=real, _name=name):
            calls.append((_name, m.shape))
            return _real(m)

        monkeypatch.setattr(checksum, name, counting)
        monkeypatch.setattr(record_module, name, counting)
    return calls


def test_empty_and_sub_threshold_responses_make_no_lane_pass(lane_passes):
    # A tailing consumer's empty polls, and its one-small-chunk polls, must
    # not pay the vectorized path's fixed cost.
    assert protocol.decode_fetch_ok(response([])) == (9, [])
    _, entries = protocol.decode_fetch_ok(response([[], []]))
    assert [chunks for _, _, chunks in entries] == [[], []]
    small = chunk_of(uniform_records(3, 1), 0)
    _, entries = protocol.decode_fetch_ok(response([[small]]))
    assert entries[0][2][0].records() == small.records()
    assert lane_passes == []


def test_whole_response_is_one_lane_pass_per_record_shape(lane_passes):
    _, entries = protocol.decode_fetch_ok(response(MIXED))
    # 120 records of 100 bytes in one pass of 48 words, 25 of 43 bytes in
    # one of 39 bytes — not one pass per chunk.
    assert sorted(lane_passes) == [("crc32c_lanes", (39, 25)), ("crc32c_lanes16", (48, 120))]
    del lane_passes[:]
    for _, _, chunks in entries:
        for chunk in chunks:
            if chunk.records_verified:
                chunk.records()
    assert lane_passes == []  # the second pass over the same bytes is gone


# -- truncated and garbage responses ------------------------------------------


def prefixes(payload):
    return (payload[:cut] for cut in range(len(payload)))


def test_every_strict_prefix_of_a_fetch_response_raises_a_typed_error():
    payload = response(
        [[chunk_of(uniform_records(8, 1, value_len=10), 0)], [chunk_of(keyed_records(2, 2), 0, 1)]]
    )
    protocol.decode_fetch_ok(payload)
    for prefix in prefixes(payload):
        with pytest.raises((GatewayError, WireFormatError)):  # ChecksumError is a WireFormatError
            protocol.decode_fetch_ok(prefix)


def test_every_strict_prefix_of_a_produce_ack_raises_a_typed_error():
    assignments = [
        ChunkAssignment(stream_id=1, streamlet_id=s, group_id=2, segment_id=3, offset=40 * s)
        for s in range(3)
    ]
    payload = b"".join(protocol.encode_produce_ok(5, assignments))
    assert protocol.decode_produce_ok(payload) == (5, assignments)
    for prefix in prefixes(payload):
        with pytest.raises(GatewayError):
            protocol.decode_produce_ok(prefix)


def test_every_strict_prefix_of_a_meta_response_raises_a_typed_error():
    payload = b"".join(protocol.encode_meta_ok(5, 2, 4096, [0, 1, 2]))
    assert protocol.decode_meta_ok(payload) == (5, 2, 4096, [0, 1, 2])
    for prefix in prefixes(payload):
        with pytest.raises(GatewayError):
            protocol.decode_meta_ok(prefix)


def test_every_strict_prefix_of_a_fetch_request_raises_a_typed_error():
    positions = [
        FetchPosition(stream_id=1, streamlet_id=s, entry=s % 2, group_pos=s, chunk_pos=3)
        for s in range(3)
    ] + [FetchPosition(stream_id=1, streamlet_id=9, entry=0, seek_record=77)]
    payload = b"".join(protocol.encode_fetch(5, 7, positions, 16, 250))
    assert protocol.decode_fetch(payload) == (5, 7, 16, 250, positions)
    # The wait rides in the request; a caller that names none asks for none.
    assert protocol.decode_fetch(b"".join(protocol.encode_fetch(5, 7, positions, 16)))[3] == 0
    for prefix in prefixes(payload):
        with pytest.raises(GatewayError, match="truncated GW_FETCH payload"):
            protocol.decode_fetch(prefix)


def test_declared_frame_length_must_match_the_decoded_chunk():
    payload = bytearray(response([[chunk_of(uniform_records(8, 1), 0)]]))
    (frame,) = frame_offsets(payload)
    struct.pack_into("<I", payload, frame - 4, 7)
    with pytest.raises(GatewayError, match="length mismatch"):
        protocol.decode_fetch_ok(bytes(payload))
