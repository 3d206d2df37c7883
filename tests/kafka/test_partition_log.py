"""Kafka partition log: offsets, high watermark, acks, fetch bounds."""

import pytest

from repro.common.errors import ReplicationError, StorageError
from repro.wire.chunk import Chunk
from repro.kafka.log import PartitionLog


def batch(seq=0, n=10, size=1000):
    return Chunk.meta(
        stream_id=0, streamlet_id=0, producer_id=0, chunk_seq=seq,
        record_count=n, payload_len=size,
    )


def make_log(followers=(1, 2)):
    return PartitionLog(topic=0, partition=0, leader=0, followers=tuple(followers))


def test_append_assigns_offsets():
    log = make_log()
    assert log.append(batch(0)) == 0
    assert log.append(batch(1)) == 1
    assert log.log_end_offset == 2
    assert log.record_count == 20
    assert log.high_watermark == 0  # nothing replicated yet


def test_r1_watermark_tracks_log_end():
    log = make_log(followers=())
    log.append(batch(0))
    assert log.high_watermark == 1
    assert log.register_ack(1, request_id=5)  # immediate ack


def test_hw_is_min_over_followers():
    log = make_log(followers=(1, 2))
    for i in range(4):
        log.append(batch(i))
    assert log.advance_follower(1, 3) == []
    assert log.high_watermark == 0  # follower 2 still at 0
    log.advance_follower(2, 2)
    assert log.high_watermark == 2


def test_acks_release_on_watermark():
    log = make_log()
    log.append(batch(0))
    log.append(batch(1))
    assert not log.register_ack(2, request_id=7)
    assert log.advance_follower(1, 2) == []
    released = log.advance_follower(2, 2)
    assert released == [7]
    assert log.advance_follower(2, 2) == []  # released exactly once


def test_follower_regression_rejected():
    log = make_log()
    log.append(batch(0))
    log.advance_follower(1, 1)
    with pytest.raises(ReplicationError):
        log.advance_follower(1, 0)
    with pytest.raises(ReplicationError):
        log.advance_follower(1, 5)  # beyond log end
    with pytest.raises(ReplicationError):
        log.advance_follower(9, 0)  # not a follower


def test_fetch_from_respects_max_bytes_but_returns_one():
    log = make_log()
    for i in range(5):
        log.append(batch(i, size=1000))
    batches, nxt = log.fetch_from(0, max_bytes=2100)
    assert [b.chunk_seq for b in batches] == [0, 1]  # header makes #2 not fit
    assert nxt == 2
    # A single huge batch still goes out (progress guarantee).
    tiny, nxt2 = log.fetch_from(2, max_bytes=1)
    assert len(tiny) == 1
    assert nxt2 == 3
    with pytest.raises(StorageError):
        log.fetch_from(99, max_bytes=100)


def test_consumer_fetch_bounded_by_hw():
    log = make_log()
    for i in range(3):
        log.append(batch(i))
    assert log.consumer_fetch(0, 10) == ([], 0)
    log.advance_follower(1, 2)
    log.advance_follower(2, 2)
    batches, nxt = log.consumer_fetch(0, 10)
    assert [b.chunk_seq for b in batches] == [0, 1]
    assert nxt == 2
    # Beyond HW: nothing.
    assert log.consumer_fetch(2, 10) == ([], 2)
