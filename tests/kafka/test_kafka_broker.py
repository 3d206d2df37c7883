"""Kafka broker core: produce, replica fetch protocol, consumer fetch."""

import pytest

from repro.common.errors import StorageError, UnknownStreamError
from repro.wire.chunk import Chunk
from repro.kafka.broker import KafkaBrokerCore, ReplicaFetchItem
from repro.kafka.config import KafkaConfig


def batch(topic=0, partition=0, seq=0, n=10, size=1000):
    return Chunk.meta(
        stream_id=topic, streamlet_id=partition, producer_id=0, chunk_seq=seq,
        record_count=n, payload_len=size,
    )


def make_core(r=3, on_complete=None, **cfg):
    config = KafkaConfig(num_brokers=4, replication_factor=r, **cfg)
    core = KafkaBrokerCore(broker_id=0, config=config, on_request_complete=on_complete)
    followers = tuple(range(1, r))
    core.add_leader_partition(0, 0, followers)
    core.add_leader_partition(0, 1, followers)
    return core


def produce(core, chunks, request_id=0):
    from repro.kera.messages import ProduceRequest

    return core.handle_produce(
        ProduceRequest(request_id=request_id, producer_id=0, chunks=chunks)
    )


def test_produce_appends_and_waits_for_hw():
    done = []
    core = make_core(on_complete=done.append)
    outcome = produce(core, [batch(partition=0), batch(partition=1)], request_id=3)
    assert outcome.pending
    assert outcome.new_records == 20
    assert sorted(outcome.touched) == [(0, 0), (0, 1)]
    # Followers fetch: first fetch at 0 returns the data...
    for follower in (1, 2):
        response = core.handle_replica_fetch(
            follower,
            [ReplicaFetchItem(0, 0, 0), ReplicaFetchItem(0, 1, 0)],
        )
        assert all(len(batches) == 1 for _, batches, _ in response)
    assert done == []  # data fetched but not yet confirmed
    # ...the NEXT fetch (offset 1) is the acknowledgment.
    for follower in (1, 2):
        core.handle_replica_fetch(
            follower,
            [ReplicaFetchItem(0, 0, 1), ReplicaFetchItem(0, 1, 1)],
        )
    assert done == [3]


def test_r1_produce_acks_immediately():
    core = make_core(r=1)
    outcome = produce(core, [batch()])
    assert not outcome.pending


def test_unknown_partition_rejected():
    core = make_core()
    with pytest.raises(UnknownStreamError):
        produce(core, [batch(topic=9)])
    with pytest.raises(StorageError):
        core.add_leader_partition(0, 0, (1, 2))


def test_replica_fetch_respects_response_cap():
    core = make_core(
        replica_fetch_max_bytes=10_000, replica_fetch_response_max_bytes=2500
    )
    for partition in (0, 1):
        for seq in range(3):
            produce(core, [batch(partition=partition, seq=seq, size=1000)])
    response = core.handle_replica_fetch(
        1, [ReplicaFetchItem(0, 0, 0), ReplicaFetchItem(0, 1, 0)]
    )
    total = sum(b.size for _, batches, _ in response for b in batches)
    # Partition 0 fills most of the 2.5 KB budget; partition 1 still makes
    # progress with its guaranteed single batch.
    (item0, batches0, next0) = response[0]
    (item1, batches1, next1) = response[1]
    assert len(batches0) == 2 and next0 == 2
    assert len(batches1) == 1 and next1 == 1


def test_consumer_fetch_below_hw_only():
    from repro.kera.messages import FetchPosition, FetchRequest

    core = make_core()
    produce(core, [batch(seq=0), batch(partition=0, seq=1)])
    request = FetchRequest(
        request_id=0,
        consumer_id=0,
        positions=[FetchPosition(stream_id=0, streamlet_id=0, entry=0)],
        max_chunks_per_entry=10,
    )
    assert core.handle_fetch(request).record_count == 0
    for follower in (1, 2):
        core.handle_replica_fetch(follower, [ReplicaFetchItem(0, 0, 2)])
    response = core.handle_fetch(request)
    assert response.record_count == 20
    next_pos = response.entries[0].next_position
    assert next_pos.chunk_pos == 2


def test_apply_replica_batches_tracks_follower_copy():
    core = make_core()
    core.add_replica_partition(5, 0)
    core.apply_replica_batches(5, 0, [batch(topic=5)])
    assert core.replica_batches_fetched == 1
    assert len(core.replica_logs[(5, 0)]) == 1
