"""The zero-copy reader plane through the drivers: indexed seeks, fan-out
cache sharing, retention errors, and view-serving fetches."""

import pickle
import threading

import pytest

from repro.common.errors import ChecksumError, ConfigError, OffsetOutOfRangeError
from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.wire.chunk import Chunk
from repro.wire.record import Record, encode_records
from repro.wire.views import ChunkView
from repro.kera import (
    InprocKeraCluster,
    KeraConfig,
    KeraConsumer,
    KeraProducer,
    ThreadedKeraCluster,
)


def make_config(segment_size=256 * KB, segments_per_group=2, chunk_size=1 * KB):
    return KeraConfig(
        num_brokers=3,
        storage=StorageConfig(
            segment_size=segment_size,
            segments_per_group=segments_per_group,
            q_active_groups=1,
        ),
        replication=ReplicationConfig(replication_factor=2, vlogs_per_broker=2),
        chunk_size=chunk_size,
    )


def inproc_cluster(**kwargs):
    return InprocKeraCluster(make_config(**kwargs))


def produce(cluster, n, stream_id=0, streamlet_id=0, size=24):
    producer = KeraProducer(cluster, producer_id=0)
    for i in range(n):
        producer.send(
            stream_id, f"r{i:06d}".encode().ljust(size, b"."), streamlet_id=streamlet_id
        )
    producer.flush()


# -- poll_views: zero-copy consumption ---------------------------------------


def test_poll_views_returns_decode_ready_views():
    cluster = inproc_cluster()
    cluster.create_stream(0, 1)
    produce(cluster, 500)
    consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
    values = []
    while True:
        views = consumer.poll_views()
        if not views:
            break
        for view in views:
            assert isinstance(view, ChunkView)
            assert view.verified  # CRC re-validated at the serving boundary
            values.extend(r.value for r in view.records())
    assert len(values) == 500
    assert values == sorted(values)  # single streamlet: order preserved
    assert consumer.stats.records_read == 500


def test_drain_and_poll_views_share_one_admission_per_chunk():
    cluster = inproc_cluster()
    cluster.create_stream(0, 1)
    produce(cluster, 300)
    cache = cluster.brokers[cluster.leader_of(0, 0)].fancache
    drained = [r.value for r in KeraConsumer(cluster, 0, [0]).drain()]
    assert drained == [f"r{i:06d}".encode().ljust(24, b".") for i in range(300)]
    viewer = KeraConsumer(cluster, 1, [0])
    views = []
    while batch := viewer.poll_views():
        views.extend(batch)
    assert sum(v.record_count for v in views) == 300
    # drain() and poll_views() are one read path: the second pass admits
    # nothing the first did not.
    assert cache.decodes.value == len(views)


@pytest.mark.parametrize("n", [4, 16], ids=["per-record", "uniform-rows"])
def test_drain_verifies_every_record_checksum(n):
    cluster = inproc_cluster()
    cluster.create_stream(0, 1)
    payload = bytearray(encode_records([Record(b"x" * 24) for _ in range(n)]))
    payload[0] ^= 0xFF  # first record's header checksum
    # The chunk CRC is computed over the damaged bytes, so only the
    # per-record check can tell.
    bad = Chunk(
        stream_id=0,
        streamlet_id=0,
        producer_id=0,
        chunk_seq=0,
        record_count=n,
        payload_len=len(payload),
        payload=bytes(payload),
    )
    cluster.produce([bad], producer_id=0)
    (view,) = KeraConsumer(cluster, 0, [0]).poll_views()
    assert view.verified
    with pytest.raises(ChecksumError):
        KeraConsumer(cluster, 1, [0]).drain()


def test_fanout_cache_shares_one_decode_across_consumers():
    cluster = inproc_cluster()
    cluster.create_stream(0, 1)
    produce(cluster, 400)
    leader = cluster.leader_of(0, 0)
    cache = cluster.brokers[leader].fancache

    first = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
    views_a = []
    while batch := first.poll_views():
        views_a.extend(batch)
    decodes_after_first = cache.decodes.value
    assert decodes_after_first == len(views_a)  # one admission per chunk

    second = KeraConsumer(cluster, consumer_id=1, stream_ids=[0])
    views_b = []
    while batch := second.poll_views():
        views_b.extend(batch)
    # The second consumer group is served entirely from the cache: the
    # identical view objects, zero additional decodes.
    assert cache.decodes.value == decodes_after_first
    assert [id(v) for v in views_b] == [id(v) for v in views_a]
    assert cache.stats().hits >= len(views_b)


# -- indexed seeks ------------------------------------------------------------


def test_seek_offset_resumes_at_owning_frame():
    cluster = inproc_cluster()
    cluster.create_stream(0, 1)
    produce(cluster, 600)
    consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
    consumer.seek_offset(0, 0, 0, 450)
    records = []
    while batch := consumer.poll_views():
        for view in batch:
            records.extend(r.value for r in view.records())
    # The seek resolves to the frame *containing* 450: the run starts at
    # that frame's base (chunk granularity) and covers 450 onward.
    assert records[-1] == b"r000599".ljust(24, b".")
    values = [int(v[1:7]) for v in records]
    assert values == list(range(values[0], 600))
    assert values[0] <= 450


def test_seek_touches_o1_frames_via_index():
    """Acceptance: positioned reads resolve through the offset index in
    O(1) frames — pinned by the index's own instrumentation."""
    cluster = inproc_cluster()
    cluster.create_stream(0, 1)
    produce(cluster, 2000)  # dozens of chunks
    leader = cluster.leader_of(0, 0)
    streamlet = cluster.brokers[leader].registry.get(0).streamlet(0)
    groups = streamlet.groups_for_entry(0)
    assert sum(g.index.chunk_count for g in groups) > 20
    for group in groups:
        group.index.frames_touched = 0

    consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
    consumer.seek_offset(0, 0, 0, 1500)
    consumer.poll_views(max_chunks_per_entry=1)
    touched = sum(g.index.frames_touched for g in groups)
    assert touched == 1  # one bisect, one frame — never a scan


def test_seek_past_end_raises_typed_error():
    cluster = inproc_cluster()
    cluster.create_stream(0, 1)
    produce(cluster, 100)
    consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
    consumer.seek_offset(0, 0, 0, 10**9)
    with pytest.raises(OffsetOutOfRangeError) as exc_info:
        consumer.poll_views()
    assert exc_info.value.offset == 10**9
    assert exc_info.value.earliest == 0


def test_seek_unknown_assignment_rejected():
    cluster = inproc_cluster()
    cluster.create_stream(0, 1)
    consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
    with pytest.raises(ConfigError):
        consumer.seek_offset(7, 0, 0, 0)


# -- retention ----------------------------------------------------------------


def retention_cluster():
    """Small groups so a few hundred records span several of them."""
    return inproc_cluster(segment_size=4 * KB, segments_per_group=2, chunk_size=1 * KB)


def test_retire_before_raises_for_stale_cursor_and_floor_seeks():
    cluster = retention_cluster()
    cluster.create_stream(0, 1)
    produce(cluster, 800)
    leader = cluster.leader_of(0, 0)
    broker = cluster.brokers[leader]
    streamlet = broker.registry.get(0).streamlet(0)

    retired = broker.retire_before(0, 0, 0, 400)
    assert retired > 0
    floor = streamlet.retained_floor(0)
    assert 0 < floor <= 400

    # A consumer whose cursor starts below the floor gets the typed error.
    stale = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
    with pytest.raises(OffsetOutOfRangeError) as exc_info:
        stale.poll_views()
    assert exc_info.value.earliest == floor

    # Seeking below the floor is the same typed error...
    seeker = KeraConsumer(cluster, consumer_id=1, stream_ids=[0])
    seeker.seek_offset(0, 0, 0, 0)
    with pytest.raises(OffsetOutOfRangeError):
        seeker.poll_views()

    # ...while seeking at/above it reads the retained suffix completely.
    reader = KeraConsumer(cluster, consumer_id=2, stream_ids=[0])
    reader.seek_offset(0, 0, 0, floor)
    values = []
    while batch := reader.poll_views():
        for view in batch:
            values.extend(int(r.value[1:7]) for r in view.records())
    assert values == list(range(floor, 800))


def test_retirement_invalidates_fanout_cache():
    """No stale reads: frames whose segment memory was freed must leave
    the cache with their group."""
    cluster = retention_cluster()
    cluster.create_stream(0, 1)
    produce(cluster, 800)
    leader = cluster.leader_of(0, 0)
    broker = cluster.brokers[leader]
    streamlet = broker.registry.get(0).streamlet(0)

    # Warm the cache over the whole log first.
    warm = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
    while warm.poll_views():
        pass
    cached_before = broker.fancache.entry_count
    assert cached_before > 0

    broker.retire_before(0, 0, 0, 400)
    retired_groups = [g for g in streamlet.groups_for_entry(0) if g.retired]
    assert retired_groups
    # Every remaining cache entry belongs to a surviving group.
    live_ids = {g.group_id for g in streamlet.groups_for_entry(0) if not g.retired}
    assert broker.fancache.entry_count < cached_before
    with broker.fancache._lock:
        remaining = list(broker.fancache._entries)
    assert remaining and all(key[1] in live_ids for key in remaining)


# -- threaded driver: concurrent fan-out --------------------------------------


def test_threaded_fanout_groups_share_single_decode():
    config = make_config()
    with ThreadedKeraCluster(config) as cluster:
        cluster.create_stream(0, 2)
        producer = KeraProducer(cluster, producer_id=0)
        for i in range(1200):
            producer.send(0, f"t{i:06d}".encode(), streamlet_id=i % 2)
        producer.flush()

        counts = [0] * 6
        errors = []

        def consume(group):
            try:
                consumer = KeraConsumer(cluster, consumer_id=group, stream_ids=[0])
                while True:
                    views = consumer.poll_views()
                    if not views:
                        break
                    counts[group] += sum(v.record_count for v in views)
            except BaseException as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=consume, args=(g,)) for g in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert counts == [1200] * 6

        # Single-decode per hot chunk across all 6 groups: admissions equal
        # the number of distinct durable chunks on each leader.
        for broker in cluster.brokers.values():
            distinct = sum(
                g.index.chunk_count
                for stream in broker.registry
                for sl in stream.streamlets
                for g in sl.groups
            )
            if distinct:
                assert broker.fancache.decodes.value == distinct


def test_threaded_seek_error_propagates_to_caller():
    with ThreadedKeraCluster(make_config()) as cluster:
        cluster.create_stream(0, 1)
        produce(cluster, 50)
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        consumer.seek_offset(0, 0, 0, 10**6)
        with pytest.raises(OffsetOutOfRangeError):
            consumer.poll_views()


# -- process driver -----------------------------------------------------------


def test_process_driver_serves_views_and_typed_seek_errors():
    from repro.kera.process import ProcessKeraCluster

    with ProcessKeraCluster(make_config(), ack_timeout=30.0) as cluster:
        cluster.create_stream(0, 1)
        produce(cluster, 200)
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        values = []
        while batch := consumer.poll_views():
            for view in batch:
                values.extend(int(r.value[1:7]) for r in view.records())
        assert values == list(range(200))
        consumer.seek_offset(0, 0, 0, 10**6)
        with pytest.raises(OffsetOutOfRangeError):
            consumer.poll_views()


# -- error type crosses address spaces ---------------------------------------


def test_offset_error_pickles_with_range_intact():
    err = OffsetOutOfRangeError(42, 100, 900, "stream 0 streamlet 1 entry 0")
    clone = pickle.loads(pickle.dumps(err))
    assert isinstance(clone, OffsetOutOfRangeError)
    assert (clone.offset, clone.earliest, clone.latest) == (42, 100, 900)
    assert clone.context == "stream 0 streamlet 1 entry 0"
    assert "outside retained range [100, 900)" in str(clone)
