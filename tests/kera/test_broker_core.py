"""KerA broker core: produce path, exactly-once, fetch, acks."""

import pytest

from repro.common.errors import UnknownStreamError
from repro.common.units import KB
from repro.replication.config import PolicyMode, ReplicationConfig
from repro.storage.config import StorageConfig
from repro.wire.chunk import Chunk
from repro.wire.record import Record, encode_records
from repro.wire.views import ChunkView
from repro.kera.broker import KeraBrokerCore
from repro.kera.messages import FetchPosition, FetchRequest, ProduceRequest


def make_core(
    r=3, vlogs=2, q=1, on_complete=None, policy=PolicyMode.SHARED, materialize=False
):
    return KeraBrokerCore(
        broker_id=0,
        nodes=[0, 1, 2, 3],
        storage_config=StorageConfig(
            segment_size=64 * KB, q_active_groups=q, materialize=materialize
        ),
        replication_config=ReplicationConfig(
            replication_factor=r, vlogs_per_broker=vlogs, policy=policy
        ),
        on_request_complete=on_complete,
    )


def chunk(stream=1, streamlet=0, producer=0, seq=0, n=5, size=500):
    return Chunk.meta(
        stream_id=stream,
        streamlet_id=streamlet,
        producer_id=producer,
        chunk_seq=seq,
        record_count=n,
        payload_len=size,
    )


def real_chunk(stream=1, streamlet=0, producer=0, seq=0, n=5):
    payload = encode_records([Record(b"v%d" % i) for i in range(n)])
    return Chunk(
        stream_id=stream,
        streamlet_id=streamlet,
        producer_id=producer,
        chunk_seq=seq,
        record_count=n,
        payload_len=len(payload),
        payload=payload,
    )


def produce(core, chunks, request_id=0, producer=0):
    return core.handle_produce(
        ProduceRequest(request_id=request_id, producer_id=producer, chunks=chunks)
    )


def drain_replication(core):
    """Complete every pending replication batch synchronously."""
    while True:
        batches = core.collect_batches()
        if not batches:
            return
        for batch in batches:
            core.complete_batch(batch)


class TestProducePath:
    def test_append_and_assignment(self):
        core = make_core()
        core.create_stream(1, [0])
        outcome = produce(core, [chunk(seq=0), chunk(seq=1)])
        assert outcome.new_records == 10
        assert len(outcome.new_chunks) == 2
        assert outcome.pending  # R3: replication required
        (a, b) = outcome.response.assignments
        assert not a.duplicate and not b.duplicate
        assert a.offset == 0
        assert b.offset == a.offset + outcome.new_chunks[0].length

    def test_unknown_stream_rejected(self):
        core = make_core()
        with pytest.raises(UnknownStreamError):
            produce(core, [chunk(stream=42)])

    def test_r1_completes_immediately(self):
        done = []
        core = make_core(r=1, on_complete=done.append)
        core.create_stream(1, [0])
        outcome = produce(core, [chunk()], request_id=7)
        assert not outcome.pending
        assert outcome.new_chunks[0].is_durable
        assert done == []  # no callback needed: ack inline
        assert core.collect_batches() == []

    def test_ack_after_full_replication(self):
        done = []
        core = make_core(on_complete=done.append)
        core.create_stream(1, [0])
        outcome = produce(core, [chunk(seq=0), chunk(seq=1)], request_id=9)
        assert outcome.pending
        assert core.pending_requests() == 1
        drain_replication(core)
        assert done == [9]
        assert core.pending_requests() == 0
        assert all(c.is_durable for c in outcome.new_chunks)

    def test_routing_multiple_streams_and_streamlets(self):
        core = make_core(vlogs=4)
        core.create_stream(1, [0, 2])
        core.create_stream(5, [1])
        produce(
            core,
            [chunk(stream=1, streamlet=0), chunk(stream=1, streamlet=2),
             chunk(stream=5, streamlet=1)],
        )
        assert core.chunks_ingested == 3
        assert core.registry.get(1).record_count == 10
        assert core.registry.get(5).record_count == 5


class TestExactlyOnce:
    def test_durable_duplicate_dropped(self):
        done = []
        core = make_core(on_complete=done.append)
        core.create_stream(1, [0])
        produce(core, [chunk(seq=0)], request_id=1)
        drain_replication(core)
        # Retransmission of the same chunk.
        outcome = produce(core, [chunk(seq=0)], request_id=2)
        assert outcome.duplicates == 1
        assert not outcome.pending  # already durable: ack immediately
        assert outcome.response.assignments[0].duplicate
        assert core.chunks_ingested == 1
        assert core.duplicates_dropped == 1
        assert core.registry.get(1).record_count == 5

    def test_inflight_duplicate_waits_for_original(self):
        done = []
        core = make_core(on_complete=done.append)
        core.create_stream(1, [0])
        produce(core, [chunk(seq=0)], request_id=1)
        # Duplicate arrives while the original is not yet durable.
        outcome = produce(core, [chunk(seq=0)], request_id=2)
        assert outcome.duplicates == 1
        assert outcome.pending  # must wait for the original's durability
        assert outcome.response.assignments[0].duplicate
        drain_replication(core)
        assert sorted(done) == [1, 2]

    def test_sequence_per_producer_per_streamlet(self):
        core = make_core()
        core.create_stream(1, [0, 1])
        # Same seq on different streamlets / producers is NOT a duplicate.
        outcome = produce(
            core,
            [chunk(streamlet=0, producer=0, seq=0),
             chunk(streamlet=1, producer=0, seq=0),
             chunk(streamlet=0, producer=1, seq=0)],
        )
        assert outcome.duplicates == 0
        assert core.chunks_ingested == 3


class TestFetchPath:
    def test_only_durable_visible(self):
        core = make_core()
        core.create_stream(1, [0])
        produce(core, [chunk(seq=0), chunk(seq=1)])
        request = FetchRequest(
            request_id=0,
            consumer_id=0,
            positions=[FetchPosition(stream_id=1, streamlet_id=0, entry=0)],
            max_chunks_per_entry=10,
        )
        assert core.handle_fetch(request).record_count == 0
        drain_replication(core)
        response = core.handle_fetch(request)
        assert response.record_count == 10
        assert response.chunk_count == 2

    def test_cursor_advances_without_rereads(self):
        core = make_core()
        core.create_stream(1, [0])
        produce(core, [chunk(seq=i) for i in range(3)])
        drain_replication(core)
        pos = FetchPosition(stream_id=1, streamlet_id=0, entry=0)
        first = core.handle_fetch(
            FetchRequest(request_id=0, consumer_id=0, positions=[pos], max_chunks_per_entry=2)
        )
        assert first.chunk_count == 2
        next_pos = first.entries[0].next_position
        second = core.handle_fetch(
            FetchRequest(request_id=1, consumer_id=0, positions=[next_pos], max_chunks_per_entry=2)
        )
        assert second.chunk_count == 1
        seqs = [c.chunk_seq for e in (first.entries + second.entries) for c in e.chunks]
        assert seqs == [0, 1, 2]

    def test_metadata_only_core_serves_stored_chunks(self):
        from repro.storage.segment import StoredChunk

        core = make_core()  # materialize=False: no bytes to view
        core.create_stream(1, [0])
        produce(core, [chunk()])
        drain_replication(core)
        response = core.handle_fetch(
            FetchRequest(
                request_id=0,
                consumer_id=0,
                positions=[FetchPosition(stream_id=1, streamlet_id=0, entry=0)],
            )
        )
        assert isinstance(response.entries[0].chunks[0], StoredChunk)
        assert response.record_count == 5
        assert core.fancache.decodes.value == 0

    def test_materialized_core_serves_verified_views_admitted_once(self):
        core = make_core(materialize=True)
        core.create_stream(1, [0])
        produce(core, [real_chunk(seq=i) for i in range(3)])
        drain_replication(core)
        request = FetchRequest(
            request_id=0,
            consumer_id=0,
            positions=[FetchPosition(stream_id=1, streamlet_id=0, entry=0)],
            max_chunks_per_entry=10,
        )
        first = core.handle_fetch(request).entries[0].chunks
        assert [type(c) for c in first] == [ChunkView] * 3
        assert all(c.verified for c in first)
        assert [r.value for c in first for r in c.records()] == [
            b"v%d" % i for _ in range(3) for i in range(5)
        ]
        # Re-reading the same chunks is served the same views: each chunk
        # was admitted (its frame CRC checked) once.
        again = core.handle_fetch(request).entries[0].chunks
        assert [id(c) for c in again] == [id(c) for c in first]
        assert core.fancache.decodes.value == 3


def test_q_routing_parallel_entries():
    core = make_core(q=4, policy=PolicyMode.PER_SUBPARTITION)
    core.create_stream(1, [0])
    for producer in range(8):
        produce(core, [chunk(producer=producer, seq=0)], producer=producer)
    streamlet = core.registry.get(1).streamlet(0)
    # 8 producers over Q=4 entries: 4 groups, 2 producers each.
    assert len(streamlet.groups) == 4
    assert {g.entry for g in streamlet.groups} == {0, 1, 2, 3}
    # Per-sub-partition policy created one vlog per touched entry.
    assert core.manager.vlog_count == 4
