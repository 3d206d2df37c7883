"""Exactly-once under retransmission, exercised through the drivers.

The corner these tests pin down (regression for the waiter keying by
object identity): a duplicate chunk arriving while the original is still
in flight must NOT be acknowledged until the original is durable — an
early ack would let the producer advance past data that can still be
lost. A duplicate of an already-durable chunk acks immediately.
"""

from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.wire.chunk import Chunk, ChunkBuilder
from repro.wire.record import Record
from repro.kera import (
    InprocKeraCluster,
    KeraConfig,
    KeraConsumer,
    SimKeraCluster,
    SimWorkload,
)
from repro.kera.broker import KeraBrokerCore
from repro.kera.messages import ProduceRequest


# -- core level: several requests waiting on one chunk ---------------------------


def test_multiple_inflight_duplicates_all_ack_on_durability():
    done = []
    core = KeraBrokerCore(
        broker_id=0,
        nodes=[0, 1, 2, 3],
        storage_config=StorageConfig(
            segment_size=64 * KB, q_active_groups=1, materialize=False
        ),
        replication_config=ReplicationConfig(replication_factor=3, vlogs_per_broker=2),
        on_request_complete=done.append,
    )
    core.create_stream(1, [0])

    def produce(rid):
        return core.handle_produce(
            ProduceRequest(
                request_id=rid,
                producer_id=0,
                chunks=[
                    Chunk.meta(
                        stream_id=1,
                        streamlet_id=0,
                        producer_id=0,
                        chunk_seq=0,
                        record_count=5,
                        payload_len=500,
                    )
                ],
            )
        )

    outcomes = [produce(rid) for rid in (1, 2, 3)]
    assert [o.pending for o in outcomes] == [True, True, True]
    assert [o.duplicates for o in outcomes] == [0, 1, 1]
    assert done == []
    for batch in core.collect_batches():
        core.complete_batch(batch)
    # Original and both retransmissions ack together, in arrival order.
    assert done == [1, 2, 3]
    assert core.chunks_ingested == 1
    assert core.duplicates_dropped == 2


# -- inproc driver ------------------------------------------------------------------


def _real_chunk(n=5):
    builder = ChunkBuilder(1 * KB, stream_id=0, streamlet_id=0, producer_id=0)
    for i in range(n):
        assert builder.try_append(Record(value=f"r{i}".encode()))
    return builder.build(chunk_seq=0)


def _inproc_cluster():
    return InprocKeraCluster(
        KeraConfig(
            num_brokers=4,
            storage=StorageConfig(segment_size=256 * KB, q_active_groups=1),
            replication=ReplicationConfig(replication_factor=3, vlogs_per_broker=2),
            chunk_size=1 * KB,
        )
    )


def test_inproc_inflight_duplicate_waits_for_original():
    cluster = _inproc_cluster()
    cluster.create_stream(0, 1)
    leader = cluster.leader_of(0, 0)
    broker = cluster.brokers[leader]
    chunk = _real_chunk()

    # Original lands on the core directly (no replication pump): in flight.
    rid = cluster._next_request_id()
    outcome = broker.handle_produce(
        ProduceRequest(request_id=rid, producer_id=0, chunks=[chunk])
    )
    assert outcome.pending
    assert broker.pending_requests() == 1

    # Retransmission through the driver: the service pumps replication and
    # must only return once the ORIGINAL chunk is durable.
    responses = cluster.produce([chunk], producer_id=0)
    assert responses[0].assignments[0].duplicate
    assert broker.pending_requests() == 0
    # The original's ack fired into the tracker during the same pump:
    # registering for it now reports it already complete.
    assert cluster.runtime.completion.register(leader, rid, lambda: None)

    values = [r.value for r in KeraConsumer(cluster, 0, [0]).drain()]
    assert values == [f"r{i}".encode() for i in range(5)]
    assert broker.duplicates_dropped == 1


def test_inproc_durable_duplicate_acks_immediately():
    cluster = _inproc_cluster()
    cluster.create_stream(0, 1)
    chunk = _real_chunk()
    first = cluster.produce([chunk], producer_id=0)
    assert not first[0].assignments[0].duplicate

    backup_chunks_before = sum(
        b.store.chunks_received for b in cluster.backups.values()
    )
    second = cluster.produce([chunk], producer_id=0)
    assert second[0].assignments[0].duplicate
    # No new replication traffic for a durable duplicate.
    assert (
        sum(b.store.chunks_received for b in cluster.backups.values())
        == backup_chunks_before
    )
    values = [r.value for r in KeraConsumer(cluster, 0, [0]).drain()]
    assert len(values) == 5  # exactly one copy


# -- sim driver ----------------------------------------------------------------------


def _sim_cluster():
    config = KeraConfig(
        num_brokers=4,
        storage=StorageConfig(
            segment_size=64 * KB, q_active_groups=1, materialize=False
        ),
        replication=ReplicationConfig(replication_factor=3, vlogs_per_broker=2),
        chunk_size=1 * KB,
    )
    workload = SimWorkload(
        num_producers=1,
        num_consumers=0,
        streams=((0, 1),),
        duration=0.05,
        warmup=0.0,
    )
    return SimKeraCluster(config, workload)


def _meta_chunk():
    return Chunk.meta(
        stream_id=0,
        streamlet_id=0,
        producer_id=0,
        chunk_seq=0,
        record_count=5,
        payload_len=500,
    )


def test_sim_inflight_duplicate_waits_for_original():
    cluster = _sim_cluster()
    env = cluster.env
    leader = cluster.coordinator.stream(0).leaders[0]
    client = cluster.producer_nodes[0]
    core = cluster.broker_cores[leader]
    done = {}

    # Record the simulated instant each request's ack fires in the core.
    acks = {}
    tracker_cb = core.on_request_complete

    def recording_cb(rid):
        acks[rid] = env.now
        tracker_cb(rid)

    core.on_request_complete = recording_cb

    def produce(rid):
        request = ProduceRequest(request_id=rid, producer_id=0, chunks=[_meta_chunk()])
        response = yield from cluster.fabric.call_inline(
            client, leader, "broker", "produce", request, request.payload_bytes()
        )
        done[rid] = (env.now, response)

    # Both requests launch at t=0; replication needs a backup round trip,
    # so whichever the dispatcher serves second sees the first in flight.
    env.process(produce(1), name="produce:original")
    env.process(produce(2), name="produce:retransmit")
    env.run(until=0.02)

    assert set(done) == {1, 2}
    flags = sorted(done[rid][1].assignments[0].duplicate for rid in (1, 2))
    assert flags == [False, True]  # exactly one treated as the duplicate
    # Both requests ack at the SAME durability instant: the duplicate was
    # parked until the original's replication completed, not acked on
    # arrival.
    assert set(acks) == {1, 2}
    assert acks[1] == acks[2] > 0.0
    assert core.chunks_ingested == 1
    assert core.duplicates_dropped == 1
    assert core.pending_requests() == 0


def test_sim_durable_duplicate_acks_without_replication():
    cluster = _sim_cluster()
    env = cluster.env
    leader = cluster.coordinator.stream(0).leaders[0]
    client = cluster.producer_nodes[0]
    done = {}

    def produce(rid, at):
        if at:
            yield env.timeout(at)
        request = ProduceRequest(request_id=rid, producer_id=0, chunks=[_meta_chunk()])
        response = yield from cluster.fabric.call_inline(
            client, leader, "broker", "produce", request, request.payload_bytes()
        )
        done[rid] = (env.now, response)

    env.process(produce(1, 0.0), name="produce:original")
    # Well after the original is durable (0.02 s of simulated time).
    env.process(produce(2, 0.02), name="produce:late-retransmit")
    env.run(until=0.05)

    assert set(done) == {1, 2}
    assert not done[1][1].assignments[0].duplicate
    assert done[2][1].assignments[0].duplicate
    replicates = cluster.fabric.stats.calls.get(("backup", "replicate"), 0)
    assert replicates == 2  # the original's batch to its R-1 backups, nothing more
    core = cluster.broker_cores[leader]
    assert core.duplicates_dropped == 1
    assert core.pending_requests() == 0
