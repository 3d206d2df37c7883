"""Crash recovery: every acked record survives, order preserved."""

import pytest

from repro.common.errors import RecoveryError
from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.wire.chunk import Chunk
from repro.kera import (
    KeraConfig,
    KeraConsumer,
    KeraProducer,
    merge_backup_copies,
    recover_broker,
)
from tests.kera.drivers import CONCURRENT, DRIVERS


def make_cluster(driver, r=3, vlogs=2, brokers=4):
    config = KeraConfig(
        num_brokers=brokers,
        storage=StorageConfig(segment_size=64 * KB),
        replication=ReplicationConfig(replication_factor=r, vlogs_per_broker=vlogs),
        chunk_size=1 * KB,
    )
    return DRIVERS[driver](config)


def ingest(cluster, stream_id=0, streamlets=8, count=400, producer_id=0):
    cluster.create_stream(stream_id, streamlets)
    producer = KeraProducer(cluster, producer_id=producer_id)
    values = [f"s{stream_id}-r{i:05d}".encode() for i in range(count)]
    for v in values:
        producer.send(stream_id, v)
    producer.flush()
    return values


def test_recovery_restores_all_acked_records(driver="inproc"):
    with make_cluster(driver) as cluster:
        values = ingest(cluster, count=500)
        report = recover_broker(cluster, failed_broker=1)
        assert report.failed_broker == 1
        assert report.records_recovered > 0
        assert report.backups_read >= 1
        # All data readable again, from the reassigned leaders.
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        recovered = {r.value for r in consumer.drain()}
        assert recovered == set(values)


def test_recovery_preserves_per_streamlet_order(driver="inproc"):
    with make_cluster(driver) as cluster:
        cluster.create_stream(0, 8)
        producer = KeraProducer(cluster, producer_id=0)
        for i in range(300):
            producer.send(0, f"{i:05d}".encode(), streamlet_id=i % 8)
        producer.flush()
        recover_broker(cluster, failed_broker=2)
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        records = consumer.drain()
        assert len(records) == 300
        # Within each original streamlet the values must still ascend.
        per_streamlet: dict[int, list[int]] = {}
        for record in records:
            value = int(record.value)
            per_streamlet.setdefault(value % 8, []).append(value)
        for sl, values in per_streamlet.items():
            assert values == sorted(values), f"order broken in streamlet {sl}"


def test_recovery_dedups_across_backup_copies(driver="inproc"):
    with make_cluster(driver, r=3) as cluster:  # each vseg lives on 2 backups
        ingest(cluster, count=400)
        report = recover_broker(cluster, failed_broker=0)
        # Several backups hold copies of the lost virtual segments (R-1 = 2
        # copies each); the merge collapses them so nothing is ingested twice.
        assert report.backups_read >= 2
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        records = consumer.drain()
        assert len(records) == 400  # no double ingestion, nothing lost


def test_recovered_data_is_re_replicated(driver="inproc"):
    with make_cluster(driver, r=2, brokers=4) as cluster:
        ingest(cluster, count=300)
        recover_broker(cluster, failed_broker=3)
        survivors = [b for b in cluster.brokers if b != 3]
        # Every surviving broker's pending replication is drained.
        for b in survivors:
            assert cluster.brokers[b].pending_requests() == 0
        # The failed broker's backup data was dropped after recovery.
        for node in survivors:
            assert cluster.backup_recovery_chunks(node, 3) == []
        assert 3 not in {cluster.leader_of(0, sid) for sid in range(8)}


def test_multiple_streams_recovered(driver="inproc"):
    with make_cluster(driver) as cluster:
        values0 = ingest(cluster, stream_id=0, streamlets=4, count=200, producer_id=0)
        values1 = ingest(cluster, stream_id=1, streamlets=4, count=200, producer_id=1)
        recover_broker(cluster, failed_broker=1)
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0, 1])
        recovered = {r.value for r in consumer.drain()}
        assert recovered == set(values0) | set(values1)


@pytest.mark.parametrize("driver", CONCURRENT)
@pytest.mark.parametrize(
    "case",
    [
        test_recovery_restores_all_acked_records,
        test_recovery_preserves_per_streamlet_order,
        test_recovery_dedups_across_backup_copies,
        test_recovered_data_is_re_replicated,
        test_multiple_streams_recovered,
    ],
    ids=lambda case: case.__name__.removeprefix("test_"),
)
def test_on_every_other_driver(case, driver):
    case(driver)


class TestMergeBackupCopies:
    def chunk(self, seq, crc=1):
        c = Chunk.meta(
            stream_id=0, streamlet_id=0, producer_id=0, chunk_seq=seq,
            record_count=1, payload_len=100,
        )
        c.payload_crc = crc
        return c

    def test_prefix_copies_merge_to_longest(self):
        a = [(0, [self.chunk(0), self.chunk(1)])]
        b = [(0, [self.chunk(0), self.chunk(1), self.chunk(2)])]
        merged = merge_backup_copies([a, b])
        assert len(merged) == 1
        assert [c.chunk_seq for c in merged[0][1]] == [0, 1, 2]

    def test_vsegs_ordered_by_id(self):
        a = [(3, [self.chunk(30)])]
        b = [(1, [self.chunk(10)])]
        merged = merge_backup_copies([a, b])
        assert [vseg for vseg, _ in merged] == [1, 3]

    def test_divergent_replicas_detected(self):
        a = [(0, [self.chunk(0, crc=1)])]
        b = [(0, [self.chunk(0, crc=2)])]
        with pytest.raises(RecoveryError):
            merge_backup_copies([a, b])

    def test_repeated_chunk_within_one_run_is_deduped(self):
        # A repair mid-replication can legally land the same chunk twice
        # in one backup's copy; the merge keeps the first occurrence.
        a = [(0, [self.chunk(0), self.chunk(1), self.chunk(1), self.chunk(2)])]
        merged = merge_backup_copies([a])
        assert [c.chunk_seq for c in merged[0][1]] == [0, 1, 2]

    def test_repeated_chunk_with_differing_payload_is_divergence(self):
        a = [(0, [self.chunk(0, crc=1), self.chunk(0, crc=2)])]
        with pytest.raises(RecoveryError):
            merge_backup_copies([a])

    def test_dedup_keeps_prefix_property_across_copies(self):
        # Dedup inside each run must not break the prefix comparison:
        # both copies still merge to the longer clean prefix.
        a = [(0, [self.chunk(0), self.chunk(0), self.chunk(1)])]
        b = [(0, [self.chunk(0), self.chunk(1), self.chunk(2)])]
        merged = merge_backup_copies([a, b])
        assert [c.chunk_seq for c in merged[0][1]] == [0, 1, 2]
