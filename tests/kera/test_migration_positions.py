"""Streamlet migration and consumer offset management tests."""

import pytest

from repro.common.errors import ConfigError, NotLeaderError, StorageError
from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import (
    KeraConfig,
    KeraConsumer,
    KeraProducer,
    migrate_streamlet,
)
from repro.kera.messages import FetchPosition
from tests.kera.drivers import CONCURRENT, DRIVERS, chunks_received


def make_cluster(driver="inproc", q=1):
    config = KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=64 * KB, q_active_groups=q),
        replication=ReplicationConfig(replication_factor=3, vlogs_per_broker=2),
        chunk_size=1 * KB,
    )
    return DRIVERS[driver](config)


def ingest(cluster, count=300, streamlets=4):
    cluster.create_stream(0, streamlets)
    producer = KeraProducer(cluster, producer_id=0)
    for i in range(count):
        producer.send(0, f"{i:05d}".encode(), streamlet_id=i % streamlets)
    producer.flush()


class TestMigration:
    def test_migrated_data_readable_from_new_leader(self, driver="inproc"):
        with make_cluster(driver) as cluster:
            ingest(cluster)
            source = cluster.leader_of(0, 1)
            target = (source + 1) % 4
            report = migrate_streamlet(cluster, 0, 1, target)
            assert report.source == source
            assert report.target == target
            assert report.records_moved == 75
            assert cluster.leader_of(0, 1) == target
            consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
            records = consumer.drain()
            assert len(records) == 300

    def test_order_preserved_after_migration(self, driver="inproc"):
        with make_cluster(driver) as cluster:
            ingest(cluster)
            source = cluster.leader_of(0, 2)
            migrate_streamlet(cluster, 0, 2, (source + 2) % 4)
            records = KeraConsumer(cluster, consumer_id=0, stream_ids=[0]).drain()
            in_order = [int(r.value) for r in records if int(r.value) % 4 == 2]
            assert len(in_order) == 75
            assert in_order == sorted(in_order)

    def test_migrated_data_re_replicated(self, driver="inproc"):
        with make_cluster(driver) as cluster:
            ingest(cluster)
            source = cluster.leader_of(0, 0)
            target = (source + 1) % 4
            before = chunks_received(cluster)
            report = migrate_streamlet(cluster, 0, 0, target)
            assert report.chunks_moved > 0
            assert chunks_received(cluster) == before + 2 * report.chunks_moved

    def test_invalid_targets_rejected(self, driver="inproc"):
        with make_cluster(driver) as cluster:
            ingest(cluster)
            leader = cluster.leader_of(0, 0)
            with pytest.raises(StorageError):
                migrate_streamlet(cluster, 0, 0, leader)  # already there
            with pytest.raises(StorageError):
                migrate_streamlet(cluster, 0, 99, 1)  # no such streamlet
            with pytest.raises(StorageError):
                migrate_streamlet(cluster, 0, 0, 42)  # no such broker

    def test_new_writes_go_to_new_leader(self, driver="inproc"):
        with make_cluster(driver) as cluster:
            ingest(cluster, count=100)
            source = cluster.leader_of(0, 3)
            target = (source + 1) % 4
            migrate_streamlet(cluster, 0, 3, target)
            producer = KeraProducer(cluster, producer_id=5)
            producer.send(0, b"post-migration", streamlet_id=3)
            producer.flush()
            target_records = cluster.brokers[target].registry.get(0).streamlet(3)
            assert target_records.record_count == 25 + 1

    def test_consumer_positioned_before_the_move_resumes_past_it(
        self, driver="inproc"
    ):
        """Positions are portable: replay rebuilds the same per-entry
        group/chunk layout on the target, so a cursor taken on the old
        leader continues on the new one without a gap or a repeat."""
        with make_cluster(driver, q=2) as cluster:
            ingest(cluster, count=200)
            consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
            first = consumer.poll(max_chunks_per_entry=2)
            source = cluster.leader_of(0, 1)
            migrate_streamlet(cluster, 0, 1, (source + 1) % 4)
            producer = KeraProducer(cluster, producer_id=2)  # fresh chunk_seq
            producer.send(0, b"00200", streamlet_id=1)
            producer.flush()
            rest = consumer.drain()
            values = sorted(int(r.value) for r in first + rest)
            assert values == list(range(201))

    def test_moving_back_to_a_former_leader(self, driver="inproc"):
        """The old leader keeps its (stale) copy and its fence; moving
        the streamlet back lifts the fence and dedup absorbs the copy."""
        with make_cluster(driver) as cluster:
            ingest(cluster, count=100)
            home = cluster.leader_of(0, 0)
            away = (home + 1) % 4
            migrate_streamlet(cluster, 0, 0, away)
            producer = KeraProducer(cluster, producer_id=1)  # fresh chunk_seq
            for i in range(100, 110):
                producer.send(0, f"{i:05d}".encode(), streamlet_id=0)
            producer.flush()
            report = migrate_streamlet(cluster, 0, 0, home)
            assert report.records_moved == 10  # only what `home` lacked
            producer.send(0, b"00110", streamlet_id=0)
            producer.flush()
            records = KeraConsumer(cluster, consumer_id=0, stream_ids=[0]).drain()
            assert sorted(int(r.value) for r in records) == list(range(111))

    def test_fenced_streamlet_refuses_typed_until_commit(self, driver="inproc"):
        """While a streamlet is fenced for a move, produces to it get
        NotLeaderError(leader=None); its neighbours on the same broker
        keep serving; an abandoned move lifts the fence."""
        with make_cluster(driver) as cluster:
            cluster.create_stream(0, 8)  # two streamlets per broker
            leader = cluster.leader_of(0, 0)
            neighbour = next(
                sid for sid in range(1, 8) if cluster.leader_of(0, sid) == leader
            )
            producer = KeraProducer(cluster, producer_id=0)
            cluster.broker_service(leader).fence_streamlet(0, 0)
            producer.send(0, b"refused", streamlet_id=0)
            with pytest.raises(NotLeaderError) as refusal:
                producer.flush()
            assert refusal.value.leader is None
            other = KeraProducer(cluster, producer_id=1)
            other.send(0, b"served", streamlet_id=neighbour)
            other.flush()
            cluster.broker_service(leader).unfence_streamlet(0, 0)
            producer.flush()  # the same chunk, retried
            values = {
                r.value
                for r in KeraConsumer(cluster, consumer_id=0, stream_ids=[0]).drain()
            }
            assert values == {b"refused", b"served"}


@pytest.mark.parametrize("driver", CONCURRENT)
@pytest.mark.parametrize(
    "case",
    [name for name in vars(TestMigration) if name.startswith("test_")],
)
def test_migration_on_every_other_driver(case, driver):
    getattr(TestMigration(), case)(driver)


class TestConsumerPositions:
    def test_snapshot_and_resume(self):
        cluster = make_cluster()
        ingest(cluster, count=200)
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        first = consumer.poll(max_chunks_per_entry=2)
        committed = consumer.positions()
        rest = consumer.drain()
        assert len(first) + len(rest) == 200
        # A "restarted" consumer resumes from the committed snapshot.
        resumed = KeraConsumer(cluster, consumer_id=1, stream_ids=[0])
        resumed.seek(committed)
        replayed = resumed.drain()
        assert len(replayed) == len(rest)

    def test_rewind_rereads_everything(self):
        cluster = make_cluster()
        ingest(cluster, count=120)
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        assert len(consumer.drain()) == 120
        consumer.rewind()
        assert len(consumer.drain()) == 120

    def test_seek_unknown_assignment_rejected(self):
        cluster = make_cluster()
        ingest(cluster)
        consumer = KeraConsumer(cluster, consumer_id=0, stream_ids=[0])
        with pytest.raises(ConfigError):
            consumer.seek({(9, 9, 9): FetchPosition(9, 9, 9)})
