"""Gateway produce pipelining: the completion-driven async path.

These tests pin the three properties ISSUE 9 bought:

* a pipelining producer (``max_inflight > 1``) keeps several produce
  frames in flight on one connection, the server-side coalescer merges
  chunks from many requests into fewer broker requests, and everything
  acked survives a consume-back;
* the ``inflight_produces`` gauge rises while requests await replication
  and returns to zero — no executor thread is parked anywhere in that
  window;
* a SIGKILLed backup worker surfaces as a relayed *typed, retryable*
  error on the waiting client and leaks nothing: gateway gauge zero,
  cluster in-flight registry empty.
"""

import asyncio
import os
import signal

import pytest

from repro.common.units import KB, MB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.gateway import AsyncConsumer, AsyncGatewayClient, AsyncProducer, GatewayServer
from repro.common.errors import RetriableRpcError
from repro.kera import KeraConfig, ThreadedKeraCluster
from repro.kera.socket_cluster import SocketKeraCluster


def small_config():
    return KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=3,
            vlogs_per_broker=2,
            pipeline_depth=2,
            ship_window_bytes=2 * MB,
        ),
        chunk_size=1 * KB,
    )


@pytest.fixture
def gateway():
    with ThreadedKeraCluster(small_config()) as cluster:
        with GatewayServer(cluster) as server:
            yield server


def test_pipelined_producer_roundtrip_and_coalescing(gateway):
    connections, records = 8, 120
    host, port = gateway.address()

    async def one_producer(pid: int) -> int:
        async with await AsyncGatewayClient.connect(host, port) as client:
            producer = await AsyncProducer.open(
                client, pid, stream_id=0, max_inflight=4, linger_ms=5.0
            )
            for i in range(records):
                producer.send(f"c{pid}-r{i}".encode())
            await producer.close()  # drains the in-flight window
            return producer.records_sent

    async def run():
        async with await AsyncGatewayClient.connect(host, port) as admin:
            await admin.create_stream(0, 4)
            sent = await asyncio.gather(
                *(one_producer(pid) for pid in range(connections))
            )
            assert sent == [records] * connections
            consumer = await AsyncConsumer.open(admin, 999, stream_id=0)
            values = [r.value for r in await consumer.drain()]
            assert len(values) == connections * records
            assert len(set(values)) == len(values)

    asyncio.run(run())
    stats = gateway.stats
    assert stats.errors_returned == 0
    assert stats.inflight_produces == 0
    assert gateway.cluster.inflight_produce_count() == 0
    # The coalescer really merged: fewer broker batches than gateway
    # produce requests, and every chunk went through a batch.
    assert 1 <= stats.produce_batches
    assert stats.produce_batched_chunks == stats.chunks_in


def test_inflight_gauge_rises_and_returns_to_zero(gateway):
    host, port = gateway.address()
    peak_seen = 0

    async def run():
        nonlocal peak_seen
        async with await AsyncGatewayClient.connect(host, port) as client:
            await client.create_stream(0, 2)
            producer = await AsyncProducer.open(
                client, 1, stream_id=0, max_inflight=8
            )
            for i in range(400):
                producer.send(f"v{i}".encode())
            await producer.flush()
            peak_seen = gateway.stats.inflight_produces_peak

    asyncio.run(run())
    assert peak_seen >= 1
    assert gateway.stats.inflight_produces == 0


def test_sigkilled_backup_relays_gw_error_without_leaks(tmp_path):
    """Kill a backup worker mid-stream: the shipper fails, the waiting
    gateway produce resolves with a relayed error, nothing leaks."""
    config = small_config()
    with SocketKeraCluster(config, ack_timeout=10.0) as cluster:
        with GatewayServer(cluster) as server:
            host, port = server.address()

            async def run():
                async with await AsyncGatewayClient.connect(host, port) as client:
                    await client.create_stream(0, 2)
                    producer = await AsyncProducer.open(
                        client, 1, stream_id=0, max_inflight=4
                    )
                    # A first healthy flush proves the path end to end.
                    for i in range(50):
                        producer.send(f"warm-{i}".encode())
                    assert await producer.flush()
                    # SIGKILL one backup worker: R=3 means every leader
                    # replicates through it, so the next produce cannot
                    # become durable.
                    victim = max(cluster.system.node_ids)
                    pid = cluster.transport.worker_pid(victim, "backup")
                    assert pid is not None
                    os.kill(pid, signal.SIGKILL)
                    for i in range(50):
                        producer.send(f"lost-{i}".encode())
                    # The wire relays the replication failure as a typed
                    # retryable error — with no failover plane running
                    # there is nobody to recover, so retries would also
                    # fail, but the *classification* lets real clients
                    # decide to retry.
                    with pytest.raises(RetriableRpcError):
                        await producer.flush()

            asyncio.run(run())
            assert server.stats.errors_returned >= 1
            assert server.stats.inflight_produces == 0
            assert cluster.inflight_produce_count() == 0
