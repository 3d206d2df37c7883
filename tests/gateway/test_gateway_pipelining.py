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

Since produce runs to completion on the thread that submits it (the
lane's flush appends, pumps the ship loop and sends), they also pin what
that must not cost: the loop never submits and stays responsive while
replication is stalled, one thread per broker lane — not the pool —
waits for credit, and no broker worker pool exists to hop through.
"""

import asyncio
import os
import signal
import threading
import time

import pytest

from repro.common.units import KB, MB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.gateway import AsyncConsumer, AsyncGatewayClient, AsyncProducer, GatewayServer
from repro.common.errors import RetriableRpcError
from repro.kera import KeraConfig, ProcessKeraCluster, ThreadedKeraCluster
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


# -- run-to-completion produce: what the submitting thread may and may not hold --


class StalledBackups:
    """Swallows every replicate call until ``resume()``: backups that are
    up but never ack. No thread blocks in here, so the only waits in the
    system are the ship loops' credit waits."""

    def __init__(self, cluster):
        self.lock = threading.Lock()
        self.held = []
        self.stalled = True
        self.real = cluster.transport.call_async
        cluster.transport.call_async = self

    def __call__(self, src, dst, service, method, request, request_bytes=0, *, on_done):
        with self.lock:
            if self.stalled and method == "replicate":
                self.held.append((src, dst, service, method, request, request_bytes, on_done))
                return
        self.real(src, dst, service, method, request, request_bytes, on_done=on_done)

    def resume(self):
        # Under the lock: a call issued meanwhile queues behind the held
        # ones, so a backup sees each virtual segment in ship order.
        with self.lock:
            self.stalled = False
            for *args, on_done in self.held:
                self.real(*args, on_done=on_done)
            self.held = []


class CreditWaits:
    """Who sits in ``FlowController.acquire``, per broker."""

    def __init__(self, cluster):
        self.lock = threading.Lock()
        self.now = {node: set() for node in cluster.system.node_ids}
        self.peak = dict.fromkeys(self.now, 0)
        self.entered = set()  # brokers whose ship loop ever ran out of credit
        for node in self.now:
            flow = cluster.shipper(node).flow
            flow.acquire = self._counted(node, flow.acquire)

    def _counted(self, node, real):
        def acquire(nbytes, timeout=None):
            name = threading.current_thread().name
            with self.lock:
                self.entered.add(node)
                self.now[node].add(name)
                self.peak[node] = max(self.peak[node], len(self.now[node]))
            try:
                return real(nbytes, timeout=timeout)
            finally:
                with self.lock:
                    self.now[node].discard(name)

        return acquire

    def waiting(self):
        with self.lock:
            return {node: set(names) for node, names in self.now.items() if names}


def stalled_config():
    config = small_config()
    # Any second batch waits for the first one's credit.
    return KeraConfig(
        num_brokers=config.num_brokers,
        storage=config.storage,
        replication=ReplicationConfig(
            replication_factor=3, vlogs_per_broker=2, pipeline_depth=2, ship_window_bytes=1
        ),
        chunk_size=config.chunk_size,
    )


async def _stalled_producers(host, port, connections=8, records=60):
    """Start pipelining producers whose acks cannot arrive yet; returns
    their tasks and clients."""
    clients, tasks = [], []

    async def produce(producer, pid):
        for i in range(records):
            # Pinned: four streamlets put a leader on each of the brokers.
            producer.send(f"c{pid}-r{i}".encode(), streamlet_id=pid % 4)
            if i % 5 == 4:
                await asyncio.sleep(0)  # let full chunks ship as they seal
        await producer.close()
        return producer.records_sent

    for pid in range(connections):
        client = await AsyncGatewayClient.connect(host, port)
        clients.append(client)
        producer = await AsyncProducer.open(
            client, pid, stream_id=0, max_inflight=4, linger_ms=1.0
        )
        tasks.append(asyncio.create_task(produce(producer, pid)))
    return tasks, clients


async def _until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        await asyncio.sleep(0.005)


def test_loop_stays_free_and_one_thread_per_lane_waits_while_replication_stalls():
    connections, records = 8, 60
    with ThreadedKeraCluster(stalled_config()) as cluster:
        submitters = set()
        real_submit = cluster.submit_produce

        def submit_produce(*args, **kwargs):
            submitters.add(threading.current_thread().name)
            return real_submit(*args, **kwargs)

        cluster.submit_produce = submit_produce
        waits = CreditWaits(cluster)
        with GatewayServer(cluster) as server:
            host, port = server.address()

            async def run():
                async with await AsyncGatewayClient.connect(host, port) as admin:
                    await admin.create_stream(0, 4)
                    await admin.create_stream(1, 1)
                    stall = StalledBackups(cluster)
                    tasks, clients = await _stalled_producers(
                        host, port, connections, records
                    )
                    # Each lane's first batch took the credit there is.
                    await _until(lambda: waits.entered == set(cluster.system.node_ids))
                    await asyncio.sleep(0.2)  # room for a 2nd waiter per lane to show
                    assert all(len(names) <= 1 for names in waits.waiting().values())
                    assert server.stats.inflight_produces > 0

                    # Another connection's metadata request is not behind
                    # any of that (best of three: the box is shared).
                    took = []
                    for _ in range(3):
                        began = time.perf_counter()
                        await admin.meta(0)
                        took.append(time.perf_counter() - began)
                    assert min(took) < 0.05
                    # A parked fetch still answers at its own deadline.
                    idle = await AsyncConsumer.open(admin, 900, stream_id=1)
                    began = time.perf_counter()
                    assert await idle.poll(max_wait=0.2) == []
                    assert 0.19 <= time.perf_counter() - began < 0.7
                    assert server.stats.fetch_timeouts == 1
                    assert not any(task.done() for task in tasks)

                    stall.resume()
                    assert await asyncio.gather(*tasks) == [records] * connections
                    consumer = await AsyncConsumer.open(admin, 999, stream_id=0)
                    values = [r.value for r in await consumer.drain()]
                    assert len(values) == connections * records
                    assert len(set(values)) == len(values)
                    for client in clients:
                        await client.close()

            asyncio.run(run())
            stats = server.stats
            # Acked exactly once each: every request answered, none in error.
            assert stats.errors_returned == 0
            assert stats.inflight_produces == 0
            assert cluster.inflight_produce_count() == 0
        # At most one thread per broker lane ever waited for credit at a
        # time, and the loop never appended or pumped.
        assert max(waits.peak.values()) == 1
        assert submitters and all(n.startswith("gateway-call") for n in submitters)
        for node in cluster.system.node_ids:
            assert cluster.shipper(node).inline_pumps > 0


def test_shutdown_with_replication_stalled_returns_within_the_drain_deadline():
    with ThreadedKeraCluster(stalled_config()) as cluster:
        waits = CreditWaits(cluster)
        for node in cluster.system.node_ids:
            cluster.shipper(node)._DRAIN_TIMEOUT = 0.5
        with GatewayServer(cluster) as server:
            host, port = server.address()

            async def run():
                async with await AsyncGatewayClient.connect(host, port) as admin:
                    await admin.create_stream(0, 4)
                    StalledBackups(cluster)
                    tasks, clients = await _stalled_producers(host, port)
                    await _until(lambda: waits.entered == set(cluster.system.node_ids))
                    began = time.perf_counter()
                    await asyncio.to_thread(server.shutdown)
                    await asyncio.to_thread(cluster.shutdown)
                    elapsed = time.perf_counter() - began
                    # The pool thread that held the pump sees the deadline
                    # on its next 50 ms credit re-check.
                    await _until(lambda: not waits.waiting(), timeout=1.0)
                    await asyncio.gather(*tasks, return_exceptions=True)
                    for client in clients:
                        await client.close()
                    return elapsed

            # The credit waits ended on the drain deadline (0.5 s here)
            # and the stalled produces were failed.
            assert asyncio.run(run()) < 3.0
            assert cluster.inflight_produce_count() == 0
            for node in cluster.system.node_ids:
                assert not cluster.shipper(node).is_alive()


@pytest.mark.parametrize("driver", ["threaded", "process", "socket"])
def test_thread_census_of_a_started_cluster_is_backup_and_shipper_per_node(driver):
    """Per node: the backup's one worker (a thread on the threaded
    driver, the parent's reader of the worker pipe otherwise) and the
    shipper's thread — nothing else."""
    cls = {
        "threaded": ThreadedKeraCluster,
        "process": ProcessKeraCluster,
        "socket": SocketKeraCluster,
    }[driver]
    before = {t.ident for t in threading.enumerate()}
    with cls(small_config()) as cluster:
        names = sorted(t.name for t in threading.enumerate() if t.ident not in before)
        nodes = cluster.system.node_ids
    backup = "backup@{}#0" if driver == "threaded" else "worker-reader-backup@{}"
    assert names == sorted(
        [backup.format(n) for n in nodes] + [f"kera-shipper-{n}" for n in nodes]
    )


def test_thread_census_no_broker_pool_and_a_burst_adds_only_executor_threads():
    with SocketKeraCluster(small_config()) as cluster:
        with GatewayServer(cluster) as server:
            # A node's only transport binding is its backup: no broker
            # worker exists, not even one for the failure detector.
            assert not any(t.name.startswith("broker@") for t in threading.enumerate())
            host, port = server.address()
            idle = threading.active_count()
            excess = []

            async def run():
                async with await AsyncGatewayClient.connect(host, port) as client:
                    await client.create_stream(0, 4)
                    producer = await AsyncProducer.open(
                        client, 1, stream_id=0, max_inflight=4
                    )

                    async def sample():
                        while True:
                            threads = threading.enumerate()
                            pool = sum(t.name.startswith("gateway-call") for t in threads)
                            excess.append(len(threads) - idle - pool)
                            await asyncio.sleep(0.001)

                    sampler = asyncio.create_task(sample())
                    for i in range(2000):
                        producer.send(f"v{i}".encode() * 8)
                        if i % 20 == 19:
                            await asyncio.sleep(0)
                    await producer.close()
                    sampler.cancel()
                    assert producer.records_sent == 2000

            asyncio.run(run())
            assert excess and max(excess) <= 0
            assert server.stats.errors_returned == 0
