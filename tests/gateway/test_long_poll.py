"""Long-poll fetch: ``GW_FETCH`` parks on the durability notification.

A real :class:`GatewayServer` over the threaded and the socket driver.
What is pinned: a parked fetch is answered by the produce ack that feeds
it, not by a timer; an idle one costs a future and a deadline, never a
thread; a chunk that turns durable between the empty plan and the park
is never missed; closing a connection or the server drops its parked
fetches at once; and every fetch that parked is accounted for as one
wake-up or one time-out.
"""

import asyncio
import statistics
import threading
import time

import pytest

from repro.common.units import KB, MB
from repro.gateway import AsyncConsumer, AsyncGatewayClient, AsyncProducer, GatewayServer
from repro.gateway import protocol
from repro.kera import KeraConfig, SocketKeraCluster, ThreadedKeraCluster
from repro.kera.messages import FetchPosition
from repro.kera.migration import migrate_streamlet
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig

Q = 2
#: A wait no test may sit out: anything that returns this late missed its wake-up.
LONG = 5.0


def _config():
    return KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=Q),
        replication=ReplicationConfig(
            replication_factor=3,
            vlogs_per_broker=2,
            pipeline_depth=4,
            ship_window_bytes=2 * MB,
        ),
        chunk_size=1 * KB,
    )


@pytest.fixture(scope="module", params=[ThreadedKeraCluster, SocketKeraCluster], ids=["threaded", "socket"])
def gateway(request):
    with request.param(_config()) as cluster:
        with GatewayServer(cluster) as server:
            yield server
            # Whatever the tests parked is gone with its connection.
            assert _watchers(server) == 0


#: For the cases one driver is enough for: the same module-scoped
#: fixture, narrowed (a second live cluster would only add idle threads).
threaded_only = pytest.mark.parametrize(
    "gateway", [ThreadedKeraCluster], ids=["threaded"], indirect=True
)
socket_only = pytest.mark.parametrize(
    "gateway", [SocketKeraCluster], ids=["socket"], indirect=True
)


_streams = iter(range(1000, 2000))


def _watchers(server):
    return sum(core.watcher_count() for core in server.cluster.brokers.values())


async def _until(predicate, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, "condition never held"
        await asyncio.sleep(0.0005)


async def _open(host, port, streamlets):
    """A fresh stream with a producer and a consumer on two connections."""
    stream_id = next(_streams)
    producing = await AsyncGatewayClient.connect(host, port)
    consuming = await AsyncGatewayClient.connect(host, port)
    await producing.create_stream(stream_id, streamlets)
    producer = await AsyncProducer.open(producing, 1, stream_id=stream_id)
    consumer = await AsyncConsumer.open(consuming, 7, stream_id=stream_id)
    return producing, consuming, producer, consumer


def test_parked_fetch_is_answered_by_the_ack_that_feeds_it(gateway):
    """Acked => readable across the wake: the fetch parked before the
    produce returns its record within milliseconds of the ack."""
    host, port = gateway.address()
    stats = gateway.stats
    rounds = 200

    async def run():
        producing, consuming, producer, consumer = await _open(host, port, 2)
        lags = []
        for i in range(rounds):
            parked_before = stats.fetch_wakeups + stats.fetch_timeouts
            poll = asyncio.ensure_future(consumer.poll(max_wait=LONG))
            await _until(lambda: stats.fetches_parked == 1)
            producer.send(b"r%d" % i)
            await producer.flush()
            acked = time.perf_counter()
            records = await poll
            lags.append(time.perf_counter() - acked)
            assert [r.value for r in records] == [b"r%d" % i]
            assert stats.fetch_wakeups + stats.fetch_timeouts == parked_before + 1
        await producing.close()
        await consuming.close()
        return lags

    wakeups, timeouts = stats.fetch_wakeups, stats.fetch_timeouts
    lags = asyncio.run(run())
    assert statistics.median(lags) < 0.005
    assert max(lags) < LONG / 2
    # Counters, not guesses: every fetch that parked ended as a wake-up.
    assert stats.fetch_wakeups - wakeups == rounds
    assert stats.fetch_timeouts == timeouts
    assert stats.fetches_parked == 0


def test_idle_fetch_times_out_empty_while_acks_overtake_it(gateway):
    """One connection multiplexes a pipelined producer and a long-polling
    consumer: the parked fetch holds nothing up, and returns empty with
    its positions unchanged when ``max_wait`` has passed."""
    host, port = gateway.address()
    stats = gateway.stats
    max_wait = 0.15

    async def run():
        async with await AsyncGatewayClient.connect(host, port) as client:
            busy, idle = next(_streams), next(_streams)
            await client.create_stream(busy, 2)
            await client.create_stream(idle, 2)
            producer = await AsyncProducer.open(client, 1, stream_id=busy, max_inflight=4)
            consumer = await AsyncConsumer.open(client, 7, stream_id=idle)
            before = dict(consumer._positions)
            started = time.perf_counter()
            poll = asyncio.ensure_future(consumer.poll_chunks(max_wait=max_wait))
            await _until(lambda: stats.fetches_parked == 1)
            for i in range(40):
                producer.send(b"x" * 200)
            assert len(await producer.flush()) >= 8
            assert not poll.done(), "acks did not overtake the parked fetch"
            assert await poll == []
            elapsed = time.perf_counter() - started
            assert consumer._positions == before
            await producer.close()
            return elapsed

    timeouts, wakeups = stats.fetch_timeouts, stats.fetch_wakeups
    elapsed = asyncio.run(run())
    assert abs(elapsed - max_wait) < 0.02
    assert stats.fetch_timeouts == timeouts + 1
    assert stats.fetch_wakeups == wakeups


def test_data_on_one_cursor_of_eight_answers_at_once(gateway):
    host, port = gateway.address()

    async def run():
        producing, consuming, producer, consumer = await _open(host, port, 4)
        assert len(consumer._positions) == 8
        producer.send(b"only", streamlet_id=2)
        await producer.flush()
        parked = gateway.stats.fetch_wakeups + gateway.stats.fetch_timeouts
        started = time.perf_counter()
        records = await consumer.poll(max_wait=LONG)
        elapsed = time.perf_counter() - started
        assert [r.value for r in records] == [b"only"]
        # Ready means *any* cursor has a durable chunk: it never parked.
        assert gateway.stats.fetch_wakeups + gateway.stats.fetch_timeouts == parked
        await producing.close()
        await consuming.close()
        return elapsed

    assert asyncio.run(run()) < 0.1


@threaded_only
def test_produce_racing_the_park_never_waits_out_max_wait(gateway):
    """The missed-wake-up race: a chunk that turns durable between the
    empty plan and the park. Produce and fetch start together, round
    after round; a fetch that lost the race would sit out ``LONG``.
    (One driver: the racing threads — the shipper completing a batch, the
    loop planning — run the same code on both.)"""
    host, port = gateway.address()
    pairs, rounds = 8, 250  # 2,000 races

    async def race(pair):
        producing, consuming, producer, consumer = await _open(host, port, 1)
        slowest = 0.0
        for i in range(rounds):
            value = b"%d-%d" % (pair, i)
            producer.send(value)
            started = time.perf_counter()
            _, records = await asyncio.gather(
                producer.flush(), consumer.poll(max_wait=LONG)
            )
            slowest = max(slowest, time.perf_counter() - started)
            assert [r.value for r in records] == [value]
        await producing.close()
        await consuming.close()
        return slowest

    async def run():
        return await asyncio.gather(*(race(pair) for pair in range(pairs)))

    assert max(asyncio.run(run())) < LONG / 2


@threaded_only
def test_parked_consumers_hold_no_thread_and_wake_by_streamlet(gateway):
    """500 long-polls on 500 connections: no thread anywhere, one produce
    to streamlet k re-plans only the fetches watching k, and closing the
    sockets empties the registry at once."""
    host, port = gateway.address()
    stats = gateway.stats
    streamlets, consumers, k = 5, 500, 3

    async def run():
        async with await AsyncGatewayClient.connect(host, port) as client:
            stream_id = next(_streams)
            await client.create_stream(stream_id, streamlets)
            producer = await AsyncProducer.open(client, 1, stream_id=stream_id)
            threads = set(threading.enumerate())
            fetches_before = stats.fetch_requests

            clients = [
                await AsyncGatewayClient.connect(host, port) for _ in range(consumers)
            ]
            polls = [
                asyncio.ensure_future(
                    c.fetch(
                        [FetchPosition(stream_id, i % streamlets, e) for e in range(Q)],
                        consumer_id=i,
                        max_wait=LONG,
                    )
                )
                for i, c in enumerate(clients)
            ]
            await _until(lambda: stats.fetches_parked == consumers)
            assert _watchers(gateway) == consumers
            assert set(threading.enumerate()) == threads

            wakeups = stats.fetch_wakeups
            producer.send(b"to-k", streamlet_id=k)
            await producer.flush()
            woken = consumers // streamlets
            await _until(lambda: stats.fetch_wakeups == wakeups + woken)
            await asyncio.sleep(0.05)  # nobody else stirs
            done = [i for i, poll in enumerate(polls) if poll.done()]
            assert stats.fetch_wakeups == wakeups + woken
            assert stats.fetches_parked == consumers - woken
            assert sorted(done) == [i for i in range(consumers) if i % streamlets == k]
            for i in done:
                chunks = [c for _, _, cs in polls[i].result() for c in cs]
                assert [r.value for c in chunks for r in c.records()] == [b"to-k"]
            # The 400 still parked hold none; what grew is the bounded
            # worker pool (the produce's flush, the woken fetches' admissions).
            grown = set(threading.enumerate()) - threads
            assert {t.name.rsplit("_", 1)[0] for t in grown} <= {"gateway-call"}
            assert stats.fetch_requests == fetches_before + consumers

            # Disconnect with fetches in flight: sockets closed, slots
            # and watchers gone at once — nobody waits for max_wait.
            for c in clients:
                c._writer.close()
            await _until(
                lambda: _watchers(gateway) == 0 and stats.connections_open == 1,
                timeout=0.5,
            )
            assert stats.fetches_parked == 0
            for poll in polls:
                if not poll.done():
                    poll.cancel()
            await asyncio.gather(*polls, *(c.close() for c in clients), return_exceptions=True)
            await producer.close()

    asyncio.run(run())


@threaded_only
def test_shutdown_drops_parked_fetches_at_once(gateway):
    cluster = gateway.cluster
    stream_id = next(_streams)
    cluster.create_stream(stream_id, 2)
    positions = [FetchPosition(stream_id, s, e) for s in range(2) for e in range(Q)]
    server = GatewayServer(cluster)
    host, port = server.start()
    took = []

    async def run():
        clients = [await AsyncGatewayClient.connect(host, port) for _ in range(100)]
        polls = [
            asyncio.ensure_future(c.fetch(positions, consumer_id=i, max_wait=LONG))
            for i, c in enumerate(clients)
        ]
        await _until(lambda: server.stats.fetches_parked == 100)
        started = time.perf_counter()
        await asyncio.get_running_loop().run_in_executor(None, server.shutdown)
        took.append(time.perf_counter() - started)
        results = await asyncio.gather(*polls, return_exceptions=True)
        assert all(isinstance(r, Exception) for r in results)  # closed, not answered
        await asyncio.gather(*(c.close() for c in clients), return_exceptions=True)

    asyncio.run(run())
    assert took[0] < 1.0
    assert sum(core.watcher_count() for core in cluster.brokers.values()) == 0
    assert server.stats.fetches_parked == 0


@socket_only
def test_migration_wakes_the_fetch_parked_on_the_old_leader(gateway):
    """A voluntary move fences one streamlet, not the node: the fetch
    parked on the old leader is let go when routing commits and re-plans
    against the new leader, instead of sitting out ``max_wait``. (A wake
    answers whatever the re-plan finds, so the record produced after the
    commit arrives in that answer or in the next poll.)"""
    host, port = gateway.address()
    cluster = gateway.cluster
    stats = gateway.stats
    commits = []
    commit_recovery = cluster.coordinator.commit_recovery

    def stamped(plan):
        commit_recovery(plan)
        commits.append(time.perf_counter())

    cluster.coordinator.commit_recovery = stamped

    async def one_move(i):
        producing, consuming, producer, consumer = await _open(host, port, 1)
        stream_id = producer.stream_id
        producer.send(b"before")
        await producer.flush()
        assert [r.value for r in await consumer.poll(max_wait=0)] == [b"before"]
        target = (cluster.leader_of(stream_id, 0) + 1) % len(cluster.brokers)
        answered = []
        parked = stats.fetches_parked
        poll = asyncio.ensure_future(consumer.poll(max_wait=LONG))
        poll.add_done_callback(lambda _: answered.append(time.perf_counter()))
        await _until(lambda: stats.fetches_parked == parked + 1)
        await asyncio.to_thread(migrate_streamlet, cluster, stream_id, 0, target)
        assert cluster.leader_of(stream_id, 0) == target
        producer.send(b"after")
        await producer.flush()
        records = await poll
        if not records:
            records = await consumer.poll(max_wait=LONG)
        assert [r.value for r in records] == [b"after"]
        await producing.close()
        await consuming.close()
        return answered[0] - commits[-1]

    async def run():
        return [await one_move(i) for i in range(5)]

    try:
        lags = asyncio.run(run())
    finally:
        cluster.coordinator.commit_recovery = commit_recovery
    assert len(commits) == 5
    assert max(lags) < 0.25, lags


def _reference_fetch_ok(request_id, responses):
    """``GW_FETCH_OK`` as the parent commit's gateway encoded it."""
    import struct

    def pack(pos):
        seek = -1 if pos.seek_record is None else pos.seek_record
        return struct.pack(
            "<qqqqqq", pos.stream_id, pos.streamlet_id, pos.entry, pos.group_pos, pos.chunk_pos, seek
        )

    entries = [entry for response in responses for entry in response.entries]
    out = [struct.pack("<QI", request_id, len(entries))]
    for entry in entries:
        out += [pack(entry.position), pack(entry.next_position)]
        out.append(struct.pack("<I", len(entry.chunks)))
        for chunk in entry.chunks:
            out += [struct.pack("<I", len(chunk.frame)), bytes(chunk.frame)]
    return b"".join(out)


def test_max_wait_zero_is_byte_for_byte_the_old_response(gateway):
    """No wait asked, nothing changed: the same log state answers with
    the same bytes, empty cursors and cache hits included."""
    host, port = gateway.address()

    async def run():
        producing, consuming, producer, consumer = await _open(host, port, 3)
        for i in range(30):
            producer.send(b"v%d" % i * 20, streamlet_id=i % 2)  # streamlet 2 stays empty
        await producer.flush()
        positions = list(consumer._positions.values())
        payloads = []
        for request_id in (41, 42):  # cold (admitted on a worker), then all hits
            payloads.append(
                await consuming._request(
                    protocol.GW_FETCH,
                    protocol.encode_fetch(request_id, 7, positions, 16),
                    protocol.GW_FETCH_OK,
                )
            )
        await producing.close()
        await consuming.close()
        return positions, payloads

    positions, payloads = asyncio.run(run())
    for request_id, payload in zip((41, 42), payloads):
        responses = gateway.cluster.fetch(
            positions, consumer_id=7, max_chunks_per_entry=16
        )
        assert sum(r.chunk_count for r in responses) > 0
        assert bytes(payload) == _reference_fetch_ok(request_id, responses)
