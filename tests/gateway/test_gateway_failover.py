"""Gateway failover: typed errors across the wire, retrying producer.

The gateway protocol flattens server-side exceptions to strings; the
failover satellite promotes the *known* shapes back to typed exceptions
on the client so the async producer can tell "routing moved, retry"
(``NotLeaderError``, ``RetriableRpcError``) apart from "give up"
(``GatewayError``). The regression at the bottom is the headline: a
pipelined producer keeps its acked records through a real node kill.
"""

import asyncio
import time

import pytest

from repro.common.errors import NotLeaderError, RetriableRpcError
from repro.common.units import KB, MB
from repro.failover import FailoverPlane
from repro.failover.chaos import kill_node
from repro.gateway import AsyncConsumer, AsyncGatewayClient, AsyncProducer, GatewayServer
from repro.gateway.protocol import GatewayError, decode_error, encode_error
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.kera import KeraConfig, SocketKeraCluster, ThreadedKeraCluster


# -- decode_error: the wire -> typed exception promotion ---------------------------


def _roundtrip(exc):
    # encode_error returns the frame's buffer parts; the reader hands
    # decode_error the reassembled contiguous payload.
    payload = b"".join(bytes(part) for part in encode_error(7, exc))
    rid, decoded = decode_error(payload)
    assert rid == 7
    return decoded


def test_decode_not_leader_with_known_leader():
    decoded = _roundtrip(NotLeaderError(3, 5, 2))
    assert isinstance(decoded, NotLeaderError)
    assert (decoded.stream_id, decoded.streamlet_id) == (3, 5)
    assert decoded.leader == 2


def test_decode_not_leader_without_leader():
    decoded = _roundtrip(NotLeaderError(3, 5, None))
    assert isinstance(decoded, NotLeaderError)
    assert decoded.leader is None


def test_decode_replication_error_is_retryable():
    from repro.common.errors import ReplicationError

    decoded = _roundtrip(ReplicationError("shipper for broker 1 failed"))
    assert isinstance(decoded, RetriableRpcError)
    assert "shipper for broker 1 failed" in str(decoded)


def test_decode_retriable_rpc_error_stays_retryable():
    decoded = _roundtrip(RetriableRpcError("transient"))
    assert isinstance(decoded, RetriableRpcError)


def test_decode_unknown_error_is_terminal_gateway_error():
    decoded = _roundtrip(ValueError("who knows"))
    assert isinstance(decoded, GatewayError)
    assert not isinstance(decoded, (NotLeaderError, RetriableRpcError))
    assert "ValueError" in str(decoded)


def test_decode_refuses_crafted_leader_spoofing():
    # Only the exact typed message shape is promoted; a look-alike with
    # trailing garbage stays a terminal GatewayError.
    crafted = GatewayError(
        "NotLeaderError: not leader for stream 1 streamlet 2 "
        "(leader is broker 3); rm -rf"
    )
    decoded = _roundtrip(crafted)
    assert isinstance(decoded, GatewayError)
    assert not isinstance(decoded, NotLeaderError)


# -- the regression: pipelined producer survives one broker kill -------------------


def _config():
    return KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=256 * KB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=3,
            vlogs_per_broker=2,
            pipeline_depth=4,
            ship_window_bytes=2 * MB,
        ),
        chunk_size=1 * KB,
    )


def test_pipelined_producer_survives_broker_kill_zero_acked_loss():
    """A pipelined gateway producer (max_inflight > 1, retries on) keeps
    publishing through a node kill + failover: whatever ``flush`` said
    was acked is consumable afterwards, exactly once."""
    with ThreadedKeraCluster(_config()) as cluster:
        with GatewayServer(cluster) as server:
            with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
                host, port = server.address()
                acked_values: list[bytes] = []

                async def run():
                    async with await AsyncGatewayClient.connect(host, port) as client:
                        await client.create_stream(0, 4)
                        producer = await AsyncProducer.open(
                            client,
                            1,
                            stream_id=0,
                            max_inflight=4,
                            linger_ms=2.0,
                            retries=8,
                            retry_backoff_s=0.05,
                        )
                        # Healthy warmup: these are acked pre-kill.
                        for i in range(60):
                            producer.send(f"warm-{i}".encode())
                        await producer.flush()
                        acked_values.extend(
                            f"warm-{i}".encode() for i in range(60)
                        )

                        # Two-phase kill so the client *observes* the
                        # failure window: recovery on this cluster takes
                        # ~15ms, so an atomic kill+detect would often
                        # finish before the next flush and the retry
                        # path would go unexercised. Fence first (the
                        # broker is dead but undetected), flush into the
                        # wall, then report the death mid-retry.
                        victim = cluster.leader_of(0, 0)
                        cluster.fence_node(victim)
                        # Pin the live batch to the victim's streamlet:
                        # sticky partitioning would otherwise happily
                        # route everything to the survivors and the
                        # retry path would go unexercised.
                        values = [f"live-{i}".encode() for i in range(40)]
                        for v in values:
                            producer.send(v, streamlet_id=0)
                        flush_task = asyncio.ensure_future(producer.flush())
                        await asyncio.sleep(0.05)  # first attempt fails
                        plane.detector.report_dead(
                            victim, "test kill", source="report"
                        )
                        await flush_task  # retries carry it through
                        acked_values.extend(values)
                        assert producer.retries_used > 0, (
                            "flush never hit the dead broker: "
                            "test proved nothing"
                        )
                        assert plane.wait_recovered(victim, timeout=20.0)

                        consumer = await AsyncConsumer.open(
                            client, 999, stream_id=0
                        )
                        fetched = [r.value for r in await consumer.drain()]
                        missing = set(acked_values) - set(fetched)
                        assert not missing, (
                            f"acked records lost: {sorted(missing)[:10]}"
                        )
                        counts: dict[bytes, int] = {}
                        for v in fetched:
                            counts[v] = counts.get(v, 0) + 1
                        dupes = [v for v, n in counts.items() if n > 1]
                        assert not dupes, f"duplicated: {sorted(dupes)[:10]}"

                asyncio.run(run())


# -- a long-polling consumer across a kill -> recover cycle ------------------------


def test_long_polling_consumer_rides_through_kill_and_recovery():
    """A fetch parked on a broker that dies is answered by the fence (a
    typed routing error, or data from the new leader once routing
    flipped) — never left to sit out ``max_wait`` — and the consumer's
    cursors carry on across the move: nothing lost, nothing twice, each
    (streamlet, entry) in order."""
    streamlets, per_phase, long_wait = 4, 30, 15.0
    with SocketKeraCluster(_config()) as cluster:
        with GatewayServer(cluster) as server:
            with FailoverPlane(cluster, heartbeat_interval=0.05) as plane:
                host, port = server.address()
                stats = server.stats
                acked: list[bytes] = []
                seen: list[tuple[int, int, bytes]] = []
                refused = 0

                async def produce(producers, phase):
                    for pid, producer in enumerate(producers):
                        for i in range(per_phase):
                            producer.send(b"%d-%d-%d" % (pid, phase, i), streamlet_id=pid)
                    await asyncio.gather(*(p.flush() for p in producers))
                    acked.extend(
                        b"%d-%d-%d" % (pid, phase, i)
                        for pid in range(streamlets)
                        for i in range(per_phase)
                    )

                async def consume(consumer, total):
                    nonlocal refused
                    while len(seen) < total:
                        try:
                            chunks = await consumer.poll_chunks(max_wait=long_wait)
                        except (NotLeaderError, RetriableRpcError):
                            refused += 1  # mid-failover: back off, poll again
                            await asyncio.sleep(0.02)
                            continue
                        for chunk in chunks:
                            entry = chunk.producer_id % 2
                            seen.extend(
                                (chunk.streamlet_id, entry, r.value) for r in chunk.records()
                            )

                async def run():
                    producing = await AsyncGatewayClient.connect(host, port)
                    consuming = await AsyncGatewayClient.connect(host, port)
                    await producing.create_stream(0, streamlets)
                    producers = [
                        await AsyncProducer.open(
                            producing, pid, stream_id=0, retries=10, retry_backoff_s=0.05
                        )
                        for pid in range(streamlets)
                    ]
                    consumer = await AsyncConsumer.open(consuming, 999, stream_id=0)
                    tail = asyncio.ensure_future(consume(consumer, 2 * streamlets * per_phase))
                    await produce(producers, 0)
                    # Caught up and parked — on every leader, the victim included.
                    deadline = time.monotonic() + 10.0
                    while not (len(seen) == len(acked) and stats.fetches_parked == 1):
                        assert time.monotonic() < deadline
                        await asyncio.sleep(0.002)
                    resolved = stats.fetch_wakeups + stats.fetch_timeouts
                    victim = cluster.leader_of(0, 0)
                    killed = time.monotonic()
                    assert kill_node(cluster, victim) == "sigkill"
                    while stats.fetch_wakeups + stats.fetch_timeouts == resolved:
                        assert time.monotonic() - killed < long_wait / 2, (
                            "the fetch parked on the dead broker was never woken"
                        )
                        await asyncio.sleep(0.002)
                    assert plane.wait_recovered(victim, timeout=20.0)
                    await produce(producers, 1)
                    await asyncio.wait_for(tail, timeout=long_wait)
                    for producer in producers:
                        await producer.close()
                    await producing.close()
                    await consuming.close()

                asyncio.run(run())
                assert stats.fetch_timeouts == 0
                values = [value for _, _, value in seen]
                assert sorted(values) == sorted(acked)  # zero lost, zero duplicated
                for key in {(s, e) for s, e, _ in seen}:
                    order = [
                        tuple(map(int, v.split(b"-")[1:])) for s, e, v in seen if (s, e) == key
                    ]
                    assert order == sorted(order), f"(streamlet, entry) {key} reordered"
                assert sum(c.watcher_count() for c in cluster.brokers.values()) == 0
