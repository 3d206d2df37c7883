"""Gateway end to end: asyncio clients through the TCP front door.

A threaded cluster behind a :class:`GatewayServer`, driven by the
asyncio client stack from the test's own event loop: produce/fetch
roundtrips, request pipelining on one connection, server-side errors
relayed as typed frames, garbage connections dropped without collateral,
and a several-dozen-connection concurrency smoke.
"""

import asyncio
import asyncio.selector_events
import socket
import threading
import time

import pytest

from repro.common.errors import WireFormatError
from repro.common.units import KB, MB
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.gateway import AsyncConsumer, AsyncGatewayClient, AsyncProducer, GatewayServer
from repro.gateway import protocol
from repro.gateway.protocol import GatewayError
from repro.kera import KeraConfig, ThreadedKeraCluster
from repro.kera.messages import FetchPosition
from repro.wire.netframe import FRAME_HEADER_SIZE, parse_frame_header


@pytest.fixture
def gateway():
    config = KeraConfig(
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
    with ThreadedKeraCluster(config) as cluster:
        with GatewayServer(cluster) as server:
            yield server


def test_produce_fetch_roundtrip(gateway):
    host, port = gateway.address()

    async def run():
        async with await AsyncGatewayClient.connect(host, port) as client:
            await client.create_stream(0, 2)
            producer = await AsyncProducer.open(client, 1, stream_id=0)
            for i in range(50):
                producer.send(f"v{i}".encode())
            assignments = await producer.flush()
            assert assignments and not any(a.duplicate for a in assignments)
            await producer.close()

            consumer = await AsyncConsumer.open(client, 7, stream_id=0)
            records = await consumer.drain()
            assert sorted(r.value for r in records) == sorted(
                f"v{i}".encode() for i in range(50)
            )

    asyncio.run(run())
    assert gateway.stats.produce_requests >= 1
    assert gateway.stats.fetch_requests >= 1
    assert gateway.stats.chunks_in >= 1
    assert gateway.stats.chunks_out >= 1
    assert gateway.stats.errors_returned == 0


def test_each_frame_is_one_transport_call_on_both_ends(gateway, monkeypatch):
    """A frame's header and parts reach the socket transport in one call
    — one ``send()`` while its buffer is empty — on the gateway's loop
    and on the client's, however many chunk parts a response carries."""
    transport = asyncio.selector_events._SelectorSocketTransport
    calls: list[tuple[str, bytes]] = []
    nested = threading.local()

    def recording(method, as_bytes):
        # 3.11's writelines calls write: count the outermost call only.
        def record(self, data):
            outer = not getattr(nested, "inside", False)
            if outer:
                calls.append((threading.current_thread().name, as_bytes(data)))
            nested.inside = True
            try:
                return method(self, data)
            finally:
                nested.inside = not outer

        return record

    monkeypatch.setattr(transport, "write", recording(transport.write, bytes))
    monkeypatch.setattr(
        transport, "writelines", recording(transport.writelines, b"".join)
    )
    host, port = gateway.address()
    sent = [b"%05d" % i * 18 for i in range(400)]

    async def run():
        async with await AsyncGatewayClient.connect(host, port) as client:
            await client.create_stream(0, 2)
            producer = await AsyncProducer.open(client, 1, stream_id=0)
            for value in sent:
                producer.send(value)
            await producer.close()
            q_active, _, streamlets = await client.meta(0)
            positions = [
                FetchPosition(stream_id=0, streamlet_id=streamlet, entry=entry)
                for streamlet in streamlets
                for entry in range(q_active)
            ]
            got, chunks_per_entry = [], []
            while True:
                entries = await client.fetch(
                    positions, consumer_id=7, max_chunks_per_entry=4, max_wait=0
                )
                positions = [following for _, following, _ in entries]
                if not any(chunks for _, _, chunks in entries):
                    return got, chunks_per_entry
                chunks_per_entry.extend(len(chunks) for _, _, chunks in entries)
                for _, _, chunks in entries:
                    for chunk in chunks:
                        got.extend(chunk.records())

    got, chunks_per_entry = asyncio.run(run())
    # Responses carry several entries of several chunk parts each.
    assert sum(n >= 2 for n in chunks_per_entry) >= 4
    assert sorted(r.value for r in got) == sorted(sent)
    assert all(not r.keys and r.version is None and r.timestamp is None for r in got)

    client_thread = threading.current_thread().name
    kinds: dict[str, list[int]] = {"gateway-loop": [], client_thread: []}
    for thread, data in calls:
        kind, length = parse_frame_header(data, max_frame_bytes=1 << 30)
        assert len(data) == FRAME_HEADER_SIZE + length, (thread, kind, len(data))
        kinds.setdefault(thread, []).append(kind)
    assert kinds["gateway-loop"].count(protocol.GW_FETCH_OK) >= 2
    assert kinds[client_thread].count(protocol.GW_FETCH) >= 2


def test_pipelined_requests_multiplex_one_connection(gateway):
    host, port = gateway.address()

    async def run():
        async with await AsyncGatewayClient.connect(host, port) as client:
            await client.create_stream(0, 2)
            # Many in-flight requests on one connection: the reader
            # correlates by request id, not arrival order.
            metas = await asyncio.gather(*(client.meta(0) for _ in range(16)))
            assert all(m == metas[0] for m in metas)
            producers = [
                await AsyncProducer.open(client, pid, stream_id=0)
                for pid in range(4)
            ]
            for pid, producer in enumerate(producers):
                for i in range(20):
                    producer.send(f"p{pid}-r{i}".encode())
            results = await asyncio.gather(*(p.flush() for p in producers))
            assert all(result for result in results)

            consumer = await AsyncConsumer.open(client, 9, stream_id=0)
            records = await consumer.drain()
            values = [r.value for r in records]
            assert len(values) == 4 * 20
            assert len(set(values)) == len(values)

    asyncio.run(run())


def test_server_error_relayed_and_connection_survives(gateway):
    host, port = gateway.address()

    async def run():
        async with await AsyncGatewayClient.connect(host, port) as client:
            with pytest.raises(GatewayError):
                await client.meta(404)  # stream does not exist
            # The error addressed one request; the connection lives on.
            await client.create_stream(0, 2)
            assert (await client.meta(0))[2] != []

    asyncio.run(run())
    assert gateway.stats.errors_returned == 1


def test_garbage_connection_dropped_without_collateral(gateway):
    host, port = gateway.address()

    async def run():
        async with await AsyncGatewayClient.connect(host, port) as client:
            await client.create_stream(0, 2)
            # A connection speaking the wrong protocol is dropped cold...
            raw = socket.create_connection((host, port), timeout=10.0)
            try:
                raw.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
                raw.settimeout(10.0)
                assert raw.recv(64) == b""  # server closed, sent nothing
            finally:
                raw.close()
            # ...while framed neighbours keep working.
            assert (await client.meta(0))[2] != []

    asyncio.run(run())


def test_oversized_record_rejected_client_side(gateway):
    host, port = gateway.address()

    async def run():
        async with await AsyncGatewayClient.connect(host, port) as client:
            await client.create_stream(0, 1)
            producer = await AsyncProducer.open(client, 1, stream_id=0)
            # Same contract as the native producer: the chunk builder
            # rejects a record that cannot fit any chunk, client-side.
            with pytest.raises(WireFormatError, match="exceeds chunk capacity"):
                producer.send(b"x" * (2 * KB))

    asyncio.run(run())


def test_many_concurrent_connections_zero_loss(gateway):
    connections, records = 40, 20
    host, port = gateway.address()

    async def one_producer(pid: int) -> int:
        async with await AsyncGatewayClient.connect(host, port) as client:
            producer = await AsyncProducer.open(client, pid, stream_id=0)
            for i in range(records):
                producer.send(f"c{pid}-r{i}".encode())
            await producer.close()  # flushes
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
    assert gateway.stats.connections_accepted >= connections + 1
    assert gateway.stats.errors_returned == 0
    # The client side of every connection is closed, but the gauge drops
    # in the server loop's per-connection ``finally`` — which runs when
    # the loop next gets to it, not when the client returns.
    deadline = time.monotonic() + 5.0
    while gateway.stats.connections_open and time.monotonic() < deadline:
        time.sleep(0.01)
    assert gateway.stats.connections_open == 0
