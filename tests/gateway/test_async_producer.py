"""AsyncProducer sealing: a flush touches only the streamlets that hold
something, and what it puts on the wire did not change.

No server: a capturing stand-in for :class:`AsyncGatewayClient` encodes
each produce exactly as the real client does.
"""

import asyncio
import hashlib

import pytest

from repro.gateway import AsyncProducer, protocol

#: sha256 over every produce frame of ``golden_input``, taken from the
#: commit before flush kept a dirty set (it sealed every builder it had
#: ever created, in creation order).
GOLDEN = "d9906e648be6dda078a23ec1aebc2f04adfc1eaf2ecc3c79278db523f2eec79f"


class CapturingClient:
    def __init__(self):
        self.frames = []

    async def produce(self, chunks, *, producer_id):
        parts = protocol.encode_produce(
            len(self.frames), producer_id, [chunk.wire for chunk in chunks]
        )
        self.frames.append(b"".join(bytes(part) for part in parts))
        return []


def make_producer(client, max_inflight=1):
    return AsyncProducer(
        client,
        7,
        stream_id=3,
        chunk_size=1024,
        streamlet_ids=list(range(32)),
        max_inflight=max_inflight,
    )


async def golden_input(producer):
    """Sticky keyless batches that rotate over the streamlets, plus keyed
    and pinned sends that create builders out of streamlet-id order."""
    for rnd in range(6):
        producer.send_many(
            [b"%04d-%04d" % (rnd, i) + b"x" * 55 for i in range(40 + 13 * rnd)]
        )
        producer.send(b"keyed-%d" % rnd, keys=(b"k%d" % rnd,))
        producer.send(b"pinned-%d" % rnd, streamlet_id=(29 - 5 * rnd) % 32)
        await producer.flush()
    await producer.close()


@pytest.mark.parametrize("max_inflight", [1, 4])
def test_produce_frames_are_byte_identical_to_the_full_scan(max_inflight):
    client = CapturingClient()
    asyncio.run(golden_input(make_producer(client, max_inflight)))
    assert len(client.frames) == 6
    assert hashlib.sha256(b"".join(client.frames)).hexdigest() == GOLDEN


def test_flush_drains_only_the_streamlet_that_holds_records():
    async def run():
        producer = make_producer(CapturingClient())
        # Touch all 32 streamlets once, so every builder exists.
        for streamlet in producer.streamlet_ids:
            producer.send(b"warm", streamlet_id=streamlet)
        await producer.flush()
        assert not producer._dirty

        drains = []
        drain = producer._drain_pending
        producer._drain_pending = lambda s: (
            drains.append((s, len(producer._pending[s]))),
            drain(s),
        )
        producer.send_many([b"v%03d" % i for i in range(20)])
        await producer.flush()
        # One call, and it found the batch (the old scan made 32, 31 empty).
        assert drains == [(producer.streamlet_ids[0], 20)]
        await producer.flush()
        assert len(drains) == 1
        assert producer.records_sent == 32 + 20

    asyncio.run(run())
