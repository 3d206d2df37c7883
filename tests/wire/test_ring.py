"""SPSC ring: framing, wrap-around pads, credit, close/drain contract."""

import pytest

from repro.common.errors import RpcError
from repro.wire.ring import HEADER_SIZE, RECORD_HEADER, RingClosed, SpscRing


def make_ring(capacity=256):
    return SpscRing(bytearray(HEADER_SIZE + capacity), reset=True)


def test_roundtrip_single_record():
    ring = make_ring()
    assert ring.try_write(1, [b"hello ", b"world"])
    kind, view = ring.try_read()
    assert kind == 1
    assert bytes(view) == b"hello world"
    ring.consume()
    assert ring.try_read() is None
    assert ring.free_bytes == ring.capacity


def test_zero_copy_view_aliases_ring():
    ring = make_ring()
    ring.try_write(7, [b"abc"])
    _, view = ring.try_read()
    assert isinstance(view, memoryview)
    ring.consume()


def test_fifo_order_many_records():
    ring = make_ring(1024)
    for i in range(10):
        assert ring.try_write(2, [bytes([i]) * (i + 1)])
    for i in range(10):
        kind, view = ring.try_read()
        assert kind == 2
        assert bytes(view) == bytes([i]) * (i + 1)
        ring.consume()
    assert ring.try_read() is None


def test_full_ring_refuses_then_recovers():
    ring = make_ring(64)
    payload = b"x" * 24  # 8 header + 24 = 32 per record
    assert ring.try_write(1, [payload])
    assert ring.try_write(1, [payload])
    assert not ring.try_write(1, [payload])  # full
    assert ring.free_bytes == 0
    ring.try_read()
    ring.consume()
    assert ring.try_write(1, [payload])


def test_wraparound_inserts_pad():
    ring = make_ring(64)
    # First record takes 40 bytes; after consuming it the next 40-byte
    # record would straddle the wrap point — the writer pads and wraps.
    assert ring.try_write(1, [b"a" * 32])
    ring.try_read()
    ring.consume()
    assert ring.try_write(1, [b"b" * 32])
    kind, view = ring.try_read()
    assert kind == 1
    assert bytes(view) == b"b" * 32
    ring.consume()
    # Sustained traffic across many wraps stays intact.
    for i in range(100):
        n = (i % 3) * 8 + 4
        assert ring.write(3, [bytes([i % 251]) * n], timeout=1.0)
        kind, view = ring.try_read()
        assert (kind, bytes(view)) == (3, bytes([i % 251]) * n)
        ring.consume()


def test_oversized_record_rejected():
    ring = make_ring(64)
    with pytest.raises(RpcError):
        ring.try_write(1, [b"x" * 100])


def test_pad_kind_reserved():
    ring = make_ring()
    with pytest.raises(RpcError):
        ring.try_write(0, [b"nope"])


def test_consume_without_peek_rejected():
    ring = make_ring()
    with pytest.raises(RpcError):
        ring.consume()


def test_close_then_drain():
    ring = make_ring()
    ring.try_write(1, [b"queued"])
    ring.close()
    with pytest.raises(RingClosed):
        ring.try_write(1, [b"late"])
    # Queued records still drain after close.
    kind, view = ring.read(timeout=0.1)
    assert (kind, bytes(view)) == (1, b"queued")
    ring.consume()
    assert ring.read(timeout=0.1) is None


def test_write_timeout_when_full():
    ring = make_ring(32)
    assert ring.try_write(1, [b"x" * 24])
    assert not ring.write(1, [b"x" * 24], timeout=0.02)


def test_credit_tracks_free_bytes():
    ring = make_ring(128)
    assert ring.free_bytes == 128
    ring.try_write(1, [b"x" * 8])
    assert ring.free_bytes == 128 - RECORD_HEADER - 8
    ring.try_read()
    ring.consume()
    assert ring.free_bytes == 128


def test_shared_view_two_ring_objects():
    # Reader and writer attach separate SpscRing objects over the same
    # buffer, as two processes do over one shared-memory block.
    buf = bytearray(HEADER_SIZE + 256)
    writer = SpscRing(buf, reset=True)
    reader = SpscRing(buf)
    writer.try_write(5, [b"cross-process"])
    kind, view = reader.try_read()
    assert (kind, bytes(view)) == (5, b"cross-process")
    reader.consume()
    assert writer.free_bytes == writer.capacity


def _flood(name, seconds):
    """Writer process for the cross-process stress test below."""
    import time
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    ring = SpscRing(shm.buf)
    deadline = time.monotonic() + seconds
    seq = 0
    while time.monotonic() < deadline:
        size = (20, 64, 300, 5000)[seq % 4]
        payload = seq.to_bytes(8, "little") + bytes([seq & 0xFF]) * (size - 8)
        if not ring.write(2, [payload], timeout=10.0):
            break
        seq += 1
    ring.close()
    del ring
    shm.close()


def _drain_all(rings):
    """Round-robin over ``rings`` until each is closed and empty; checks
    every record and returns how many each ring delivered."""
    expect = [0] * len(rings)
    live = set(range(len(rings)))
    while live:
        for index in sorted(live):
            ring = rings[index]
            record = ring.try_read()
            if record is None:
                if ring.closed and ring.try_read() is None:
                    live.discard(index)
                continue
            kind, view = record
            seq = int.from_bytes(view[:8], "little")
            assert (kind, seq) == (2, expect[index])
            assert view[8] == seq & 0xFF and len(view) in (20, 64, 300, 5000)
            expect[index] += 1
            del view, record
            ring.consume()
            assert ring.pending_bytes >= 0
    return expect


def test_counters_never_read_torn_across_processes():
    """More writer processes than cores, each flooding its own small
    ring while this process drains them all: every record arrives whole
    and in order, and no reader ever runs past its writer.

    Regression: the counters used to be stored with ``struct.pack_into``,
    which zeroes the destination before writing — a reader on another
    core could catch ``head == 0``, take unwritten bytes for a record
    header and launch ``tail`` far past ``head`` (seen as workers that
    never drained at shutdown, under load).
    """
    import multiprocessing
    from multiprocessing import shared_memory

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("writer processes are forked from this module")
    ctx = multiprocessing.get_context("fork")
    blocks = [shared_memory.SharedMemory(create=True, size=64 + 32 * 1024) for _ in range(3)]
    rings = [SpscRing(block.buf, reset=True) for block in blocks]
    writers = [ctx.Process(target=_flood, args=(block.name, 1.0), daemon=True) for block in blocks]
    try:
        for writer in writers:
            writer.start()
        delivered = _drain_all(rings)
        for writer in writers:
            writer.join(timeout=10.0)
            assert not writer.is_alive()
        assert all(count > 0 for count in delivered)
    finally:
        for writer in writers:
            if writer.is_alive():
                writer.terminate()
        rings.clear()
        for block in blocks:
            block.close()
            block.unlink()
