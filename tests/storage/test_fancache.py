"""Fan-out chunk cache: LRU accounting, gauges, single admission under
concurrency, admission that decodes nothing, and retirement
invalidation."""

import threading

import pytest

from repro.common.errors import StorageError
from repro.storage.fancache import FanoutCache
from repro.wire.chunk import ChunkBuilder
from repro.wire.record import Record

VLOG = (1, 0, 0)


def make_frame(seq=0, n_records=4, value_size=32):
    builder = ChunkBuilder(1 << 16, stream_id=1, streamlet_id=0, producer_id=0)
    for _ in range(n_records):
        assert builder.try_append(Record(value=bytes([65 + seq % 26]) * value_size))
    return bytes(builder.build(chunk_seq=seq).wire)


def key_for(seq, vseg=0):
    return (VLOG, vseg, seq)


def test_miss_admits_then_hit_returns_same_view():
    cache = FanoutCache(1 << 20)
    frame = make_frame()
    loads = []

    def load():
        loads.append(1)
        return frame

    first = cache.get(key_for(0), load)
    second = cache.get(key_for(0), load)
    assert first is second
    assert len(loads) == 1  # load_frame ran once per cached lifetime
    assert first.verified  # admission re-validated the CRC
    assert first._records is None  # and decoded nothing
    assert first.records() == [Record(value=b"A" * 32)] * 4  # decoded on demand
    assert first.records() is first.records()  # memoized on the shared view
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.entries) == (1, 1, 1)
    assert stats.bytes_cached == first.size


def test_lru_evicts_oldest_and_promotes_on_hit():
    frames = [make_frame(seq) for seq in range(3)]
    # Room for exactly two of the (equal-size) frames.
    cache = FanoutCache(2 * len(frames[0]))
    cache.get(key_for(0), lambda: frames[0])
    cache.get(key_for(1), lambda: frames[1])
    cache.get(key_for(0), lambda: frames[0])  # promote 0 over 1
    cache.get(key_for(2), lambda: frames[2])  # evicts 1, the LRU entry
    assert cache.peek(key_for(1)) is None
    assert cache.peek(key_for(0)) is not None
    assert cache.peek(key_for(2)) is not None
    stats = cache.stats()
    assert stats.evictions == 1
    assert stats.entries == 2


def test_over_capacity_chunk_served_but_never_cached():
    frame = make_frame(value_size=256)
    cache = FanoutCache(len(frame) // 2)
    view = cache.get(key_for(0), lambda: frame)
    assert view.records()
    assert cache.entry_count == 0
    assert cache.stats().bytes_cached == 0


def test_invalidate_group_drops_only_that_vseg():
    cache = FanoutCache(1 << 20)
    for seq in range(3):
        cache.get(key_for(seq, vseg=0), lambda s=seq: make_frame(s))
    cache.get(key_for(0, vseg=1), lambda: make_frame(9))
    dropped = cache.invalidate_group(VLOG, 0)
    assert dropped == 3
    assert cache.peek(key_for(0, vseg=0)) is None
    assert cache.peek(key_for(0, vseg=1)) is not None
    # Byte accounting followed the drops.
    assert cache.stats().bytes_cached == cache.peek(key_for(0, vseg=1)).size


def test_failed_admission_clears_inflight_marker():
    cache = FanoutCache(1 << 20)
    calls = []

    def broken():
        calls.append(1)
        raise StorageError("backing bytes gone")

    with pytest.raises(StorageError):
        cache.get(key_for(0), broken)
    # The key is retryable: a later get becomes the owner and succeeds.
    view = cache.get(key_for(0), lambda: make_frame())
    assert view.records()
    assert len(calls) == 1


def test_concurrent_getters_decode_once():
    """N threads racing on the same cold key: one admission, every caller
    handed the same shared view object."""
    cache = FanoutCache(1 << 20)
    frame = make_frame()
    barrier = threading.Barrier(8)
    results = []
    errors = []

    def work():
        try:
            barrier.wait()
            for _ in range(50):
                results.append(cache.get(key_for(0), lambda: frame))
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert cache.decodes.value == 1
    assert len({id(v) for v in results}) == 1
    assert cache.stats().misses == 1
    assert cache.stats().hits == 8 * 50 - 1


def test_concurrent_distinct_keys_decode_each_once():
    cache = FanoutCache(1 << 20)
    frames = {seq: make_frame(seq) for seq in range(16)}
    barrier = threading.Barrier(4)
    errors = []

    def work(worker):
        try:
            barrier.wait()
            for round_ in range(20):
                for seq in range(16):
                    view = cache.get(key_for(seq), lambda s=seq: frames[s])
                    assert view.record_count == 4
        except BaseException as exc:  # noqa: BLE001 - collected for the assert
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert cache.decodes.value == 16  # one admission per distinct hot chunk


def test_admission_constructs_no_record_or_record_view(monkeypatch):
    """Admission checks the frame CRC and nothing else: no RecordView is
    built and no Record is materialized until a reader asks."""
    from repro.wire import record as record_module
    from repro.wire import views as views_module

    built = []
    real_view_init = views_module.RecordView.__init__

    def counting_view_init(self, *args, **kwargs):
        built.append("RecordView")
        real_view_init(self, *args, **kwargs)

    def counting_record(*args, **kwargs):
        built.append("Record")
        return Record(*args, **kwargs)

    monkeypatch.setattr(views_module.RecordView, "__init__", counting_view_init)
    monkeypatch.setattr(record_module, "Record", counting_record)
    monkeypatch.setattr(views_module, "Record", counting_record)
    frames = {seq: make_frame(seq, n_records=40) for seq in range(4)}
    frames[4] = make_frame(4, n_records=3)  # below the vectorized decoder's floor
    cache = FanoutCache(1 << 20)
    views = [cache.get(key_for(seq), lambda s=seq: frames[s]) for seq in frames]
    assert all(view.verified for view in views)
    assert cache.decodes.value == len(frames)
    assert built == []
    # The first reader pays for the records, once, on the shared view.
    assert len(views[0].records()) == 40
    assert len(views[4].records()) == 3
    assert built.count("Record") == 43
    views[0].records()
    assert built.count("Record") == 43


def test_capacity_must_be_positive():
    with pytest.raises(StorageError):
        FanoutCache(0)
