"""Shared hot-chunk cache for consumer fan-out.

When N consumer groups read the same stream, the seed-era fetch path did
the expensive part — CRC re-validation at the serving boundary plus
record decode — once *per consumer*, so aggregate read cost grew linearly
with fan-out. This module gives the broker one shared LRU cache of
verified :class:`~repro.wire.views.ChunkView` entries keyed by the
chunk's virtual address ``(vlog, vseg, chunk)``:

* **vlog** — the virtual log the chunk's group replicates through,
  identified by ``(stream_id, streamlet_id, entry)``;
* **vseg** — the virtual segment, i.e. the group id;
* **chunk** — the chunk's position within the group, in append order.

Admission does the per-chunk work exactly once, *outside* the cache lock:
the owning fetcher validates the frame CRC, earning the view's
``verified`` bit for every later reader in this address space. It
decodes nothing — the gateway relays the frame verbatim and
``poll_views()`` walks record views — so a reader that does want
:class:`~repro.wire.record.Record` objects pays for them on its first
``view.records()`` call, memoized on the shared view. A hit is a dict
probe plus an LRU touch. Concurrent fetchers of the same missing chunk
coordinate through a per-key :class:`threading.Event`: one builds, the
rest wait, nobody validates twice (asserted by the fan-out concurrency
tests).

Eviction is byte-budgeted LRU. Retirement invalidates: when a group's
segments are reclaimed the broker drops the group's entries so no
consumer can be served frames whose backing memory was freed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass

from repro.common.errors import StorageError
from repro.common.metrics import Gauge
from repro.wire.views import ChunkView

#: ``(vlog, vseg, chunk)``: ((stream_id, streamlet_id, entry), group_id,
#: chunk position within the group).
CacheKey = tuple[tuple[int, int, int], int, int]


@dataclass(frozen=True, slots=True)
class FanoutCacheStats:
    """Point-in-time snapshot of the cache gauges."""

    hits: int
    misses: int
    evictions: int
    entries: int
    bytes_cached: int


class FanoutCache:
    """Byte-budgeted LRU of verified chunk views, safe for fan-out.

    ``get`` is the only hot-path entry point; everything else is control
    plane (retirement invalidation, tests, stats).
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise StorageError("fan-out cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self._lock = threading.Lock()
        #: Cached views in LRU order (oldest first).
        self._entries: OrderedDict[CacheKey, ChunkView] = OrderedDict()  # guarded-by: _lock  # borrows: segment-buffers -- invalidate_group drops entries before their backing segment memory is retired
        #: In-flight admissions: key -> event set once the build resolves.
        self._building: dict[CacheKey, threading.Event] = {}  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        #: Observability gauges (each thread-safe on its own; updated once
        #: per get/eviction, so the hot path pays one extra lock).
        self.hits = Gauge()
        self.misses = Gauge()
        self.evictions = Gauge()
        self.bytes_cached = Gauge()
        #: Admissions (frames validated). The name predates admission
        #: dropping its record decode and is kept: the fan-out tests and
        #: the benchmark's ``storage.fancache_decodes`` compare it against
        #: the number of distinct hot chunks to pin single admission.
        self.decodes = Gauge()

    # -- hot path ------------------------------------------------------------

    def get(self, key: CacheKey, load_frame: Callable[[], memoryview | bytes]) -> ChunkView:
        """Return the verified view for ``key``, admitting it if absent.

        ``load_frame`` resolves the encoded frame bytes (typically a
        zero-copy view of the segment buffer); it runs at most once per
        cached lifetime of the key, outside the cache lock, on the thread
        that lost the race to find the entry. Concurrent callers for the
        same key block on the owner's build instead of validating again.
        """
        event: threading.Event | None = None
        while True:
            pending: threading.Event | None = None
            with self._lock:
                view = self._entries.get(key)
                if view is not None:
                    self._entries.move_to_end(key)
                    self.hits.add(1)
                    return view
                pending = self._building.get(key)
                if pending is None:
                    event = threading.Event()
                    self._building[key] = event
            if pending is not None:
                # Someone else is admitting this chunk: wait, then re-probe.
                # A failed build clears the in-flight marker, so the retry
                # can become the owner rather than spinning.
                pending.wait()
                continue
            assert event is not None  # we registered as the build owner
            try:
                view = self._admit(key, load_frame)
            except BaseException:
                with self._lock:
                    del self._building[key]
                event.set()
                raise
            with self._lock:
                del self._building[key]
                size = view.size
                if size <= self.capacity_bytes:
                    self._entries[key] = view
                    self._bytes += size
                    while self._bytes > self.capacity_bytes:
                        _, evicted = self._entries.popitem(last=False)
                        self._bytes -= evicted.size
                        self.evictions.add(1)
                    self.bytes_cached.set(self._bytes)
                # An over-capacity chunk is served but never cached.
                self.misses.add(1)
            event.set()
            return view

    def _admit(self, key: CacheKey, load_frame: Callable[[], memoryview | bytes]) -> ChunkView:
        """The once-per-chunk work: the frame CRC at the serving boundary.
        No record is decoded here; ``view.records()`` decodes on demand."""
        view = ChunkView(load_frame())
        view.verify_payload()
        self.decodes.add(1)
        return view

    # -- control plane -------------------------------------------------------

    def peek(self, key: CacheKey) -> ChunkView | None:
        """Non-admitting, non-LRU-touching probe (tests, and the broker's
        would-this-fetch-admit check)."""
        with self._lock:
            return self._entries.get(key)

    def invalidate_group(self, vlog: tuple[int, int, int], vseg: int) -> int:
        """Drop every cached chunk of one virtual segment (its group was
        retired and the backing segment memory freed); return the count."""
        with self._lock:
            stale = [k for k in self._entries if k[0] == vlog and k[1] == vseg]
            for k in stale:
                self._bytes -= self._entries.pop(k).size
            self.bytes_cached.set(self._bytes)
            return len(stale)

    def clear(self) -> None:
        """Empty the cache (tests and cold-start benchmarking)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self.bytes_cached.set(0)

    @property
    def entry_count(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> FanoutCacheStats:
        with self._lock:
            entries = len(self._entries)
            cached = self._bytes
        return FanoutCacheStats(
            hits=self.hits.value,
            misses=self.misses.value,
            evictions=self.evictions.value,
            entries=entries,
            bytes_cached=cached,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"FanoutCache(entries={s.entries}, bytes={s.bytes_cached}/"
            f"{self.capacity_bytes}, hits={s.hits}, misses={s.misses})"
        )
