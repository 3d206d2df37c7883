"""BackupService: one node's backup core behind ``handle(method, request)``.

A node's only transport binding. Shippers send it ``replicate``; the
failure detector pings an idle node; the operator surface (recovery
reads, restart loads, forced flushes, stats) sends everything else —
all through the transport, so whatever hosts the service (the inproc transport inline, a
threaded transport's single ``backup@N`` worker, a worker process behind
a ring or a socket) the core only ever sees one caller at a time.

With secondary storage and ``async_flush`` the service owns a flusher
thread: flush work is submitted and the ack returns without touching the
disk — the paper's ack-from-buffer, flush-async semantics. Without
``async_flush`` (inproc driver) flushes run inline, keeping that driver
single-threaded and deterministic.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.common.errors import ConfigError
from repro.persist import BackupFlusher
from repro.runtime.transport import LiveService
from repro.kera.backup import FlushWork, KeraBackupCore


class BackupService(LiveService):
    """Core + optional flusher + one dispatch + ``close()``."""

    def __init__(self, core: KeraBackupCore, *, async_flush: bool) -> None:
        self.core = core
        self.flushes = 0
        self._lock = threading.Lock()
        self._closed = False
        self.flusher: BackupFlusher[FlushWork] | None = None
        if async_flush and core.persistence is not None:
            self.flusher = BackupFlusher(
                core.persist,
                name=f"backup-flusher-{core.node_id}",
                on_tick=core.tick_persistence,
            )

    @classmethod
    def in_worker(cls, **core_kwargs: Any) -> "BackupService":
        """Worker-process factory: built *in the child*, which therefore
        owns the core's segments, flush accounting, disk files and
        flusher thread outright."""
        return cls(KeraBackupCore(**core_kwargs), async_flush=True)

    def handle(self, method: str, request: Any) -> Any:
        op = getattr(self, f"_op_{method}", None)
        if op is None:
            raise ConfigError(f"unknown backup method {method!r}")
        with self._lock:
            return op(request)

    def _schedule(self, works: list[FlushWork]) -> None:
        self.flushes += len(works)
        for work in works:
            if self.flusher is not None:
                self.flusher.submit(work, work.nbytes)
            else:
                self.core.persist(work)

    # -- operations (each runs under the service lock) --------------------------

    def _op_replicate(self, request: Any) -> Any:
        response, flush = self.core.handle_replicate(request)
        works = self.core.take_sealed_flushes()
        if flush is not None:
            works.append(flush)
        if works:
            self._schedule(works)
        return response

    def _op_ping(self, _request: Any) -> int:
        """The failure detector's lease probe for an idle node."""
        return self.core.node_id

    def _op_stats(self, _request: Any) -> dict[str, int]:
        store = self.core.store
        return {
            "chunks_received": store.chunks_received,
            "batches_received": store.batches_received,
            "bytes_held": store.bytes_held,
            "bytes_in_memory": store.bytes_in_memory,
            "segment_count": store.segment_count,
            "spilled_segments": store.spilled_segments,
            "flushes": self.flushes,
            "flush_lag_bytes": (
                0 if self.flusher is None else self.flusher.flush_lag_bytes
            ),
            "segments_on_disk": self.core.segments_on_disk,
        }

    def _op_flush_idle(self, _request: Any) -> bool:
        """Whether the flush queue is drained (re-raises a latched
        flusher failure)."""
        return self.flusher is None or self.flusher.wait_idle(0)

    def _op_sync_flush(self, _request: Any) -> int:
        """Drain every unflushed tail through the flusher, wait, fsync."""
        self._schedule(self.core.drain_flush())
        if self.flusher is not None:
            self.flusher.wait_idle(30.0)
        if self.core.persistence is not None:
            self.core.persistence.sync_all()
        return self.core.segments_on_disk

    def _op_recovery_chunks(self, failed_broker: int) -> Any:
        return self.core.recovery_chunks(int(failed_broker))

    def _op_load_disk(self, parallel: int) -> dict[str, Any]:
        report = self.core.load_from_disk(parallel=int(parallel))
        return {
            "segments": len(report.segments),
            "chunks_loaded": report.chunks_loaded,
            "bytes_truncated": report.bytes_truncated,
            "files_scanned": report.files_scanned,
            "files_skipped": report.files_skipped,
            "files_superseded": report.files_superseded,
            "indexes_rebuilt": report.indexes_rebuilt,
            "epochs_loaded": list(report.epochs_loaded),
        }

    def _op_loaded_brokers(self, _request: Any) -> list[int]:
        return self.core.loaded_brokers()

    def _op_disk_recovery_chunks(self, failed_broker: int) -> Any:
        return self.core.disk_recovery_chunks(int(failed_broker))

    def _op_retire_epochs(self, _request: Any) -> bool:
        self.core.retire_loaded_epochs()
        return True

    def _op_drop_broker(self, failed_broker: int) -> int:
        return self.core.store.drop_broker(int(failed_broker))

    # -- lifecycle ----------------------------------------------------------------

    def close(self, *, drain: bool = True) -> None:
        """Shutdown hook, called once the host stopped delivering
        requests (the transport is down, or the worker's pipe is closed
        and drained): flush the tail, stop the flusher, close the
        segment files — a clean close syncs unless the policy is
        ``never``. ``drain=False`` is the power-loss hook: queued flush
        work is dropped and files keep exactly what the fsync policy
        already pushed."""
        if self._closed:
            return
        self._closed = True
        if not drain:
            if self.flusher is not None:
                self.flusher.stop(drain=False)
            return
        self._schedule(self.core.drain_flush())
        if self.flusher is not None:
            self.flusher.stop(drain=True)
        self.core.close_persistence()
