"""Threaded KerA cluster: the concurrent live mode.

Every (node, service) binding runs on its own worker threads behind a
bounded request queue (:class:`repro.runtime.ThreadedTransport`), each
broker additionally drives push replication from a dedicated *shipper*
thread, and real concurrent producers/consumers push real bytes — the
configuration that proves the sans-IO cores are thread-safe under
contention.

Concurrency design, mirroring the simulator's model:

* **per-sub-partition locks** in the broker service serialize whole
  produce requests that touch the same ``(stream, streamlet, entry)``
  sub-partition (Q > 1 lets distinct producers append in parallel) and,
  because a producer's retransmissions land on the same sub-partition,
  make duplicate detection race-free;
* the broker core's internal mutex keeps each request's append +
  replication registration atomic, so virtual-log reference order always
  matches segment append order (the invariant
  ``mark_chunk_durable`` enforces);
* a produce handler whose chunks are not yet durable parks on a
  completion event — registered with the runtime's
  :class:`CompletionTracker`, fired by the shipper thread when the
  replicate acks return; the backup service runs single-worker, keeping
  each backup core single-threaded.
"""

from __future__ import annotations

import threading

from repro.common.errors import ConfigError, NotLeaderError, ReplicationError, RpcError
from repro.runtime.threaded import ThreadedTransport
from repro.runtime.transport import LiveService, Transport
from repro.kera.config import KeraConfig
from repro.kera.live import LiveKeraCluster
from repro.kera.messages import ProduceRequest
from repro.kera.shipper import PipelinedShipper


class _ThreadedBrokerService(LiveService):
    """Broker wrapper for worker threads: lock, append, kick, park."""

    def __init__(self, cluster: "ThreadedKeraCluster", node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.core = cluster.brokers[node_id]
        self._locks_guard = threading.Lock()
        self._locks: dict[tuple[int, int, int], threading.Lock] = {}  # guarded-by: _locks_guard
        self._fenced = False  # set once by fence(); never cleared

    def _lock(self, key: tuple[int, int, int]) -> threading.Lock:
        with self._locks_guard:
            lock = self._locks.get(key)
            if lock is None:
                lock = self._locks[key] = threading.Lock()
            return lock

    def fence(self) -> None:
        """Stop serving: every subsequent request gets a typed routing
        error. One-way — a fenced broker never comes back under the same
        identity (its streamlets move to survivors)."""
        self._fenced = True

    def _refuse(self, request: object) -> NotLeaderError:
        stream_id, streamlet_id = -1, -1
        chunks = getattr(request, "chunks", None)
        if chunks:
            stream_id = chunks[0].stream_id
            streamlet_id = chunks[0].streamlet_id
        else:
            positions = getattr(request, "positions", None)
            if positions:
                stream_id = positions[0].stream_id
                streamlet_id = positions[0].streamlet_id
        leader: int | None = None
        if stream_id >= 0:
            try:
                current = self.cluster.leader_of(stream_id, streamlet_id)
            except Exception:  # noqa: BLE001 - stream unknown mid-recovery
                current = self.node_id
            if current != self.node_id:
                leader = current  # recovery already committed new routing
        return NotLeaderError(stream_id, streamlet_id, leader)

    def handle(self, method: str, request: object) -> object:
        if method == "ping":
            if self._fenced:
                raise RpcError(f"broker {self.node_id} is fenced")
            return self.node_id
        if self._fenced:
            raise self._refuse(request)
        if method == "produce":
            return self._produce(request)
        if method == "produce_async":
            return self._produce_async(request)
        if method == "fetch":
            return self.core.handle_fetch(request)
        raise ConfigError(f"unknown broker method {method!r}")

    def _append(self, request: ProduceRequest) -> object:
        # Per-sub-partition serialization, exactly as the sim driver
        # models it: every (stream, streamlet, entry) sub-partition the
        # request touches is locked — in sorted order, so two requests
        # with overlapping footprints can never deadlock.
        q = self.cluster.config.storage.q_active_groups
        keys = sorted(
            {(c.stream_id, c.streamlet_id, c.producer_id % q) for c in request.chunks}
        )
        locks = [self._lock(key) for key in keys]
        for lock in locks:
            lock.acquire()
        try:
            return self.core.handle_produce(request)
        finally:
            for lock in reversed(locks):
                lock.release()

    def _produce_async(self, request: ProduceRequest) -> object:
        """Completion-driven produce: append, kick the shipper, and
        return the whole outcome — the *caller* (``submit_produce``)
        registers with the completion tracker, so no worker thread parks
        here waiting for replication acks."""
        outcome = self._append(request)
        self.cluster.shipper(self.node_id).kick()
        return outcome

    def _produce(self, request: ProduceRequest) -> object:
        outcome = self._append(request)
        done: threading.Event | None = None
        if outcome.pending:
            done = threading.Event()
            if self.cluster.runtime.completion.register(
                self.node_id, request.request_id, done.set
            ):
                done.set()
        shipper = self.cluster.shipper(self.node_id)
        shipper.kick()
        if done is not None and not done.wait(self.cluster.ack_timeout):
            if shipper.error is not None:
                raise ReplicationError(
                    f"replication shipper for broker {self.node_id} failed: "
                    f"{shipper.error!r}"
                )
            raise ReplicationError(
                f"request {request.request_id} not durable within "
                f"{self.cluster.ack_timeout}s"
            )
        return outcome.response


class ThreadedKeraCluster(LiveKeraCluster):
    """A KerA cluster with every node's services on their own threads."""

    #: The transport built when none is passed in.
    _transport_class: type[ThreadedTransport] = ThreadedTransport

    def __init__(
        self,
        config: KeraConfig | None = None,
        *,
        produce_workers: int = 4,
        queue_depth: int = 128,
        call_timeout: float = 30.0,
        ack_timeout: float = 10.0,
        transport: Transport | None = None,
    ) -> None:
        self.ack_timeout = ack_timeout
        self._shippers: dict[int, PipelinedShipper] = {}
        self._broker_services: dict[int, _ThreadedBrokerService] = {}
        super().__init__(
            config,
            transport
            or self._transport_class(
                queue_depth=queue_depth,
                workers_per_service=produce_workers,
                call_timeout=call_timeout,
            ),
        )
        for node in self.system.node_ids:
            shipper = PipelinedShipper(self, node)
            self._shippers[node] = shipper
            shipper.start()

    def _broker_service(self, node_id: int) -> object:
        service = _ThreadedBrokerService(self, node_id)
        self._broker_services[node_id] = service
        return service

    def _backup_binding(self, node_id: int) -> object:
        # A live object whose flusher thread owns the disk (the service
        # acks from the buffer); worker-process drivers return a spec.
        return self._local_backup(node_id, async_flush=True)

    def shipper(self, broker_id: int) -> PipelinedShipper:
        return self._shippers[broker_id]

    def _shipper_error(self, broker_id: int) -> BaseException | None:
        shipper = self._shippers.get(broker_id)
        return shipper.error if shipper is not None else None

    def _fence_broker_service(self, node_id: int) -> None:
        service = self._broker_services.get(node_id)
        if service is not None:
            service.fence()
        shipper = self._shippers.get(node_id)
        if shipper is not None:
            shipper.halt(
                ReplicationError(f"broker {node_id} fenced by failover")
            )

    def repair_backups_for(self, failed_node: int) -> None:
        # Queue the repair on each survivor's shipper thread rather than
        # sending from here: a backup's per-vseg arrival order must match
        # the one shipper's issue order, or later recovery merges would
        # see interleaved (diverging) runs.
        with self._failed_lock:
            failed = set(self._failed)
        for survivor_id, shipper in self._shippers.items():
            if survivor_id in failed or shipper.error is not None:
                continue
            shipper.repair_node(failed_node)

    def shutdown(self) -> None:
        for shipper in self._shippers.values():
            shipper.stop()
        for shipper in self._shippers.values():
            shipper.join(timeout=5.0)
        super().shutdown()
