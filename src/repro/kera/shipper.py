"""The pipelined replication shipper: one thread per broker.

Replaces the strictly synchronous ship loop (collect one batch → send to
every backup → wait → complete) with a pipeline:

* batches are issued with :meth:`Transport.call_async` — up to
  ``pipeline_depth`` RPCs per virtual log stay in flight, and acks
  arriving out of order are re-sequenced by the virtual log itself
  (``VirtualLog.complete_batch`` buffers them and applies durability in
  issue order);
* a :class:`~repro.replication.flow.FlowController` bounds unacked
  payload bytes (``ship_window_bytes``) — the credit-based backpressure
  that keeps a slow backup from buffering unbounded broker memory;
* an :class:`~repro.replication.flow.AdaptiveBatcher` decides when to
  linger (``ship_linger_s``): while appends trickle in below the current
  consolidation target the shipper waits briefly so the next RPC carries
  more chunks, and the target itself adapts to demand and to credit
  refusals.

Ack callbacks run on transport threads (worker or reaper); batch
completion is safe there because the broker core serializes all
structural mutation behind its reentrant mutex. A failed RPC or a ship to
a crashed node surfaces on :attr:`PipelinedShipper.error`, and every
produce still waiting on this broker is failed with it.

``stop()`` drains: the thread keeps collecting and shipping until nothing
is unshipped and no batch is in flight (bounded by a drain deadline), so
shutdown under load loses no acks and double-applies none.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.common.errors import ReplicationError
from repro.replication.flow import AdaptiveBatcher, FlowController
from repro.replication.virtual_log import ReplicationBatch

if TYPE_CHECKING:
    from repro.kera.broker import KeraBrokerCore
    from repro.kera.live import LiveKeraCluster


class _Flight:
    """One issued batch awaiting acks from its backups."""

    __slots__ = ("batch", "nbytes", "remaining", "resolved")

    def __init__(self, batch: ReplicationBatch, nbytes: int, backups: int) -> None:
        self.batch = batch
        self.nbytes = nbytes
        self.remaining = backups
        self.resolved = False


class PipelinedShipper(threading.Thread):
    """Drains a broker's ready batches to its backups, pipelined."""

    #: Idle re-poll period, a safety net should a kick ever be missed.
    _IDLE_POLL = 0.05
    #: How long ``stop()`` keeps draining in-flight work.
    _DRAIN_TIMEOUT = 5.0

    def __init__(self, cluster: "LiveKeraCluster", broker_id: int) -> None:
        super().__init__(name=f"kera-shipper-{broker_id}", daemon=True)
        self.cluster = cluster
        self.broker_id = broker_id
        config = cluster.config.replication
        self.flow = FlowController(config.ship_window_bytes)
        self.batcher = AdaptiveBatcher(linger_s=config.ship_linger_s)
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._drain_deadline = float("inf")
        self._flights_lock = threading.Lock()
        self._flights: dict[int, _Flight] = {}  # guarded-by: _flights_lock
        # Failed flights awaiting backup repair, queued by transport
        # threads and serviced on this thread (blocking repair RPCs on a
        # transport callback would deadlock the reaper/reader draining
        # its own responses). (batch, failed backup node, error) triples;
        # batch is None for proactive repairs with no failed flight.
        self._repairs: list[tuple[ReplicationBatch | None, int, BaseException]] = []  # guarded-by: _flights_lock
        self.error: BaseException | None = None

    # -- control --------------------------------------------------------------

    def kick(self) -> None:
        self._wake.set()

    def stop(self) -> None:
        self._drain_deadline = time.monotonic() + self._DRAIN_TIMEOUT
        self._stopping.set()
        self._wake.set()

    def halt(self, error: BaseException) -> None:
        """Stop shipping *without* draining and without failing the
        in-flight produces (the cluster fences a dead broker's shipper
        and fails its in-flight produces itself, with a typed routing
        error clients can retry on)."""
        if self.error is None:
            self.error = error
        self._wake.set()

    def in_flight_batches(self) -> int:
        with self._flights_lock:
            return len(self._flights)

    def repair_node(self, node: int) -> None:
        """Queue proactive repair for a dead backup (any thread): the
        shipper thread swaps the node out of every affected virtual
        segment and re-ships durable prefixes. Going through the shipper
        keeps all of a broker's replicate traffic on one thread, so a
        backup's per-vseg arrival order matches ship order."""
        with self._flights_lock:
            self._repairs.append(
                (None, node, ReplicationError(f"backup node {node} failed"))
            )
        self._wake.set()

    # -- main loop ------------------------------------------------------------

    def run(self) -> None:
        sleep = self._IDLE_POLL
        while True:
            self._wake.wait(timeout=sleep)
            self._wake.clear()
            if self.error is not None:
                return
            draining = self._stopping.is_set()
            try:
                self._service_repairs()
                sleep = self._pump(draining)
            except BaseException as exc:  # noqa: BLE001 - surfaced to producers
                self._fail(exc)
                return
            # Housekeeping for completion-driven produces: expire any
            # submissions past their ack deadline.
            self.cluster._sweep_async_produces(self.broker_id)
            if draining and (self._drained() or time.monotonic() >= self._drain_deadline):
                return

    def _drained(self) -> bool:
        with self._flights_lock:
            if self._flights:
                return False
        return self.cluster.brokers[self.broker_id].unshipped_chunks() == 0

    def _pump(self, draining: bool) -> float:
        core = self.cluster.brokers[self.broker_id]
        if not draining and self.batcher.linger_s > 0:
            delay = self.batcher.linger_delay(core.unshipped_chunks(), time.monotonic())
            if delay > 0:
                return delay
        for batch in core.collect_batches():
            self._issue(core, batch)
            if self.error is not None:
                break
        return self._IDLE_POLL

    def _service_repairs(self) -> None:
        """Repair after a fenced backup's ship failures (shipper thread).

        Aborts the earliest failed batch per virtual log (the rewind
        covers its later siblings), swaps the dead node out of every
        affected virtual segment, and re-ships the durable prefix to the
        replacement. Runs on this thread because repair issues blocking
        flow-credit waits and RPCs that must not run on transport
        callbacks.
        """
        with self._flights_lock:
            if not self._repairs:
                return
            repairs, self._repairs = self._repairs, []
        core = self.cluster.brokers[self.broker_id]
        # Earliest-issued failed batch per vlog: abort_batch(earliest)
        # rewinds the cursor past every later in-flight sibling too.
        earliest: dict[int, ReplicationBatch] = {}
        failed_nodes: list[int] = []
        for batch, node, _error in repairs:
            if node not in failed_nodes:
                failed_nodes.append(node)
            if batch is None or batch.repair:
                # Proactive repair (no failed flight), or a repair ship
                # that failed: durability was never revoked, so there is
                # nothing to abort; the node swap below emits fresh
                # repair batches.
                continue
            best = earliest.get(batch.vlog_id)
            if best is None or batch.issue_seq < best.issue_seq:
                earliest[batch.vlog_id] = batch
        for batch in earliest.values():
            # Aborting drops every later in-flight batch of the vlog;
            # their late acks must find their flights already resolved
            # (else they would complete_batch a dropped batch).
            with self._flights_lock:
                siblings = [
                    f
                    for f in self._flights.values()
                    if f.batch.vlog_id == batch.vlog_id
                    and not f.batch.repair
                    and f.batch.issue_seq >= batch.issue_seq
                ]
                for flight in siblings:
                    flight.resolved = True
                    self._flights.pop(flight.batch.batch_id, None)
            for flight in siblings:
                self.flow.release(flight.nbytes)
            try:
                core.abort_batch(batch)
            except ReplicationError:
                # Already dropped by an earlier sibling's abort (a late
                # failure callback queued after that abort ran): the
                # rewound cursor covers these references.
                continue
        for node in failed_nodes:
            # ReplicationError here is the typed cluster-too-small
            # refusal (not enough survivors for the copy count) and must
            # surface to producers, not be swallowed.
            for repair_batch in core.handle_backup_failure(node):
                self._issue(core, repair_batch)
        self._wake.set()

    # -- issue path -----------------------------------------------------------

    def _issue(self, core: "KeraBrokerCore", batch: ReplicationBatch) -> None:
        request = self.cluster.system.replicate_request(self.broker_id, batch)
        nbytes = request.payload_bytes()
        if not self.flow.try_acquire(nbytes):
            self.batcher.observe_backpressure()
            while not self.flow.acquire(nbytes, timeout=self._IDLE_POLL):
                if self._stopping.is_set() and time.monotonic() >= self._drain_deadline:
                    core.abort_batch(batch)
                    return
        flight = _Flight(batch, nbytes, len(batch.backups))
        with self._flights_lock:
            self._flights[batch.batch_id] = flight
        for backup in batch.backups:
            with self.cluster._failed_lock:
                failed = backup in self.cluster._failed
            if failed:
                self._resolve(
                    flight,
                    ReplicationError(f"replication to failed node {backup}"),
                    backup,
                )
                return
            try:
                self.cluster.transport.call_async(
                    self.broker_id,
                    backup,
                    "backup",
                    "replicate",
                    request,
                    nbytes,
                    on_done=lambda _resp, err, f=flight, b=backup: self._resolve(f, err, b),
                )
            except BaseException as exc:  # noqa: BLE001 - enqueue-side failure
                self._resolve(flight, exc, backup)
                return

    # -- ack path (transport threads) -----------------------------------------

    def _resolve(
        self,
        flight: _Flight,
        error: BaseException | None,
        backup: int | None = None,
    ) -> None:
        with self._flights_lock:
            if flight.resolved:
                return  # late ack for a batch already failed
            if error is None:
                flight.remaining -= 1
                if flight.remaining > 0:
                    return
            flight.resolved = True
            self._flights.pop(flight.batch.batch_id, None)
        if error is not None:
            self.flow.release(flight.nbytes)
            # Backup-loss is survivable: if the failover plane claims the
            # node (fences it cluster-wide), queue the batch for repair on
            # the shipper thread instead of killing this broker's pipeline.
            if backup is not None and self.cluster.report_backup_failure(backup, error):
                with self._flights_lock:
                    self._repairs.append((flight.batch, backup, error))
                self._wake.set()
                return
            self._fail(error)
            return
        if flight.batch.repair:
            # Repair batches re-ship an already-durable prefix to a
            # replacement backup; the virtual log forbids completing them
            # (durability was never revoked), so just return the credit.
            self.flow.release(flight.nbytes)
            self._wake.set()
            return
        try:
            # Safe on a transport thread: the core's reentrant mutex
            # serializes this against produces, and out-of-order acks are
            # re-sequenced inside the virtual log.
            self.cluster.brokers[self.broker_id].complete_batch(flight.batch)
        except BaseException as exc:  # noqa: BLE001 - surfaced to producers
            self.flow.release(flight.nbytes)
            self._fail(exc)
            return
        self.flow.release(flight.nbytes)
        self.batcher.observe_ship(len(flight.batch.refs), time.monotonic())
        # Freed credit / pipeline slot: let the shipper look again.
        self._wake.set()

    def _fail(self, error: BaseException) -> None:
        first = False
        if self.error is None:
            self.error = error
            first = True
        self._wake.set()
        if first:
            # Completion-driven produces have no thread to wake, so
            # fail them eagerly.
            self.cluster._on_shipper_error(self.broker_id, error)
