"""The ship core's thread shell: one per broker, on every live driver.

:class:`PipelinedShipper` runs the sans-IO
:class:`~repro.replication.ship_core.ShipCore` on real threads and owns
what the core must not: the one lock; the wake event and a thread for
what must not run on a caller (ack-driven re-pumps, queued repairs, the
ack-deadline sweep, the drain on :meth:`stop`); the drain deadline, its
only clock read; the blocking credit wait in
:meth:`FlowController.acquire`; and ``call_async``. :meth:`kick` pumps
on the appending thread unless a pump is running, so a produce appends,
ships and sends on the thread that submitted it; on the synchronous
driver, which starts no thread, that is all there is (DESIGN §9).
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.common.errors import ReplicationError
from repro.replication.flow import FlowController
from repro.replication.ship_core import Flight, ShipCore

if TYPE_CHECKING:
    from repro.kera.live import LiveKeraCluster


class PipelinedShipper(threading.Thread):
    """Ships a broker's ready batches to its backups, pipelined."""

    #: Sweep / drain-check period of a started shipper, and the credit
    #: wait's re-check period.
    _IDLE_POLL = 0.05
    #: How long ``stop()`` keeps draining in-flight work.
    _DRAIN_TIMEOUT = 5.0

    def __init__(self, cluster: "LiveKeraCluster", broker_id: int) -> None:
        super().__init__(name=f"kera-shipper-{broker_id}", daemon=True)
        self.cluster = cluster
        self.broker_id = broker_id
        self.flow = FlowController(cluster.config.replication.ship_window_bytes)
        self.core = ShipCore(cluster.brokers[broker_id], self, self.flow, threading.Lock())
        self._woken = threading.Event()
        self._drain_deadline = float("inf")
        #: Pump turns run by a kicking thread / by the shipper's thread.
        self.inline_pumps = 0
        self.thread_pumps = 0

    # -- control --------------------------------------------------------------

    def kick(self) -> None:
        """Pump on this thread, or leave the kick to a running pump."""
        self.core.pump()

    def pump(self) -> bool:
        """One call of :meth:`ShipCore.pump`."""
        return self.core.pump()

    def stop(self) -> None:
        self._drain_deadline = time.monotonic() + self._DRAIN_TIMEOUT
        self.core.draining = True
        self._woken.set()

    def halt(self, error: BaseException) -> None:
        """Stop shipping for good, without draining (a fence)."""
        self.core.halt(error)
        self._woken.set()

    @property
    def error(self) -> BaseException | None:
        """Why this shipper was halted (its broker was fenced), else None."""
        return self.core.error

    def in_flight_batches(self) -> int:
        return self.core.in_flight_batches()

    def repair_node(self, node: int) -> None:
        """Queue repair around a dead backup (any thread) for the shipper's
        thread — a repair blocks on credit — or pump it here if none."""
        self.core.repair(node)
        if self.ident is None:
            self.pump()
        else:
            self._woken.set()

    # -- the thread --------------------------------------------------------------

    def run(self) -> None:
        while self.core.error is None:
            # Pump when woken (an ack with a backlog behind it, a failed
            # call, a queued repair), never on the timeout alone: a failed
            # ship is retried when a produce asks for it, not every 50 ms.
            # The event is cleared only after a wake-up, so one landing
            # after a timeout survives to the next wait.
            woken = self._woken.wait(timeout=self._IDLE_POLL)
            draining = self.core.draining
            if woken:
                self._woken.clear()
            shipped = self.pump() if woken or draining else True
            # Housekeeping for completion-driven produces: expire any
            # submissions past their ack deadline.
            self.cluster._sweep_async_produces(self.broker_id)
            if draining and (
                not shipped
                or self._drained()
                or time.monotonic() >= self._drain_deadline
            ):
                return

    def _drained(self) -> bool:
        return self.in_flight_batches() == 0 and self.core.broker.pending_chunks() == 0

    # -- the core's actions ---------------------------------------------------------

    def send(self, flight: Flight) -> None:
        """Take credit, then submit the flight's call to each backup."""
        batch = flight.batch
        request = self.cluster.system.replicate_request(self.broker_id, batch)
        nbytes = request.payload_bytes()
        credited = self.flow.try_acquire(nbytes)
        while not credited:
            if self.core.draining and time.monotonic() >= self._drain_deadline:
                raise ReplicationError(
                    f"broker {self.broker_id}: drain deadline passed "
                    "waiting for replication credit"
                )
            credited = self.flow.acquire(nbytes, timeout=self._IDLE_POLL)
        flight.nbytes = nbytes
        core = self.core
        for backup in batch.backups:
            core.owe(flight, backup)
            if self.cluster.is_failed(backup):
                raise ReplicationError(f"replication to failed node {backup}")
            self.cluster.transport.call_async(
                self.broker_id,
                backup,
                "backup",
                "replicate",
                request,
                nbytes,
                on_done=lambda _resp, err, b=backup: core.resolve(flight, b, err),
            )

    def wake(self) -> None:
        self._woken.set()

    def claim_backup(self, node: int, error: BaseException) -> bool:
        return self.cluster.report_backup_failure(node, error)

    def fail_produces(self, error: BaseException) -> None:
        self.cluster._on_ship_failure(self.broker_id, error)

    def turn_started(self) -> None:
        if threading.current_thread() is self:
            self.thread_pumps += 1
        else:
            self.inline_pumps += 1
