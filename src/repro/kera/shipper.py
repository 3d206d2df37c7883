"""The replication ship loop: one per broker, the same on every driver.

:class:`PipelinedShipper` is the only code outside the simulator that
collects a broker's ready batches, builds and sends their replicate
calls, resolves the acks, returns their credit, repairs after a backup
loss and decides what a ship failure means. :meth:`PipelinedShipper.pump`
runs the loop's turns; in one turn

* failed flights are un-issued and dead backups repaired around, *then*
  ``collect_batches()`` runs, again and again until nothing is
  collectible;
* batches are issued with :meth:`Transport.call_async` — up to
  ``pipeline_depth`` RPCs per virtual log stay in flight, and acks
  arriving out of order are re-sequenced by the virtual log itself
  (``VirtualLog.complete_batch`` buffers them and applies durability in
  issue order);
* a :class:`~repro.replication.flow.FlowController` bounds unacked
  payload bytes (``ship_window_bytes``) — the credit-based backpressure
  that keeps a slow backup from buffering unbounded broker memory.

Consolidation is by back-pressure, not by a timer: references accumulate
while a virtual log's slots (or the credit window) are busy, and the
next batch carries all of them.

Who calls the pump: the thread that appended. :meth:`kick` pumps on the
kicking thread when no pump is running — a produce appends, ships and
sends on the thread that submitted it — and otherwise marks the kick for
the thread that holds the pump and returns at once (never blocked, never
lost: see :meth:`pump`). On the synchronous driver that is all there is
(every flight resolves before ``call_async`` returns, so a produce is
durable when its append call returns). A started shipper also has a
thread for what must not run on a caller — re-pumping when an ack frees
a slot with a backlog behind it, queued repairs (they block on credit;
their trigger arrives on a transport callback), the ack-deadline sweep,
the drain on ``stop()``: acks, ``repair_node`` and ``stop()`` wake it,
never pump. Ack callbacks run wherever the transport runs them; batch
completion is safe there because the broker core serializes all
structural mutation behind its reentrant mutex.

**A ship failure has one meaning.** A replicate call that fails, a send
to a failed node, a batch that gets no credit before the drain deadline:
every batch ``collect_batches()`` hands out is in the flight table before
anything can fail, so a turn ends with each of them either sent or
un-issued; the failed batch and its virtual log's later siblings are
un-issued and their credit returned, and — when no failover plane claims
the dead backup and repairs around it — the produces waiting on this
broker fail at once with the typed ``ReplicationError``. The shipper
*lives*: the next kick collects the same references and ships them
again. Only a fence (:meth:`halt`) or :meth:`stop` ends a shipper.

``stop()`` drains: the thread keeps collecting and shipping until every
appended chunk is durable and no batch is in flight (bounded by a drain
deadline, or by a ship failure nobody repairs), so shutdown under load
loses no acks and double-applies none.
"""

from __future__ import annotations

import threading
import time
from typing import TYPE_CHECKING

from repro.common.errors import ReplicationError
from repro.replication.flow import FlowController
from repro.replication.virtual_log import ReplicationBatch

if TYPE_CHECKING:
    from repro.kera.broker import KeraBrokerCore
    from repro.kera.live import LiveKeraCluster


class _Flight:
    """One collected batch on its way to its backups."""

    __slots__ = ("batch", "key", "nbytes", "remaining", "failed")

    def __init__(self, batch: ReplicationBatch) -> None:
        self.batch = batch
        #: Batch ids are per virtual log.
        self.key = (batch.vlog_id, batch.batch_id)
        #: Flow credit held (0 until acquired).
        self.nbytes = 0
        self.remaining = len(batch.backups)
        #: Set once the send or an ack failed. The flight then stays in
        #: the table until the pump un-issues it.
        self.failed = False


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
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._drain_deadline = float("inf")
        self._flights_lock = threading.Lock()
        # One pump at a time: whoever flips ``_pumping`` runs the turns;
        # any other caller (an appender, the shipper's thread, a kick
        # re-entered from an ack callback) leaves ``_kicked`` for it.
        self._pumping = False  # guarded-by: _flights_lock
        self._kicked = False  # guarded-by: _flights_lock
        #: Pump turns run by a kicking thread / by the shipper's thread.
        self.inline_pumps = 0
        self.thread_pumps = 0
        # Every batch collect_batches() handed out, from the moment it is
        # handed out until its acks are applied or it is un-issued.
        self._flights: dict[tuple[int, int], _Flight] = {}  # guarded-by: _flights_lock
        # Work for the next pump turn, queued from any thread. Un-issuing
        # and repairing run on the pump because they must not interleave
        # with a collect, and because repair issues blocking credit waits
        # and RPCs that must not run on a transport callback.
        # (flight, the backup whose replicate call failed if one did, error)
        self._failed: list[tuple[_Flight, int | None, BaseException]] = []  # guarded-by: _flights_lock
        self._dead_nodes: list[int] = []  # guarded-by: _flights_lock
        # Per backup node, for the failure detector's lease: replicate
        # calls owed an answer, and acks received (which renew it).
        self._owed: dict[int, int] = {}  # guarded-by: _flights_lock
        self._acks: dict[int, int] = {}  # guarded-by: _flights_lock
        #: Why this shipper was halted (its broker was fenced), else None.
        self.error: BaseException | None = None

    # -- control --------------------------------------------------------------

    def kick(self) -> None:
        """Get appended work shipped: pump on this thread, or — a pump is
        running — leave it to that one and return at once."""
        self.pump()

    def stop(self) -> None:
        self._drain_deadline = time.monotonic() + self._DRAIN_TIMEOUT
        self._stopping.set()
        self._wake.set()

    def halt(self, error: BaseException) -> None:
        """Stop shipping for good, *without* draining and without failing
        the in-flight produces (the cluster fences a dead broker and fails
        its in-flight produces itself, with a typed routing error clients
        can retry on)."""
        if self.error is None:
            self.error = error
        self._wake.set()

    def in_flight_batches(self) -> int:
        with self._flights_lock:
            return len(self._flights)

    def backup_acks(self) -> tuple[dict[int, int], set[int]]:
        """Replicate acks received per backup node, and the nodes that
        owe an answer to a replicate call."""
        with self._flights_lock:
            return dict(self._acks), {n for n, c in self._owed.items() if c}

    def repair_node(self, node: int) -> None:
        """Queue repair around a dead backup (any thread): the next pump
        turn swaps the node out of every affected virtual segment and
        re-ships durable prefixes. Going through the pump keeps all of a
        broker's replicate traffic in one sequence, so a backup's
        per-vseg arrival order matches ship order. Left to the shipper's
        thread (a repair blocks on credit); pumped here if there is none."""
        with self._flights_lock:
            self._dead_nodes.append(node)
        if self.ident is None:
            self.pump()
        else:
            self._wake.set()

    # -- the loop ---------------------------------------------------------------

    def run(self) -> None:
        while self.error is None:
            # Pump when woken (an ack with a backlog behind it, a failed
            # call, a queued repair), never on the timeout alone: a failed
            # ship is retried when a produce asks for it, not every 50 ms.
            # The event is cleared only after a wake-up, so one landing
            # after a timeout survives to the next wait.
            woken = self._wake.wait(timeout=self._IDLE_POLL)
            draining = self._stopping.is_set()
            if woken:
                self._wake.clear()
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
        core = self.cluster.brokers[self.broker_id]
        return self.in_flight_batches() == 0 and core.pending_chunks() == 0

    def pump(self) -> bool:
        """Run the ship loop until no kick is outstanding, unless another
        thread is: then mark the kick for that thread and return True.
        False when the last turn ended on a ship failure nobody repairs
        (the waiting produces have been failed)."""
        # No kick is lost: the mark is set and the holder flag read in one
        # critical section, and the holder lets go only in one where it
        # found the mark clear — a whole turn starts after every kick.
        with self._flights_lock:
            self._kicked = True
            if self._pumping:
                return True
            self._pumping = True
        core = self.cluster.brokers[self.broker_id]
        shipped = True
        try:
            while True:
                with self._flights_lock:
                    self._pumping = self._kicked and self.error is None
                    if not self._pumping:
                        return shipped
                    self._kicked = False
                if threading.current_thread() is self:
                    self.thread_pumps += 1
                else:
                    self.inline_pumps += 1
                shipped = self._turn(core)
        except BaseException:
            with self._flights_lock:
                self._pumping = False
            raise

    def _turn(self, core: "KeraBrokerCore") -> bool:
        """One turn: un-issue failed flights and repair around dead
        backups, then collect and issue, until nothing is collectible."""
        try:
            while self.error is None and self._service(core):
                batches = core.collect_batches()
                if not batches:
                    return True
                for batch in batches:
                    self._issue(batch)
        except Exception as exc:  # noqa: BLE001 - surfaced to producers
            self.cluster._on_ship_failure(self.broker_id, exc)
        return False

    def _service(self, core: "KeraBrokerCore") -> bool:
        """Un-issue every failed flight, then swap each dead backup out
        and re-ship the durable prefixes to its replacement. False when a
        flight failed and no failover plane repairs around the failure."""
        with self._flights_lock:
            failed, self._failed = self._failed, []
            nodes, self._dead_nodes = self._dead_nodes, []
        unrepaired: BaseException | None = None
        # Earliest first: un-issuing a batch takes its virtual log's later
        # flights with it, failed or not.
        for flight, node, error in sorted(failed, key=lambda f: f[0].batch.issue_seq):
            # Backup loss is survivable: a failover plane that claims the
            # node fences it cluster-wide, and this loop repairs around it.
            if node is not None and self.cluster.report_backup_failure(node, error):
                nodes.append(node)
            elif unrepaired is None:
                unrepaired = error
            self._unissue(core, flight)
        for node in dict.fromkeys(nodes):
            # ReplicationError here is the typed cluster-too-small refusal
            # (not enough survivors for the copy count): it fails the
            # waiting produces, it is not swallowed.
            for repair_batch in core.handle_backup_failure(node):
                self._issue(repair_batch)
        if unrepaired is not None:
            self.cluster._on_ship_failure(self.broker_id, unrepaired)
        return unrepaired is None

    def _unissue(self, core: "KeraBrokerCore", flight: _Flight) -> None:
        """Close a failed flight and its virtual log's later ones, return
        their credit and rewind the log's cursor to the failed batch."""
        batch = flight.batch
        with self._flights_lock:
            if self._flights.get(flight.key) is not flight:
                return  # un-issued with an earlier sibling
            # Late acks of a closed flight find it gone from the table
            # (else they would complete_batch a dropped batch).
            closed = [
                f
                for f in self._flights.values()
                if f is flight
                or not (batch.repair or f.batch.repair)
                and f.batch.vlog_id == batch.vlog_id
                and f.batch.issue_seq > batch.issue_seq
            ]
            for sibling in closed:
                del self._flights[sibling.key]
        for sibling in closed:
            self.flow.release(sibling.nbytes)
        if not batch.repair:
            # A failed repair ship revoked no durability: nothing to
            # abort, the node swap emits fresh repair batches.
            core.abort_batch(batch)

    # -- issue path -----------------------------------------------------------

    def _issue(self, batch: ReplicationBatch) -> None:
        """Send one batch to its backups. Never raises: the batch is in
        the flight table before anything can fail, and a failure — no
        credit before the drain deadline, a failed node, an enqueue error
        — is queued for this pump's next ``_service`` to un-issue. (No
        wake-up: that would re-pump, an unasked retry, forever against a
        backup that stays dead.)"""
        flight = _Flight(batch)
        with self._flights_lock:
            self._flights[flight.key] = flight
        backup = owed = None
        try:
            request = self.cluster.system.replicate_request(self.broker_id, batch)
            nbytes = request.payload_bytes()
            credited = self.flow.try_acquire(nbytes)
            while not credited:
                if self._stopping.is_set() and time.monotonic() >= self._drain_deadline:
                    raise ReplicationError(
                        f"broker {self.broker_id}: drain deadline passed "
                        "waiting for replication credit"
                    )
                credited = self.flow.acquire(nbytes, timeout=self._IDLE_POLL)
            flight.nbytes = nbytes
            for backup in batch.backups:
                if self.cluster.is_failed(backup):
                    raise ReplicationError(f"replication to failed node {backup}")
                with self._flights_lock:
                    # Owed before the submit: a call blocked in it is owed too.
                    self._owed[backup] = self._owed.get(backup, 0) + 1
                owed = backup
                self.cluster.transport.call_async(
                    self.broker_id,
                    backup,
                    "backup",
                    "replicate",
                    request,
                    nbytes,
                    on_done=lambda _resp, err, f=flight, b=backup: self._resolve(f, err, b),
                )
                owed = None
        except Exception as exc:  # noqa: BLE001 - un-issued by _service
            with self._flights_lock:
                if owed is not None:
                    self._owed[owed] -= 1  # its submit failed: never went out
                flight.failed = True
                self._failed.append((flight, backup, exc))

    # -- ack path (wherever the transport runs callbacks) -----------------------

    def _resolve(self, flight: _Flight, error: BaseException | None, backup: int) -> None:
        with self._flights_lock:
            # Late or not, an ack is proof the backup serves.
            self._owed[backup] -= 1
            if error is None:
                self._acks[backup] = self._acks.get(backup, 0) + 1
            if flight.failed or self._flights.get(flight.key) is not flight:
                return  # late ack for a flight already failed or un-issued
            if error is not None:
                flight.failed = True
                self._failed.append((flight, backup, error))
            else:
                flight.remaining -= 1
                if flight.remaining > 0:
                    return
                del self._flights[flight.key]
        if error is None:
            core = self.cluster.brokers[self.broker_id]
            backlog = True
            try:
                # Repair batches re-ship an already-durable prefix: there
                # is nothing to complete. The rest is safe on a transport
                # thread: the core's reentrant mutex serializes it against
                # produces, and out-of-order acks are re-sequenced inside
                # the virtual log.
                if not flight.batch.repair:
                    core.complete_batch(flight.batch)
                backlog = core.vlog_for_batch(flight.batch).has_unshipped()
            except Exception as exc:  # noqa: BLE001 - surfaced to producers
                self.cluster._on_ship_failure(self.broker_id, exc)
            finally:
                self.flow.release(flight.nbytes)
            # The thread is needed only when references wait behind the
            # freed slot (an append landing after this lock-free probe
            # kicks for itself; the release wakes a pump waiting for
            # credit), or a drain wants to see the table empty.
            if not (backlog or self._stopping.is_set()):
                return
        # A failure to service, or a freed slot with work behind it.
        self._wake.set()
