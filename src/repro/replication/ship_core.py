"""The replication ship loop as a sans-IO core, shared by every driver.

:class:`ShipCore` is the only code that collects a broker's ready
batches, keeps their flight table, applies the credit window, takes
acks, repairs after a backup loss and decides what a ship failure means
(DESIGN §9). It never calls a transport, reads a clock or blocks. A
shell feeds it events — :meth:`~ShipCore.pump` (a kick),
:meth:`~ShipCore.owe` / :meth:`~ShipCore.resolve` (a replicate call out
and its answer), :meth:`~ShipCore.repair` (a dead backup) — and carries
out its actions (:class:`ShipShell`). It also supplies the lock every
critical section takes: a ``threading.Lock`` in the live thread shell
(:class:`repro.kera.shipper.PipelinedShipper`), a null context in the
simulator's (:class:`repro.runtime.sim.SimShipper`).
"""

from __future__ import annotations

from contextlib import AbstractContextManager
from typing import TYPE_CHECKING, Any, Protocol

from repro.common.errors import ConfigError

if TYPE_CHECKING:
    from repro.kera.broker import KeraBrokerCore
    from repro.replication.virtual_log import ReplicationBatch


class CreditWindow:
    """Bounded in-flight replication bytes (``window_bytes = 0``: no
    bound). A batch larger than the whole window is still admitted when
    nothing else is in flight — otherwise it could never ship. Never
    waits; :class:`repro.replication.flow.FlowController` adds waiting and
    thread safety."""

    def __init__(self, window_bytes: int = 0) -> None:
        if window_bytes < 0:
            raise ConfigError("flow window must be >= 0")
        self.window_bytes = window_bytes
        self._in_flight_bytes = 0

    @property
    def in_flight_bytes(self) -> int:
        return self._in_flight_bytes

    def credit(self) -> int:
        """Free window bytes (a large constant when unbounded)."""
        if self.window_bytes == 0:
            return 1 << 62
        return max(self.window_bytes - self._in_flight_bytes, 0)

    def admissible(self, nbytes: int) -> bool:
        return (
            self.window_bytes == 0
            or self._in_flight_bytes + nbytes <= self.window_bytes
            or self._in_flight_bytes == 0
        )

    def try_acquire(self, nbytes: int) -> bool:
        if not self.admissible(nbytes):
            return False
        self._in_flight_bytes += nbytes
        return True

    def release(self, nbytes: int) -> None:
        self._in_flight_bytes = max(self._in_flight_bytes - nbytes, 0)


class Flight:
    """One collected batch on its way to its backups."""

    __slots__ = ("batch", "key", "nbytes", "remaining", "owing", "failed")

    def __init__(self, batch: "ReplicationBatch") -> None:
        self.batch = batch
        #: Batch ids are per virtual log.
        self.key = (batch.vlog_id, batch.batch_id)
        #: Flow credit held (0 until the shell takes it).
        self.nbytes = 0
        self.remaining = len(batch.backups)
        #: The backup the send last owed a call to: a send that raises
        #: failed there (None: before any call went out).
        self.owing: int | None = None
        #: Set once the send or an ack failed. The flight then stays in
        #: the table until the pump un-issues it.
        self.failed = False


class ShipShell(Protocol):
    """The core's actions, carried out by a shell: ``send`` a flight
    (take credit, build the replicate call, :meth:`ShipCore.owe` then
    submit it to each backup; a raise fails the flight), ``wake`` (a pump
    is wanted off the ack path), ``claim_backup`` (does a failover plane
    take this backup's loss?), ``fail_produces`` (every produce waiting on
    the broker) and ``turn_started``."""

    def send(self, flight: Flight) -> None: ...
    def wake(self) -> None: ...
    def claim_backup(self, node: int, error: BaseException) -> bool: ...
    def fail_produces(self, error: BaseException) -> None: ...
    def turn_started(self) -> None: ...


class ShipCore:
    """A broker's ready batches, shipped to its backups, pipelined."""

    def __init__(
        self,
        broker: "KeraBrokerCore",
        shell: ShipShell,
        flow: CreditWindow,
        lock: AbstractContextManager[Any],
    ) -> None:
        self.broker = broker
        self.shell = shell
        self.flow = flow
        self._lock = lock
        # One pump at a time: whoever flips ``_pumping`` runs the turns;
        # any other caller leaves ``_kicked`` for it.
        self._pumping = False  # guarded-by: _lock
        self._kicked = False  # guarded-by: _lock
        # Every batch collect_batches() handed out, from the moment it is
        # handed out until its acks are applied or it is un-issued.
        self._flights: dict[tuple[int, int], Flight] = {}  # guarded-by: _lock
        # Work for the next turn, queued from any thread: un-issuing and
        # repairing must not interleave with a collect, and a repair sends.
        # (flight, the backup whose replicate call failed if one did, error)
        self._failed: list[tuple[Flight, int | None, BaseException]] = []  # guarded-by: _lock
        self._dead_nodes: list[int] = []  # guarded-by: _lock
        # Per backup node, for the failure detector's lease: replicate
        # calls owed an answer, and acks received (which renew it).
        self._owed: dict[int, int] = {}  # guarded-by: _lock
        self._acks: dict[int, int] = {}  # guarded-by: _lock
        #: Why shipping stopped for good (the broker was fenced), else None.
        self.error: BaseException | None = None
        #: Set by a draining shell: every completed flight then wakes it,
        #: so it sees the table empty.
        self.draining = False

    # -- events in ----------------------------------------------------------------

    def pump(self) -> bool:
        """Run the loop's turns until no kick is outstanding, unless a
        pump is running: then mark the kick for its holder and return
        True. False when the last turn ended on a ship failure nobody
        repairs (the waiting produces have been failed)."""
        with self._lock:
            self._kicked = True
            if self._pumping:
                return True
            self._pumping = True
        shipped = True
        try:
            while True:
                with self._lock:
                    self._pumping = self._kicked and self.error is None
                    if not self._pumping:
                        return shipped
                    self._kicked = False
                self.shell.turn_started()
                shipped = self._turn()
        except BaseException:
            with self._lock:
                self._pumping = False
            raise

    def owe(self, flight: Flight, backup: int) -> None:
        """A replicate call of ``flight`` to ``backup`` is about to go out
        (owed before the submit: a call blocked in it is owed too)."""
        flight.owing = backup
        with self._lock:
            self._owed[backup] = self._owed.get(backup, 0) + 1

    def resolve(self, flight: Flight, backup: int, error: BaseException | None) -> None:
        """An owed replicate call answered (acked when ``error`` is None)."""
        with self._lock:
            # Late or not, an answer is proof the backup serves.
            self._owed[backup] -= 1
            if error is None:
                self._acks[backup] = self._acks.get(backup, 0) + 1
            if flight.failed or self._flights.get(flight.key) is not flight:
                return  # late answer for a flight already failed or un-issued
            if error is not None:
                flight.failed = True
                self._failed.append((flight, backup, error))
            else:
                flight.remaining -= 1
                if flight.remaining > 0:
                    return
                del self._flights[flight.key]
        if error is None:
            backlog = True
            try:
                # A repair re-ships a durable prefix: nothing to complete.
                # The virtual log re-sequences out-of-order acks.
                backlog = not flight.batch.repair and self.broker.complete_batch(
                    flight.batch
                )
            except Exception as exc:  # noqa: BLE001 - surfaced to producers
                self.shell.fail_produces(exc)
            finally:
                self.flow.release(flight.nbytes)
            # A pump is wanted only when references wait behind the freed
            # slot (an append landing after the completion kicks for
            # itself), or a drain wants to see the table empty.
            if not (backlog or self.draining):
                return
        self.shell.wake()

    def repair(self, node: int) -> None:
        """Queue repair around a dead backup for the next turn: through
        the pump, a backup's per-vseg arrival order matches ship order."""
        with self._lock:
            self._dead_nodes.append(node)

    def halt(self, error: BaseException) -> None:
        """Stop shipping for good, without failing the in-flight produces
        (a fence fails them itself, with a retryable routing error)."""
        if self.error is None:
            self.error = error

    # -- queries -------------------------------------------------------------------

    def in_flight_batches(self) -> int:
        with self._lock:
            return len(self._flights)

    def backup_acks(self) -> tuple[dict[int, int], set[int]]:
        """Replicate acks received per backup node, and the nodes that
        owe an answer to a replicate call."""
        with self._lock:
            return dict(self._acks), {n for n, c in self._owed.items() if c}

    # -- one turn --------------------------------------------------------------------

    def _turn(self) -> bool:
        try:
            while self.error is None and self._service():
                batches = self.broker.collect_batches()
                if not batches:
                    return True
                for batch in batches:
                    self._issue(batch)
        except Exception as exc:  # noqa: BLE001 - surfaced to producers
            self.shell.fail_produces(exc)
        return False

    def _service(self) -> bool:
        """Un-issue every failed flight, then swap each dead backup out
        and re-ship the durable prefixes to its replacement. False when a
        flight failed and no failover plane repairs around the failure."""
        with self._lock:
            failed, self._failed = self._failed, []
            nodes, self._dead_nodes = self._dead_nodes, []
        unrepaired: BaseException | None = None
        # Earliest first: un-issuing a batch takes its virtual log's later
        # flights with it, failed or not.
        for flight, node, error in sorted(failed, key=lambda f: f[0].batch.issue_seq):
            # Backup loss is survivable: a failover plane that claims the
            # node fences it cluster-wide, and this loop repairs around it.
            if node is not None and self.shell.claim_backup(node, error):
                nodes.append(node)
            elif unrepaired is None:
                unrepaired = error
            self._unissue(flight)
        for node in dict.fromkeys(nodes):
            # ReplicationError here is the typed cluster-too-small refusal
            # (not enough survivors for the copy count): it fails the
            # waiting produces, it is not swallowed.
            for repair_batch in self.broker.handle_backup_failure(node):
                self._issue(repair_batch)
        if unrepaired is not None:
            self.shell.fail_produces(unrepaired)
        return unrepaired is None

    def _unissue(self, flight: Flight) -> None:
        """Close a failed flight and its virtual log's later ones, return
        their credit and rewind the log's cursor to the failed batch."""
        batch = flight.batch
        with self._lock:
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
            self.broker.abort_batch(batch)

    def _issue(self, batch: "ReplicationBatch") -> None:
        """Hand one batch to the shell. Never raises: the flight is in the
        table before anything can fail, and a send that raises failed at
        the call it last owed (or before any) — the turn's next
        ``_service`` un-issues it."""
        flight = Flight(batch)
        with self._lock:
            self._flights[flight.key] = flight
        try:
            self.shell.send(flight)
        except Exception as exc:  # noqa: BLE001 - un-issued by _service
            # No wake-up: that would re-pump, an unasked retry, forever
            # against a backup that stays dead. This turn services it.
            node = flight.owing
            with self._lock:
                if node is not None:
                    self._owed[node] -= 1  # the error is that call's answer
                if not flight.failed:
                    flight.failed = True
                    self._failed.append((flight, node, exc))
