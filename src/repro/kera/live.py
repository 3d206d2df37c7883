"""Live KerA clusters: real payload bytes through a pluggable transport.

:class:`LiveKeraCluster` is the transport-agnostic facade shared by the
synchronous in-process driver (:mod:`repro.kera.inproc`) and the
concurrent drivers (:mod:`repro.kera.threaded` and its worker-process
siblings). It assembles the cluster on
:class:`repro.runtime.ClusterRuntime`, routes client requests to their
leaders, and exposes what the streamlet-move machine
(:mod:`repro.kera.recovery`) drives: fences, the ``backup_*`` operator
calls, ``submit_produce``.

Both sides of a node are the same on every driver. The broker side is
one :class:`BrokerService`, called on the caller's thread, never over
the transport: ``submit_produce`` calls the leader's ``produce``, which
appends and kicks the node's shipper (it pumps on that thread when no
pump is running), and ``on_complete`` fires off the runtime's
:class:`CompletionTracker` when the last chunk is durable; a fetch
calls each leader's ``fetch`` (the cores serve lock-free). The backup
side is one
:class:`~repro.kera.backup_service.BackupService` bound to ``(node,
"backup")`` — a node's only transport binding — so every operator
method below is a single ``transport.call``. Between them runs one
:class:`~repro.kera.shipper.PipelinedShipper` per broker — the thread
shell of the one ship core, repair sender and ship-failure rule. A
driver contributes its transport, where its backups live
(:meth:`_backup_binding`) and whether it starts the shippers' threads
(for ack-driven re-pumps, repairs, the ack-deadline sweep and the drain;
an unstarted shipper does all of it on the kicking thread).
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from collections.abc import Callable

from repro.common.errors import (
    NotLeaderError,
    ReplicationError,
    RpcError,
    StorageError,
)
from repro.common.idgen import IdGenerator
from repro.runtime.runtime import ClusterRuntime
from repro.runtime.system import KeraSystem
from repro.runtime.transport import Transport
from repro.kera.backup import KeraBackupCore
from repro.kera.backup_service import BackupService
from repro.kera.broker import KeraBrokerCore, ProduceOutcome
from repro.kera.config import KeraConfig
from repro.kera.shipper import PipelinedShipper
from repro.kera.messages import (
    FetchPosition,
    FetchRequest,
    FetchResponse,
    ProduceRequest,
    ProduceResponse,
    WatchNotify,
)
from repro.wire.chunk import Chunk

#: Virtual node id for transport calls originating outside the cluster.
CLIENT_NODE = -1

#: ``on_complete(response, error)`` for one broker's async produce:
#: exactly one of the two is non-None, fired exactly once.
ProduceCallback = Callable[["ProduceResponse | None", "BaseException | None"], None]


class ProduceAck:
    """The blocking face of one :meth:`LiveKeraCluster.submit_produce`:
    pass it as ``on_complete``, then :meth:`wait` for the response."""

    __slots__ = ("_done", "_response", "_error", "_timeout")

    def __init__(self, ack_timeout: float) -> None:
        self._done = threading.Event()
        self._response: ProduceResponse | None = None
        self._error: BaseException | None = None
        # submit_produce enforces ack_timeout itself (shipper sweep); the
        # wait is a backstop with headroom so the typed timeout error
        # from the completion path wins the race.
        self._timeout = ack_timeout + 5.0

    def __call__(
        self, response: ProduceResponse | None, error: BaseException | None
    ) -> None:
        self._response, self._error = response, error
        self._done.set()

    def wait(self) -> ProduceResponse:
        if not self._done.wait(self._timeout):
            raise ReplicationError(f"produce did not resolve within {self._timeout}s")
        if self._error is not None or self._response is None:
            raise self._error or RpcError("produce returned no response")
        return self._response


class _AsyncProduce:
    """One in-flight completion-driven produce toward a single broker."""

    __slots__ = (
        "broker_id",
        "request_id",
        "on_complete",
        "deadline",
        "done",
        "route",
    )

    def __init__(
        self,
        broker_id: int,
        request_id: int,
        on_complete: ProduceCallback,
        deadline: float,
        route: tuple[int, int] | None = None,
    ) -> None:
        self.broker_id = broker_id
        self.request_id = request_id
        self.on_complete = on_complete
        self.deadline = deadline
        #: (stream_id, streamlet_id) of the request's first chunk, so a
        #: broker fence can fail this produce with a typed routing error.
        self.route = route
        self.done = False  # checked-and-set under the owning cluster's _async_lock


class BrokerService:
    """One node's broker core behind its fences: ``produce`` and ``fetch``
    run on the caller's thread and refuse with a typed routing error once
    the node or the streamlet is fenced."""

    def __init__(self, cluster: "LiveKeraCluster", node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.core = cluster.brokers[node_id]
        self._locks_guard = threading.Lock()
        # (stream, streamlet, entry) -> that sub-partition's append lock.
        self._locks = defaultdict(threading.Lock)  # guarded-by: _locks_guard
        self._fenced = False  # set once by fence(); never cleared
        # (stream, streamlet) pairs fenced for a move. Replaced, never
        # mutated, so the produce path reads it without a lock.
        self._moving: frozenset[tuple[int, int]] = frozenset()

    def _lock(self, key: tuple[int, int, int]) -> threading.Lock:
        with self._locks_guard:
            return self._locks[key]

    # -- fences -------------------------------------------------------------------

    def fence(self) -> None:
        """Stop serving: every subsequent request gets a typed routing
        error, and every fetch parked on this core is woken to collect
        one. One-way — a fenced broker never comes back under the same
        identity (its streamlets move to survivors)."""
        self._fenced = True
        self.core.wake_watchers()

    def fence_streamlet(self, stream_id: int, streamlet_id: int) -> None:
        """Refuse produces to one streamlet (it is moving away). On
        return no append to it is running and none can start: the mark
        is checked under the sub-partition locks this passes through."""
        with self._locks_guard:
            self._moving = self._moving | {(stream_id, streamlet_id)}
        for entry in range(self.cluster.config.storage.q_active_groups):
            with self._lock((stream_id, streamlet_id, entry)):
                pass

    def unfence_streamlet(self, stream_id: int, streamlet_id: int) -> None:
        """Serve the streamlet again: its move was abandoned, or it is
        moving (back) here."""
        with self._locks_guard:
            self._moving = self._moving - {(stream_id, streamlet_id)}

    def _refusal(self, stream_id: int, streamlet_id: int) -> NotLeaderError:
        """The typed routing error for a fenced node or streamlet:
        ``leader`` is None until the move's routing commits."""
        try:
            leader = self.cluster.leader_of(stream_id, streamlet_id)
        except Exception:  # noqa: BLE001 - stream unknown mid-recovery
            leader = self.node_id
        return NotLeaderError(
            stream_id, streamlet_id, None if leader == self.node_id else leader
        )

    def _node_refusal(self, items: list) -> NotLeaderError:
        """A fenced node's refusal, routed by the request's first item."""
        if not items:
            return NotLeaderError(-1, -1, None)
        return self._refusal(items[0].stream_id, items[0].streamlet_id)

    # -- requests -----------------------------------------------------------------

    def produce(self, request: ProduceRequest) -> ProduceOutcome:
        """Append, kick replication, return the whole outcome: the
        caller (``submit_produce``) registers with the completion
        tracker, so nothing waits here for replication acks."""
        if self._fenced:
            raise self._node_refusal(request.chunks)
        outcome = self._append(request)
        # The append locks are released; the kick pumps here unless a
        # pump is running. On the synchronous driver the request has
        # completed (the tracker remembers it) before this returns.
        self.cluster.shipper(self.node_id).kick()
        return outcome

    def fetch(self, request: FetchRequest) -> FetchResponse:
        if self._fenced:
            raise self._node_refusal(request.positions)
        response = self.core.handle_fetch(request)
        if self._fenced and request.watch is not None:
            # Fenced while planning: a watch registered after fence()
            # woke the others would sit out its deadline unseen.
            self.core.unwatch(request.watch[1])
            raise self._node_refusal(request.positions)
        return response

    def _append(self, request: ProduceRequest) -> ProduceOutcome:
        # Per-sub-partition serialization, exactly as the sim driver
        # models it: every (stream, streamlet, entry) sub-partition the
        # request touches is locked — in sorted order, so two requests
        # with overlapping footprints can never deadlock. Q > 1 lets
        # distinct producers append in parallel, and because a producer's
        # retransmissions land on the same sub-partition, duplicate
        # detection is race-free.
        q = self.cluster.config.storage.q_active_groups
        keys = sorted(
            {(c.stream_id, c.streamlet_id, c.producer_id % q) for c in request.chunks}
        )
        locks = [self._lock(key) for key in keys]
        for lock in locks:
            lock.acquire()
        try:
            moving = self._moving
            if moving:
                for stream_id, streamlet_id, _entry in keys:
                    if (stream_id, streamlet_id) in moving:
                        raise self._refusal(stream_id, streamlet_id)
            return self.core.handle_produce(request)
        finally:
            for lock in reversed(locks):
                lock.release()


class LiveKeraCluster:
    """A whole KerA cluster in one process, behind one transport."""

    #: How long a produce ack may stay outstanding before it fails.
    #: Concurrent drivers override per instance; the synchronous inproc
    #: driver resolves every produce inline and never consults it as a
    #: real wait.
    ack_timeout: float = 10.0

    def __init__(self, config: KeraConfig | None, transport: Transport) -> None:
        self.config = config or KeraConfig()
        self.system = KeraSystem(self.config)
        self.transport = transport
        self.runtime = ClusterRuntime(self.system, transport)
        self.coordinator = self.runtime.coordinator
        self._id_lock = threading.Lock()
        self._failed_lock = threading.Lock()
        self._request_ids = IdGenerator()  # guarded-by: _id_lock
        self._failed: set[int] = set()  # guarded-by: _failed_lock
        self._async_lock = threading.Lock()
        # broker -> request_id -> in-flight async produce state.
        self._async_produces: dict[int, dict[int, _AsyncProduce]] = {}  # guarded-by: _async_lock
        # Backup services this process hosts as live objects (worker
        # processes close their own): closed after the transport stops.
        self._local_backups: list[BackupService] = []
        self._broker_services: dict[int, BrokerService] = {}
        self._shippers = {
            node: PipelinedShipper(self, node) for node in self.system.node_ids
        }
        self._drain_on_close = True
        # The live failover plane, when installed (repro.failover.plane).
        # The cluster never imports it: the dependency points failover →
        # kera, keeping this module free of signal/process machinery.
        self._failover = None
        self._register_services()
        self.runtime.start()

    # -- subclass hooks -----------------------------------------------------------

    def _register_services(self) -> None:
        for node in self.system.node_ids:
            self._broker_services[node] = BrokerService(self, node)
            self.transport.register(node, "backup", self._backup_binding(node))

    def _backup_binding(self, node_id: int) -> object:  # pragma: no cover - interface
        """What hosts one node's backup: a :meth:`_local_backup` live
        object, or a worker-process spec."""
        raise NotImplementedError

    def _local_backup(self, node_id: int, *, async_flush: bool) -> BackupService:
        """A backup service over this process's core for ``node_id``,
        to register as a live object."""
        service = BackupService(self.backups[node_id], async_flush=async_flush)
        self._local_backups.append(service)
        return service

    # -- core access --------------------------------------------------------------

    @property
    def brokers(self) -> dict[int, KeraBrokerCore]:
        return self.system.broker_cores

    @property
    def backups(self) -> dict[int, KeraBackupCore]:
        return self.system.backup_cores

    def shipper(self, broker_id: int) -> PipelinedShipper:
        """A broker's replication ship loop."""
        return self._shippers[broker_id]

    def _next_request_id(self) -> int:
        with self._id_lock:
            return self._request_ids.next()

    # -- backup operator surface ---------------------------------------------------
    # Every call goes through the node's "backup" binding, whatever hosts
    # it: the binding's one worker (or the service lock) serializes it
    # with replicate traffic, and a backup in another address space
    # needs no second implementation.

    def _backup_call(self, node_id: int, op: str, arg: object = None):
        return self.transport.call(CLIENT_NODE, node_id, "backup", op, arg)

    def backup_stats(self, node_id: int) -> dict[str, int]:
        """Backup-side accounting (store counters, flush gauges)."""
        return self._backup_call(node_id, "stats")

    @property
    def flushes_scheduled(self) -> int:
        return sum(self.backup_stats(n)["flushes"] for n in self.system.node_ids)

    def flush_lag_bytes(self, node_id: int) -> int:
        """Bytes acked by the node's backup but not yet written to disk."""
        return int(self.backup_stats(node_id)["flush_lag_bytes"])

    def segments_on_disk(self, node_id: int) -> int:
        return int(self.backup_stats(node_id)["segments_on_disk"])

    def wait_flush_idle(self, timeout: float | None = None) -> bool:
        """Block until every backup's flush queue is drained."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for node_id in self.system.node_ids:
            while not self._backup_call(node_id, "flush_idle"):
                if deadline is not None and time.monotonic() >= deadline:
                    return False
                time.sleep(0.002)
        return True

    def backup_sync_flush(self, node_id: int) -> int:
        """Force one backup's unflushed tail to disk, fsync'd regardless
        of policy; returns its segment-file count."""
        return self._backup_call(node_id, "sync_flush")

    def backup_recovery_chunks(
        self, node_id: int, failed_broker: int
    ) -> list[tuple[int, list[Chunk]]]:
        """A backup's held chunks for a crashed broker (live recovery)."""
        return self._backup_call(node_id, "recovery_chunks", failed_broker)

    def backup_load_disk(self, node_id: int, *, parallel: int = 4) -> dict:
        """Re-ingest a backup's segment files; returns a summary dict."""
        return self._backup_call(node_id, "load_disk", parallel)

    def backup_loaded_brokers(self, node_id: int) -> list[int]:
        """Source brokers a restarted backup holds disk data for."""
        return self._backup_call(node_id, "loaded_brokers")

    def backup_disk_recovery_chunks(
        self, node_id: int, failed_broker: int
    ) -> list[tuple[int, list[Chunk]]]:
        """A restarted backup's disk-loaded chunks for a prior broker."""
        return self._backup_call(node_id, "disk_recovery_chunks", failed_broker)

    def backup_retire_epochs(self, node_id: int) -> None:
        """Drop a backup's loaded generation after a completed restore."""
        self._backup_call(node_id, "retire_epochs")

    def backup_drop_broker(self, node_id: int, failed_broker: int) -> int:
        """Discard a recovered broker's segments on one backup; returns
        bytes freed."""
        return self._backup_call(node_id, "drop_broker", failed_broker)

    # -- cluster management --------------------------------------------------------

    def create_stream(self, stream_id: int, num_streamlets: int) -> None:
        """Create a stream and register its streamlets on their leaders."""
        self.runtime.create_stream(stream_id, num_streamlets)

    def leader_of(self, stream_id: int, streamlet_id: int) -> int:
        return self.runtime.leader_of(stream_id, streamlet_id)

    def _by_leader(self, items: list) -> dict[int, list]:
        """Group chunks or fetch positions by their streamlet's leader,
        in broker-id order."""
        groups: dict[int, list] = defaultdict(list)
        for item in items:
            groups[self.leader_of(item.stream_id, item.streamlet_id)].append(item)
        return dict(sorted(groups.items()))

    # -- produce path ----------------------------------------------------------------

    def submit_produce(
        self,
        broker_id: int,
        chunks: list[Chunk],
        producer_id: int,
        on_complete: ProduceCallback,
    ) -> int:
        """Append one broker's produce and start its replication on the
        calling thread; the ack wait is completion-driven.

        The node's :class:`BrokerService` appends and kicks the shipper
        here, so the call costs an append plus — when this thread gets
        the pump — sending the replicate calls, and can block on
        replication credit: never call it on an event loop, nor from an
        ``on_complete`` (that runs on the transport thread that delivers
        the last ack; inline on a synchronous transport or when nothing
        needed replicating; on the shipper's thread after a ship failure
        or timeout). ``on_complete(response, error)`` fires exactly once.
        Returns the request id.
        """
        request = ProduceRequest(
            request_id=self._next_request_id(),
            producer_id=producer_id,
            chunks=chunks,
        )
        state = _AsyncProduce(
            broker_id,
            request.request_id,
            on_complete,
            time.monotonic() + self.ack_timeout,
            (chunks[0].stream_id, chunks[0].streamlet_id) if chunks else None,
        )
        with self._async_lock:
            self._async_produces.setdefault(broker_id, {})[request.request_id] = state

        # Through the service so the fence checks apply; its kick pumps on
        # this thread when no pump is running.
        outcome, error = None, None
        try:
            outcome = self._broker_services[broker_id].produce(request)
        except Exception as exc:  # noqa: BLE001 - relayed to on_complete
            error = exc
        if error is not None:
            self._finish_async(state, None, error)
        elif not outcome.pending or self.runtime.completion.register(
            broker_id,
            request.request_id,
            lambda: self._finish_async(state, outcome.response, None),
        ):
            # Nothing to wait for, or ack-before-register: replication
            # finished before we got here and the tracker remembered it.
            self._finish_async(state, outcome.response, None)
        elif state.done:
            # Register-before-ack: the waiter is parked. A ship failure or
            # a fence already failed this produce, so no ack will ever
            # fire — take the waiter back out.
            self.runtime.completion.discard(broker_id, request.request_id)
        return request.request_id

    def produce_async(
        self,
        chunks: list[Chunk],
        producer_id: int,
        on_complete: ProduceCallback,
    ) -> int:
        """Route chunks to their leaders and kick off append+replication
        for each; ``on_complete`` fires once per broker touched as its
        response becomes durable. No thread waits for an ack. Returns the
        number of broker submissions (= expected callbacks)."""
        by_broker = self._by_leader(chunks)
        for broker_id, batch in by_broker.items():
            self.submit_produce(broker_id, batch, producer_id, on_complete)
        return len(by_broker)

    def produce(self, chunks: list[Chunk], producer_id: int) -> list[ProduceResponse]:
        """Route chunks to their leaders, append, replicate, and return
        the (acknowledged) responses — one per broker touched.

        A thin blocking wrapper over :meth:`submit_produce`: the caller
        waits on the acks while the completion path does the work."""
        acks = []
        for broker_id, batch in self._by_leader(chunks).items():
            ack = ProduceAck(self.ack_timeout)
            acks.append(ack)
            self.submit_produce(broker_id, batch, producer_id, ack)
        return [ack.wait() for ack in acks]

    # -- async produce bookkeeping ---------------------------------------------------

    def _finish_async(
        self,
        state: _AsyncProduce,
        response: ProduceResponse | None,
        error: BaseException | None,
    ) -> None:
        """Resolve one async produce exactly once (any thread)."""
        with self._async_lock:
            if state.done:
                return
            state.done = True
            per_broker = self._async_produces.get(state.broker_id)
            if per_broker is not None:
                per_broker.pop(state.request_id, None)
                if not per_broker:
                    self._async_produces.pop(state.broker_id, None)
        # Whatever path resolved us, the tracker must not keep a parked
        # waiter (error/timeout path) or a stale early mark around.
        self.runtime.completion.discard(state.broker_id, state.request_id)
        state.on_complete(response, error)

    def _fail_produces(
        self,
        broker_id: int,
        error_for: Callable[[_AsyncProduce], BaseException | None],
    ) -> None:
        """Fail the in-flight produces toward ``broker_id`` that ``error_for`` names."""
        with self._async_lock:
            states = list(self._async_produces.get(broker_id, {}).values())
        for state in states:
            error = error_for(state)
            if error is not None:
                self._finish_async(state, None, error)

    def _on_ship_failure(self, broker_id: int, error: BaseException) -> None:
        """A broker's replication ship failed and nobody repairs it: fail
        every produce waiting on that broker, at once and typed (their
        batches are un-issued; a retry re-ships them)."""
        failure = ReplicationError(
            f"replication from broker {broker_id} failed: {error!r}"
        )
        self._fail_produces(broker_id, lambda _state: failure)

    def _sweep_async_produces(self, broker_id: int) -> None:
        """Fail async produces past their ack deadline (shipper-thread
        housekeeping: a completion-driven produce has no thread of its
        own whose wait could expire)."""
        now = time.monotonic()
        self._fail_produces(
            broker_id,
            lambda state: ReplicationError(
                f"request {state.request_id} not durable within {self.ack_timeout}s"
            )
            if now >= state.deadline
            else None,
        )

    def inflight_produce_count(self) -> int:
        """Async produces submitted but not yet resolved (gauge)."""
        with self._async_lock:
            return sum(len(per) for per in self._async_produces.values())

    # -- fetch path ---------------------------------------------------------------------

    def fetch(
        self,
        positions: list[FetchPosition],
        *,
        consumer_id: int,
        max_chunks_per_entry: int = 16,
        defer_admission: bool = False,
        watch: tuple[WatchNotify, object] | None = None,
    ) -> list[FetchResponse]:
        """Fetch durable chunks, grouping positions by leader.

        Each leader's :class:`BrokerService` is called on *this* thread:
        broker cores live in the caller's process on every driver and
        ``handle_fetch`` is safe from any thread (plan under the core
        mutex, serve lock-free), so a fetch costs no transport round
        trip; the fence check stays because the call goes through the
        service. ``defer_admission`` and ``watch`` ride in each
        :class:`FetchRequest` (see there); a caller that passed ``watch``
        owes an :meth:`unwatch` of its token once it stops waiting —
        including when this call raises.
        """
        responses = []
        for broker_id, group in self._by_leader(positions).items():
            request = FetchRequest(
                request_id=self._next_request_id(),
                consumer_id=consumer_id,
                positions=group,
                max_chunks_per_entry=max_chunks_per_entry,
                defer_admission=defer_admission,
                watch=watch,
            )
            responses.append(self._broker_services[broker_id].fetch(request))
        return responses

    def unwatch(self, token: object) -> None:
        """Drop a long-poll's durability watch from every broker core."""
        for core in self.brokers.values():
            core.unwatch(token)

    # -- failover plane hooks ----------------------------------------------------------------

    def install_failover(self, plane) -> None:
        """Attach a live failover plane (detection + recovery)."""
        self._failover = plane

    def report_backup_failure(self, node_id: int, error: BaseException) -> bool:
        """A replicate RPC to ``node_id`` failed (transport/shipper
        thread). Returns True when an installed failover plane claims the
        node — fences it cluster-wide and schedules recovery — in which
        case the caller should repair-and-continue instead of dying."""
        plane = self._failover
        if plane is None:
            return False
        return plane.note_node_failure(node_id, error)

    def backup_acks(self) -> tuple[dict[int, int], set[int]]:
        """The failure detector's lease evidence, over every shipper: the
        replicate acks each backup node has returned so far, and the
        nodes that still owe an answer to a replicate call."""
        acked: Counter[int] = Counter()
        owing: set[int] = set()
        for shipper in self._shippers.values():
            acks, owes = shipper.core.backup_acks()
            acked.update(acks)
            owing |= owes
        return dict(acked), owing

    def is_failed(self, node_id: int) -> bool:
        with self._failed_lock:
            return node_id in self._failed

    def fence_node(self, node_id: int) -> bool:
        """Fence a node: stop its broker service from accepting requests
        and fail its in-flight produces with a typed routing error.
        Idempotent; returns False when the node was already fenced."""
        if node_id not in self._broker_services:
            raise StorageError(f"unknown broker {node_id}")
        with self._failed_lock:
            fresh = node_id not in self._failed
            self._failed.add(node_id)
        self._broker_services[node_id].fence()
        self._shippers[node_id].halt(
            ReplicationError(f"broker {node_id} fenced by failover")
        )
        # Leader unknown until recovery commits the new routing: clients
        # refresh metadata and retry instead of hanging out the timeout.
        self._fail_produces(
            node_id, lambda state: NotLeaderError(*(state.route or (-1, -1)), None)
        )
        return fresh

    def broker_service(self, node_id: int) -> BrokerService:
        """A node's broker service (a voluntary move fences one streamlet on it)."""
        return self._broker_services[node_id]

    def repair_backups_for(self, failed_node: int) -> None:
        """Restore copy counts after a node loss: every surviving broker
        swaps ``failed_node`` out of its virtual segments and re-ships
        the durable prefixes to the replacements. The repair is queued on
        each survivor's shipper rather than sent from here: a backup's
        per-vseg arrival order must match the one ship loop's issue
        order, or later recovery merges would see interleaved
        (diverging) runs."""
        for survivor_id, shipper in self._shippers.items():
            if not self.is_failed(survivor_id) and shipper.error is None:
                shipper.repair_node(failed_node)

    @property
    def live_broker_ids(self) -> list[int]:
        with self._failed_lock:
            failed = set(self._failed)
        return [b for b in sorted(self.brokers) if b not in failed]

    # -- lifecycle ----------------------------------------------------------------------------

    def shutdown(self) -> None:
        self.runtime.shutdown()
        # The transport no longer delivers replicate RPCs, so nothing
        # races the cores: drain flushers, close segment files.
        for service in self._local_backups:
            service.close(drain=self._drain_on_close)

    def simulate_power_loss(self) -> None:
        """Crash-test hook: stop the cluster *without* the durable tier's
        clean drain/close. Segment files keep exactly what the fsync
        policy already pushed — the state a process kill leaves behind —
        so restart tests and demos can prove recovery from it."""
        self._drain_on_close = False
        self.shutdown()

    def __enter__(self) -> "LiveKeraCluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()
