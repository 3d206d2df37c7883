"""Failure detection: transport liveness first, heartbeat leases second.

The detector turns "node N is dead" into a typed :class:`BrokerDown`
verdict, delivered exactly once per node. It listens on two channels:

* **transport liveness** — the authoritative signal. The process and
  socket transports notice a dead worker (a reaped child process, an
  unexpected EOF on a worker connection) on their own reaper/reader
  threads and call the settable ``liveness_listener`` hook; the
  detector attaches itself there on :meth:`FailureDetector.start`.
* **heartbeat leases** — the fallback for failure modes the transport
  cannot see (a wedged backup). A replicate ack from the node's backup
  (:meth:`LiveKeraCluster.backup_acks`) renews its lease; a node with
  no new ack is pinged on its ``(node, "backup")`` binding only when no
  replicate call owes an answer — a busy binding's queue may be full and
  the submit would block this thread. A lease that expires yields a
  ``"heartbeat"`` verdict.

Anything else (a survivor's replicate RPC failing, chaos tooling) can
:meth:`~FailureDetector.report_dead` explicitly; the first report per
node wins, the rest are dropped, so downstream recovery runs once.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.kera.live import CLIENT_NODE, LiveKeraCluster


@dataclass(frozen=True)
class BrokerDown:
    """Typed verdict: one node of the cluster is dead."""

    node_id: int
    reason: str
    #: Detection channel: ``"process-exit"`` (reaped worker process),
    #: ``"socket-eof"`` / ``"socket-error"`` (broken worker connection),
    #: ``"heartbeat"`` (missed lease deadline), ``"replicate-error"``
    #: (a survivor's replicate RPC failed), or ``"report"`` (explicit).
    source: str


#: Delivery callback: invoked once per dead node, on the detector thread.
DownListener = Callable[[BrokerDown], None]


class FailureDetector:
    """Heartbeat/lease tracking plus transport-level liveness."""

    def __init__(
        self,
        cluster: LiveKeraCluster,
        *,
        heartbeat_interval: float = 0.1,
        lease_timeout: float = 1.0,
        on_down: DownListener | None = None,
    ) -> None:
        self.cluster = cluster
        self.heartbeat_interval = heartbeat_interval
        self.lease_timeout = lease_timeout
        self.on_down = on_down
        self._lock = threading.Lock()
        self._down: dict[int, BrokerDown] = {}  # guarded-by: _lock
        self._undelivered: list[BrokerDown] = []  # guarded-by: _lock
        self._leases: dict[int, float] = {}  # guarded-by: _lock
        self._ping_inflight: set[int] = set()  # guarded-by: _lock
        self._acks_seen: dict[int, int] = {}  # detector thread only
        self._wake = threading.Event()
        self._stopping = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        now = time.monotonic()
        with self._lock:
            for node in self.cluster.live_broker_ids:
                self._leases[node] = now + self.lease_timeout
        transport = self.cluster.transport
        if hasattr(transport, "liveness_listener"):
            # Transports never import this package; detectors attach
            # themselves to the settable hook (failover -> runtime).
            transport.liveness_listener = self._transport_down
        self._thread = threading.Thread(
            target=self._run, name="failure-detector", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stopping.set()
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        transport = self.cluster.transport
        # == not `is`: each bound-method access is a fresh object.
        if getattr(transport, "liveness_listener", None) == self._transport_down:
            transport.liveness_listener = None

    # -- verdicts -----------------------------------------------------------

    def is_down(self, node_id: int) -> bool:
        with self._lock:
            return node_id in self._down

    def verdicts(self) -> list[BrokerDown]:
        with self._lock:
            return [self._down[n] for n in sorted(self._down)]

    def report_dead(self, node_id: int, reason: str, source: str = "report") -> bool:
        """Record a node death (any thread). Returns False when the node
        was already known dead — the first verdict per node wins, so the
        downstream ``on_down`` recovery runs exactly once."""
        verdict = BrokerDown(node_id=node_id, reason=reason, source=source)
        with self._lock:
            if node_id in self._down:
                return False
            self._down[node_id] = verdict
            self._undelivered.append(verdict)
        self._wake.set()
        return True

    def _transport_down(
        self, node_id: int, service: str, source: str, reason: str
    ) -> None:
        # Node-level failure model: losing any worker of a node (its
        # backup process, in every current driver) kills the whole node.
        self.report_dead(node_id, reason, source=source)

    # -- detector thread ----------------------------------------------------

    def _run(self) -> None:
        while not self._stopping.is_set():
            self._wake.wait(timeout=self.heartbeat_interval)
            self._wake.clear()
            if self._stopping.is_set():
                return
            started = time.monotonic()
            self._deliver()
            # ``on_down`` runs a whole recovery on this thread, and no
            # tick reads acks or pings meanwhile: a lease must not run
            # down over time in which nobody could have renewed it.
            away = time.monotonic() - started
            with self._lock:
                for node in self._leases:
                    self._leases[node] += away
            self._heartbeat()

    def _deliver(self) -> None:
        while True:
            with self._lock:
                if not self._undelivered:
                    return
                verdict = self._undelivered.pop(0)
            if self.on_down is not None:
                self.on_down(verdict)

    def _heartbeat(self) -> None:
        acked, owing = self.cluster.backup_acks()
        now = time.monotonic()
        for node in self.cluster.live_broker_ids:
            count = acked.get(node, 0)
            renewed = count != self._acks_seen.get(node, 0)
            self._acks_seen[node] = count
            with self._lock:
                if node in self._down:
                    continue
                if renewed:
                    self._leases[node] = now + self.lease_timeout
                    continue
                lease = self._leases.setdefault(node, now + self.lease_timeout)
                if now <= lease and (node in self._ping_inflight or node in owing):
                    continue
            if now > lease:
                self.report_dead(
                    node,
                    f"no replicate ack or ping answer from node {node}'s "
                    f"backup within {self.lease_timeout}s lease",
                    source="heartbeat",
                )
                continue
            with self._lock:
                self._ping_inflight.add(node)
            try:
                self.cluster.transport.call_async(
                    CLIENT_NODE,
                    node,
                    "backup",
                    "ping",
                    None,
                    0,
                    on_done=lambda _resp, err, n=node: self._on_ping(n, err),
                )
            except BaseException:  # noqa: BLE001 - submit failed: no renewal
                with self._lock:
                    self._ping_inflight.discard(node)
                # The lease keeps running down; expiry yields the verdict.

    def _on_ping(self, node: int, error: BaseException | None) -> None:
        with self._lock:
            self._ping_inflight.discard(node)
            if error is None:
                self._leases[node] = time.monotonic() + self.lease_timeout
