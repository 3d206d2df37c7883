"""The live failover coordinator: a detector that triggers recovery.

On a :class:`~repro.failover.detector.BrokerDown` verdict the plane runs
:func:`repro.kera.recovery.recover_broker` — the same streamlet-move
machine operator-driven recovery and migration use (fence → gather →
ensure → replay → commit → release), with its parallel timed read lanes
(one per new leader × surviving backup) and replay lanes (one per new
leader) recorded in :attr:`FailoverReport.lanes`; overlapping lanes are
the measured recovery parallelism. What the plane adds is *when*: it
owns the detector, and it claims a node at a survivor's first failed
replicate RPC (:meth:`FailoverPlane.note_node_failure`) — fencing it so
its in-flight produces fail over with a typed ``NotLeaderError`` instead
of hanging — before any verdict exists.

Every failure on this path lands in :attr:`FailoverReport.error` as a
typed exception (``ReplicationError`` for a cluster too small to keep
the copy count, ``RecoveryError`` for merge divergence or a replay lane
that outlived ``replay_timeout``) and leaves routing uncommitted —
recovery is refused loudly, never silently lossy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.kera.live import LiveKeraCluster
from repro.kera.recovery import RecoveryLane, RecoveryReport, recover_broker
from repro.failover.detector import BrokerDown, FailureDetector


@dataclass
class FailoverReport(RecoveryReport):
    """What one node's live recovery did, with timing evidence."""

    verdict: BrokerDown | None = None
    recovery_seconds: float = 0.0
    #: Typed refusal / failure; None on success.
    error: BaseException | None = None

    @property
    def parallelism(self) -> int:
        """Maximum number of recovery lanes open at the same instant —
        the timed evidence that recovery ran in parallel."""
        events: list[tuple[float, int]] = []
        for lane in self.lanes:
            if lane.finished > lane.started:
                events.append((lane.started, 1))
                events.append((lane.finished, -1))
        best = current = 0
        for _, delta in sorted(events):
            current += delta
            best = max(best, current)
        return best


class FailoverPlane:
    """Owns a detector and recovers nodes it declares dead."""

    def __init__(
        self,
        cluster: LiveKeraCluster,
        *,
        heartbeat_interval: float = 0.1,
        lease_timeout: float = 1.0,
        replay_timeout: float = 30.0,
    ) -> None:
        self.cluster = cluster
        self.replay_timeout = replay_timeout
        self.detector = FailureDetector(
            cluster,
            heartbeat_interval=heartbeat_interval,
            lease_timeout=lease_timeout,
            on_down=self._on_down,
        )
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._recovering: set[int] = set()  # guarded-by: _lock
        self.reports: dict[int, FailoverReport] = {}  # guarded-by: _lock
        cluster.install_failover(self)

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "FailoverPlane":
        self.detector.start()
        return self

    def stop(self) -> None:
        self.detector.stop()

    def __enter__(self) -> "FailoverPlane":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- entry points -------------------------------------------------------

    def note_node_failure(self, node_id: int, error: BaseException) -> bool:
        """A survivor's replicate RPC to ``node_id`` failed (whichever
        thread pumps). Claim the node: fence it so nothing else routes
        there, and hand the detector the verdict. Returns True — the
        caller (the shipper) repairs and continues instead of dying."""
        self.cluster.fence_node(node_id)
        self.detector.report_dead(
            node_id,
            f"replicate to node {node_id} failed: {error}",
            source="replicate-error",
        )
        return True

    def wait_recovered(
        self, node_id: int, timeout: float = 30.0
    ) -> FailoverReport | None:
        """Block until ``node_id``'s recovery finished; None on timeout."""
        deadline = time.monotonic() + timeout
        with self._done:
            while node_id not in self.reports:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._done.wait(remaining)
            return self.reports[node_id]

    # -- recovery (detector thread) -----------------------------------------

    def _on_down(self, verdict: BrokerDown) -> None:
        with self._lock:
            if verdict.node_id in self.reports or verdict.node_id in self._recovering:
                return
            self._recovering.add(verdict.node_id)
        report = self._recover(verdict)
        with self._lock:
            # _done wraps _lock, so holding it here lets notify_all run.
            self._recovering.discard(verdict.node_id)
            self.reports[verdict.node_id] = report
            self._done.notify_all()

    def _recover(self, verdict: BrokerDown) -> FailoverReport:
        report = FailoverReport(failed_broker=verdict.node_id, verdict=verdict)
        started = time.monotonic()
        try:
            recover_broker(
                self.cluster,
                verdict.node_id,
                replay_timeout=self.replay_timeout,
                report=report,
            )
        except BaseException as exc:  # noqa: BLE001 - typed refusal, never silent
            report.error = exc
        report.recovery_seconds = time.monotonic() - started
        return report
