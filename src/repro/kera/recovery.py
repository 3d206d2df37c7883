"""Moving streamlets: one machine for recovery, failover, restart, migration.

``Backups read segments from disk and issue writes to the new brokers
responsible for recovering a crashed broker's lost data at recovery time.
Each of these requests is handled as a normal producer request (i.e.,
chunks are ingested into their respective groups) while metadata is
safely reconstructed`` (paper, Section IV-B). Migration (Section IV-A's
M) moves a streamlet the same way, reading the live leader instead of
the backups. So there is one move, :func:`move_streamlets`:

    fence → gather → ensure on targets → replay → commit routing → release

* **fence** what is moving on its current leader — the whole node for a
  death, one streamlet for a voluntary move. Clients get a typed
  ``NotLeaderError(leader=None)`` until the commit: re-routing a retry
  before the replayed prefix lands would let the retried ``chunk_seq``
  arrive first, and exactly-once dedup would then drop the replay.
* **gather** ordered ``(run, chunks)`` from a :class:`MoveSource`: the
  surviving backups' virtual segments (:class:`BackupSource` — each
  backup holds a subset, with R >= 3 every segment exists on several,
  and :func:`merge_backup_copies` merges and cross-checks them), or the
  live leader's own groups (:mod:`repro.kera.migration`).
* **replay** (:func:`replay_runs`, the one replay loop) through
  :meth:`LiveKeraCluster.submit_produce`, one lane per target leader.
  Exactly-once dedup makes replayed duplicates harmless; per-(streamlet,
  entry) order holds because runs replay in creation order.
* **commit** the plan in the coordinator, **release** the source's copy.

Restart (:func:`restore_cluster_from_disk`) reads the copies from disk
into a fresh cluster — nothing to fence or re-route: the replay step alone.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.common.errors import RecoveryError, ReplicationError
from repro.wire.chunk import Chunk
from repro.kera.coordinator import RecoveryPlan
from repro.kera.live import LiveKeraCluster, ProduceAck

#: One ordered replay unit — a virtual segment's or a group's chunks in
#: append order, under its id.
Run = tuple[int, list[Chunk]]


def merge_backup_copies(
    copies: list[list[tuple[int, list[Chunk]]]],
) -> list[tuple[int, list[Chunk]]]:
    """Merge per-backup ``(vseg_id, chunks)`` runs into one ordered run.

    Replicas of the same virtual segment must agree on the chunk sequence
    up to a prefix (a backup acked earlier batches only); the longest
    replica wins. Any divergence is a corruption signal, not a race.

    A single run may carry the same chunk twice: backup-failure repair
    re-ships a virtual segment's durable prefix, and a backup that
    already held part of it appends the repeats after its original copy.
    Those repeats are collapsed (first occurrence wins) before the
    prefix comparison — identical payloads are a repair echo, differing
    payloads are corruption.
    """

    def dedup_run(vseg_id: int, chunks: list[Chunk]) -> list[Chunk]:
        seen: dict[tuple[int, int, int, int], int] = {}
        out: list[Chunk] = []
        for chunk in chunks:
            key = (chunk.stream_id, *chunk.dedup_key())
            first = seen.get(key)
            if first is None:
                seen[key] = chunk.payload_crc
                out.append(chunk)
                continue
            if first != chunk.payload_crc:
                raise RecoveryError(
                    f"replica divergence in virtual segment {vseg_id}: "
                    f"repeated chunk {key} with differing payloads"
                )
        return out

    merged: dict[int, list[Chunk]] = {}
    for backup_run in copies:
        for vseg_id, chunks in backup_run:
            chunks = dedup_run(vseg_id, chunks)
            existing = merged.get(vseg_id)
            if existing is None:
                merged[vseg_id] = list(chunks)
                continue
            short, long_ = (
                (existing, chunks) if len(existing) <= len(chunks) else (chunks, existing)
            )
            for mine, theirs in zip(short, long_, strict=False):
                if mine.dedup_key() != theirs.dedup_key() or mine.payload_crc != theirs.payload_crc:
                    raise RecoveryError(
                        f"replica divergence in virtual segment {vseg_id}: "
                        f"{mine.dedup_key()} vs {theirs.dedup_key()}"
                    )
            merged[vseg_id] = list(long_)
    return [(vseg_id, merged[vseg_id]) for vseg_id in sorted(merged)]


# -- the replay loop ---------------------------------------------------------------


@dataclass
class RecoveryLane:
    """One timed unit of parallel move work, and what it moved."""

    leader: int
    backup: int
    #: ``"read"`` (pull one backup's copies) or ``"replay"`` (produce a
    #: leader's runs); replay lanes have ``backup == -1``.
    phase: str
    started: float = 0.0
    finished: float = 0.0
    vsegs: int = 0
    #: Chunks read, or replayed (``duplicates`` of them were absorbed by
    #: the target's exactly-once check).
    chunks: int = 0
    duplicates: int = 0
    #: Records and payload bytes newly ingested (replay lanes).
    records: int = 0
    bytes: int = 0


def replay_runs(cluster: LiveKeraCluster, lane: RecoveryLane, runs: list[Run]) -> None:
    """Replay ordered runs into ``lane.leader`` as ordinary produce
    requests, one run at a time, each acknowledged (durable on the
    target's backups) before the next is sent. New vs duplicate is
    counted into ``lane`` from the response assignments, per run."""
    for _run_id, chunks in runs:
        ack = ProduceAck(cluster.ack_timeout)
        # Producer id 0: routing and dedup key off each chunk's own id.
        cluster.submit_produce(lane.leader, chunks, 0, ack)
        response = ack.wait()
        lane.vsegs += 1
        lane.chunks += len(chunks)
        for assignment, chunk in zip(response.assignments, chunks, strict=True):
            if assignment.duplicate:
                lane.duplicates += 1
            else:
                lane.records += chunk.record_count
                lane.bytes += chunk.payload_len


# -- the move machine ----------------------------------------------------------------


def _run_lanes(
    lanes: list[RecoveryLane],
    work: Callable[[RecoveryLane], None],
    timeout: float | None = None,
) -> None:
    """Run ``work(lane)`` for every lane on its own thread, timed. The
    first lane error re-raises here; a lane still running after
    ``timeout`` raises :class:`RecoveryError` (it keeps running — the
    caller must not act on its result)."""
    errors: list[BaseException] = []

    def timed(lane: RecoveryLane) -> None:
        lane.started = time.monotonic()
        try:
            work(lane)
        except BaseException as exc:  # noqa: BLE001 - re-raised by the joiner
            errors.append(exc)
        finally:
            lane.finished = time.monotonic()

    threads = [
        threading.Thread(
            target=timed,
            args=(lane,),
            name=f"recovery-{lane.phase}-{lane.leader}"
            + (f"-{lane.backup}" if lane.backup >= 0 else ""),
            daemon=True,
        )
        for lane in lanes
    ]
    for thread in threads:
        thread.start()
    deadline = None if timeout is None else time.monotonic() + timeout
    for thread in threads:
        thread.join(None if deadline is None else max(deadline - time.monotonic(), 0.0))
    stalled = [thread.name for thread in threads if thread.is_alive()]
    if stalled:
        raise RecoveryError(
            f"lanes still running after {timeout}s: {', '.join(stalled)}"
        )
    if errors:
        raise errors[0]


class MoveSource:
    """Where a move's chunks come from, and what holds still meanwhile."""

    def fence(self, cluster: LiveKeraCluster) -> None:
        """Stop the current leader from accepting the moving data."""
        raise NotImplementedError

    def gather(self, cluster: LiveKeraCluster, plan: RecoveryPlan) -> dict[int, list[Run]]:
        """The ordered runs each target leader must ingest."""
        raise NotImplementedError

    def abandon(self, cluster: LiveKeraCluster) -> None:
        """The move failed before its commit: lift what :meth:`fence`
        set, if the old leader can still serve."""

    def release(self, cluster: LiveKeraCluster) -> None:
        """Routing is committed: let go of the copy that was read."""


class BackupSource(MoveSource):
    """A dead node, read back from the surviving backups' copies of its
    virtual segments."""

    def __init__(self, failed_broker: int, lanes: list[RecoveryLane]) -> None:
        self.failed_broker = failed_broker
        self.lanes = lanes  # the timed read lanes are recorded here
        #: Backups that contributed at least one virtual segment.
        self.backups_read = 0
        self.vsegs_merged = 0

    def _surviving_backups(self, cluster: LiveKeraCluster) -> list[int]:
        return [
            node
            for node in sorted(cluster.backups)
            if node != self.failed_broker and not cluster.is_failed(node)
        ]

    def fence(self, cluster: LiveKeraCluster) -> None:
        cluster.fence_node(self.failed_broker)
        copies = cluster.config.replication.num_backup_copies
        candidates = len(cluster.live_broker_ids) - 1
        if copies and candidates < copies:
            # Typed refusal: recovering would silently under-replicate.
            raise ReplicationError(
                f"cluster too small after losing node {self.failed_broker}: "
                f"need {copies} backups per broker, have {candidates} candidates"
            )
        # Survivors swap the dead node out of their virtual segments and
        # re-ship the durable prefixes to the replacements.
        cluster.repair_backups_for(self.failed_broker)

    def gather(self, cluster: LiveKeraCluster, plan: RecoveryPlan) -> dict[int, list[Run]]:
        leaders = sorted(set(plan.reassignments.values()))
        backups = self._surviving_backups(cluster)
        # One read lane per (new leader, surviving backup) — RAMCloud's
        # partitioned recovery read: each lane pulls that backup's
        # virtual segments for the dead broker and keeps the chunks its
        # leader will own, preserving vseg structure (a filtered prefix
        # is still a prefix, so the merge's consistency check holds on
        # the filtered runs).
        copies: dict[tuple[int, int], list[Run]] = {}

        def read(lane: RecoveryLane) -> None:
            # Through the cluster accessor, so a backup in another
            # address space answers over its transport.
            run = cluster.backup_recovery_chunks(lane.backup, self.failed_broker)
            mine: list[Run] = []
            for vseg_id, chunks in run:
                kept = [
                    c
                    for c in chunks
                    if plan.reassignments.get((c.stream_id, c.streamlet_id))
                    == lane.leader
                ]
                if kept:
                    mine.append((vseg_id, kept))
            lane.vsegs = len(mine)
            lane.chunks = sum(len(chunks) for _, chunks in mine)
            copies[(lane.leader, lane.backup)] = mine

        read_lanes = [
            RecoveryLane(leader=leader, backup=backup, phase="read")
            for leader in leaders
            for backup in backups
        ]
        self.lanes.extend(read_lanes)
        _run_lanes(read_lanes, read)  # each read is bounded by its RPC timeout
        self.backups_read = sum(
            1 for backup in backups if any(copies[(ld, backup)] for ld in leaders)
        )
        # Merge each leader's copies: longest prefix wins, repair echoes
        # collapsed.
        by_leader: dict[int, list[Run]] = {}
        vsegs: set[int] = set()
        for leader in leaders:
            merged = merge_backup_copies([copies[(leader, b)] for b in backups])
            vsegs.update(vseg_id for vseg_id, _ in merged)
            if merged:
                by_leader[leader] = merged
        self.vsegs_merged = len(vsegs)
        return by_leader

    def release(self, cluster: LiveKeraCluster) -> None:
        for node in self._surviving_backups(cluster):
            cluster.backup_drop_broker(node, self.failed_broker)


def move_streamlets(
    cluster: LiveKeraCluster,
    plan: RecoveryPlan,
    source: MoveSource,
    *,
    replay_timeout: float = 30.0,
    lanes: list[RecoveryLane] | None = None,
) -> list[RecoveryLane]:
    """Move ``plan``'s streamlets to their new leaders (module docstring)
    and return the replay lanes, which hold the counts.

    ``plan`` must have deferred routing: the catalog flips here, after
    every replay lane finished. A lane that failed, or is still running
    after ``replay_timeout``, raises (typed) with routing untouched —
    committing then would re-route retries ahead of the prefix the lane
    is still replaying. Replay lanes are also appended to ``lanes``.
    """
    if lanes is None:
        lanes = []
    source.fence(cluster)
    try:
        # A node that led nothing has nothing to read: fencing was the move.
        by_target = source.gather(cluster, plan) if plan.reassignments else {}
        for (stream_id, streamlet_id), target in plan.reassignments.items():
            cluster.brokers[target].ensure_streamlet(stream_id, streamlet_id)
            # A streamlet moving back to a node it once left.
            cluster.broker_service(target).unfence_streamlet(stream_id, streamlet_id)
        # One replay lane per target leader, in parallel — a (stream,
        # streamlet, producer) sequence lives entirely within one
        # streamlet, hence one leader, so cross-leader order is free.
        replay_lanes = [
            RecoveryLane(leader=target, backup=-1, phase="replay")
            for target in sorted(by_target)
        ]
        lanes.extend(replay_lanes)
        _run_lanes(
            replay_lanes,
            lambda lane: replay_runs(cluster, lane, by_target[lane.leader]),
            replay_timeout,
        )
        cluster.coordinator.commit_recovery(plan)
    except BaseException:
        source.abandon(cluster)
        raise
    source.release(cluster)
    return replay_lanes


# -- callers: crash recovery, restart -----------------------------------------------------


@dataclass
class RecoveryReport:
    """What a recovery pass did."""

    failed_broker: int
    vsegs_merged: int = 0
    chunks_recovered: int = 0
    records_recovered: int = 0
    duplicates_dropped: int = 0
    #: (stream, streamlet) -> new leader, as executed.
    reassignments: dict[tuple[int, int], int] = field(default_factory=dict)
    #: How many backups contributed at least one virtual segment.
    backups_read: int = 0
    #: Every read and replay lane, timed.
    lanes: list[RecoveryLane] = field(default_factory=list)


def recover_broker(
    cluster: LiveKeraCluster,
    failed_broker: int,
    *,
    replay_timeout: float = 30.0,
    report: RecoveryReport | None = None,
) -> RecoveryReport:
    """Recover one crashed broker, on any live driver: the coordinator
    spreads its streamlets over the survivors and :func:`move_streamlets`
    re-ingests them from the backups. Raises typed (``ReplicationError``
    for a cluster too small to keep the copy count, ``RecoveryError``
    for replica divergence or a stalled lane) with routing uncommitted;
    a caller-supplied ``report`` then still holds the plan and the lanes
    run so far."""
    report = report or RecoveryReport(failed_broker=failed_broker)
    plan = cluster.coordinator.plan_recovery(failed_broker, defer_routing=True)
    report.reassignments = dict(plan.reassignments)
    source = BackupSource(failed_broker, report.lanes)
    replayed = move_streamlets(
        cluster, plan, source, replay_timeout=replay_timeout, lanes=report.lanes
    )
    report.vsegs_merged = source.vsegs_merged
    report.backups_read = source.backups_read
    report.duplicates_dropped = sum(lane.duplicates for lane in replayed)
    report.chunks_recovered = sum(lane.chunks - lane.duplicates for lane in replayed)
    report.records_recovered = sum(lane.records for lane in replayed)
    return report


@dataclass
class RestoreReport:
    """What a restart-from-disk restore pass did."""

    #: Backups whose disk held at least one segment file.
    backups_loaded: int = 0
    segment_files_read: int = 0
    chunks_loaded: int = 0
    #: Torn-tail bytes discarded while recovering segment files.
    bytes_truncated: int = 0
    indexes_rebuilt: int = 0
    #: Prior-incarnation brokers whose data was replayed, in id order.
    brokers_restored: list[int] = field(default_factory=list)
    vsegs_merged: int = 0
    chunks_replayed: int = 0
    records_restored: int = 0
    duplicates_dropped: int = 0


def restore_cluster_from_disk(
    cluster: LiveKeraCluster, *, parallel: int = 4, retire: bool = True
) -> RestoreReport:
    """Restart path: rebuild a fresh cluster from its backups' disks.

    Run against a *new* cluster incarnation pointed at the previous
    incarnation's ``persist_dir`` (streams re-created, no traffic yet):

    1. Every backup re-ingests its surviving segment files
       (:meth:`~repro.kera.backup.KeraBackupCore.load_from_disk` — torn
       tails truncated, indexes rebuilt, files read in parallel).
    2. For each prior broker, the per-backup copies are merged by virtual
       segment id exactly as live recovery merges them — with R >= 2 a
       backup that lost its unsynced tail is healed by a replica that
       fsynced further.
    3. Chunks are replayed in virtual-log order (:func:`replay_runs`)
       into the leaders the new catalog names, so they re-replicate and
       re-persist under the new incarnation's epoch. Exactly-once
       de-duplication drops chunks that reached several prior virtual
       logs (repair migration), keeping the replay idempotent.
    4. With ``retire=True`` the replay is fsynced and the consumed epoch
       directories are retired, so a second restart restores from the new
       epoch alone.
    """
    report = RestoreReport()
    nodes = sorted(cluster.backups)
    for node in nodes:
        summary = cluster.backup_load_disk(node, parallel=parallel)
        if summary["segments"]:
            report.backups_loaded += 1
        report.segment_files_read += summary["segments"]
        report.chunks_loaded += summary["chunks_loaded"]
        report.bytes_truncated += summary["bytes_truncated"]
        report.indexes_rebuilt += summary["indexes_rebuilt"]

    prior_brokers = sorted(
        {broker for node in nodes for broker in cluster.backup_loaded_brokers(node)}
    )
    replayed: dict[int, RecoveryLane] = {}
    for failed_broker in prior_brokers:
        copies = []
        for node in nodes:
            run = cluster.backup_disk_recovery_chunks(node, failed_broker)
            if run:
                copies.append(run)
        merged = merge_backup_copies(copies)
        report.vsegs_merged += len(merged)
        report.brokers_restored.append(failed_broker)
        for vseg_id, chunks in merged:
            by_leader: dict[int, list[Chunk]] = {}
            for chunk in chunks:
                leader = cluster.leader_of(chunk.stream_id, chunk.streamlet_id)
                by_leader.setdefault(leader, []).append(chunk)
            for leader, kept in by_leader.items():
                lane = replayed.setdefault(
                    leader, RecoveryLane(leader=leader, backup=-1, phase="replay")
                )
                replay_runs(cluster, lane, [(vseg_id, kept)])
    lanes = replayed.values()
    report.duplicates_dropped = sum(lane.duplicates for lane in lanes)
    report.chunks_replayed = sum(lane.chunks - lane.duplicates for lane in lanes)
    report.records_restored = sum(lane.records for lane in lanes)

    if retire:
        # Only drop the consumed generation once the replay itself is on
        # disk under the new epoch — a crash mid-restore must still find
        # one complete copy.
        for node in nodes:
            cluster.backup_sync_flush(node)
        for node in nodes:
            cluster.backup_retire_epochs(node)
    return report
