"""Chaos harness: SIGKILL a node under live load and prove zero loss.

The harness drives a live cluster with concurrent pinned producers,
kills one broker node mid-stream (a real ``SIGKILL`` of its worker
process on the process/socket drivers, a fence + explicit verdict on
the purely in-parent threaded driver), waits for the failover plane to
recover, and then audits the log: **every record whose produce call
returned acked must be fetchable afterwards** — acked-then-lost is the
one outcome chaos exists to rule out.

Producers retry on the typed routing/replication errors the failover
path emits (``NotLeaderError`` while the dead broker is fenced and the
catalog not yet re-routed, ``ReplicationError``/``RpcError`` for
transport casualties), re-sending the *same* chunk object: an unchanged
``(producer, streamlet, chunk_seq)`` makes the retry idempotent under
the broker's duplicate detection, so a lost ack never double-writes.

This module touches ``os``/``signal`` and threads; it is deliberately
not imported from ``repro.failover.__init__`` so nothing sim-reachable
ever pulls it in (checked by the A002 purity rule).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.common.errors import NotLeaderError, ReplicationError, RpcError
from repro.failover.plane import FailoverPlane, FailoverReport
from repro.kera.live import LiveKeraCluster
from repro.kera.messages import FetchPosition
from repro.wire.chunk import ChunkBuilder
from repro.wire.record import Record, decode_records, encode_records

#: Errors a producer treats as "refresh routing and retry the same chunk".
RETRYABLE = (NotLeaderError, ReplicationError, RpcError)


def kill_node(cluster: LiveKeraCluster, node_id: int) -> str:
    """Kill one node as brutally as the driver allows.

    Process-backed drivers get a real ``SIGKILL`` of the node's worker
    process — detection must then come from transport liveness (a reaped
    child, a broken socket). The threaded driver has no per-node process
    to shoot, so the harness fences the node and hands the detector an
    explicit verdict. Returns the mode used (``"sigkill"``/``"fence"``).
    """
    pid_fn = getattr(cluster.transport, "worker_pid", None)
    if pid_fn is not None:
        pid = pid_fn(node_id, "backup")
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            return "sigkill"
    cluster.fence_node(node_id)
    plane = cluster._failover
    if isinstance(plane, FailoverPlane):
        plane.detector.report_dead(
            node_id, f"chaos kill of node {node_id}", source="report"
        )
    return "fence"


@dataclass
class ChaosResult:
    """What one chaos run did, with the loss audit."""

    victim: int
    kill_mode: str
    report: FailoverReport | None
    #: (producer, seq) pairs whose produce call returned before stop.
    acked: int = 0
    #: Acked pairs found in the post-recovery log.
    verified: int = 0
    #: Acked pairs missing from the log — must be empty.
    lost: list[tuple[int, int]] = field(default_factory=list)
    #: Records fetched that appeared more than once — must be empty.
    duplicated: list[tuple[int, int]] = field(default_factory=list)
    retries: int = 0
    #: Producers that exhausted their retry budget (their error).
    producer_errors: list[BaseException] = field(default_factory=list)
    throughput_before: float = 0.0
    throughput_during: float = 0.0

    @property
    def zero_loss(self) -> bool:
        return not self.lost and not self.duplicated

    @property
    def recovery_ms(self) -> float:
        return 0.0 if self.report is None else self.report.recovery_seconds * 1000.0

    @property
    def parallelism(self) -> int:
        return 0 if self.report is None else self.report.parallelism

    @property
    def throughput_dip(self) -> float:
        """Fractional throughput lost during the recovery window versus
        the pre-kill window (0.0 = no dip, 1.0 = full stall)."""
        if self.throughput_before <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.throughput_during / self.throughput_before)


class _Producer(threading.Thread):
    """One pinned producer: single-record chunks, retry-same-chunk."""

    def __init__(
        self,
        cluster: LiveKeraCluster,
        stream_id: int,
        streamlet_id: int,
        producer_id: int,
        stop: threading.Event,
        retry_timeout: float,
    ) -> None:
        super().__init__(name=f"chaos-producer-{producer_id}", daemon=True)
        self.cluster = cluster
        self.stream_id = stream_id
        self.streamlet_id = streamlet_id
        self.producer_id = producer_id
        self.stop_event = stop
        self.retry_timeout = retry_timeout
        #: (seq, monotonic ack time) for every acked produce.
        self.acked: list[tuple[int, float]] = []
        self.retries = 0
        self.error: BaseException | None = None

    def run(self) -> None:
        seq = 0
        while not self.stop_event.is_set():
            payload = f"p{self.producer_id}-{seq}".encode()
            builder = ChunkBuilder(
                128 + len(payload),
                stream_id=self.stream_id,
                streamlet_id=self.streamlet_id,
                producer_id=self.producer_id,
            )
            builder.try_append_encoded(encode_records([Record(value=payload)]), 1)
            chunk = builder.build(seq)
            deadline = time.monotonic() + self.retry_timeout
            backoff = 0.01
            while True:
                try:
                    self.cluster.produce([chunk], producer_id=self.producer_id)
                    break
                except RETRYABLE as exc:
                    # Typed, retryable: the broker is fenced / moving.
                    # Same chunk object, same chunk_seq — the broker's
                    # dedup makes the retry exactly-once.
                    self.retries += 1
                    if time.monotonic() >= deadline:
                        self.error = exc
                        return
                    time.sleep(backoff)
                    backoff = min(backoff * 2.0, 0.2)
            self.acked.append((seq, time.monotonic()))
            seq += 1


def _fetch_all_values(
    cluster: LiveKeraCluster, stream_id: int, num_streamlets: int
) -> list[bytes]:
    """Every record value durable in the stream, across all streamlets
    and active groups, paged to exhaustion."""
    values: list[bytes] = []
    q = cluster.config.storage.q_active_groups
    for sid in range(num_streamlets):
        for entry in range(q):
            position = FetchPosition(stream_id, sid, entry)
            while True:
                response = cluster.fetch(
                    [position], consumer_id=9_000 + sid, max_chunks_per_entry=64
                )[0]
                got = 0
                for fetch_entry in response.entries:
                    for view in fetch_entry.chunks:
                        records = decode_records(view.payload_view, verify=True)
                        got += len(records)
                        values.extend(r.value for r in records)
                    position = fetch_entry.next_position
                if got == 0:
                    break
    return values


def read_back(
    cluster: LiveKeraCluster, stream_id: int, num_streamlets: int
) -> list[tuple[int, int]]:
    """Every producer record durable in the stream as ``(producer,
    seq)``, in log order within each sub-partition."""
    pairs = []
    for value in _fetch_all_values(cluster, stream_id, num_streamlets):
        text = value.decode()
        if text.startswith("p"):
            pid_s, _, seq_s = text[1:].partition("-")
            pairs.append((int(pid_s), int(seq_s)))
    return pairs


def run_chaos(
    cluster: LiveKeraCluster,
    plane: FailoverPlane,
    *,
    stream_id: int = 7,
    num_streamlets: int | None = None,
    producers: int = 8,
    warmup_seconds: float = 0.4,
    post_seconds: float = 0.4,
    victim: int | None = None,
    recovery_timeout: float = 30.0,
    retry_timeout: float = 20.0,
) -> ChaosResult:
    """Kill one broker node under live load; audit for acked-record loss.

    Runs ``producers`` pinned producer threads against ``stream_id``
    (created here, ``num_streamlets`` defaulting to the producer count
    capped at 2× brokers), SIGKILLs the victim after ``warmup_seconds``,
    waits for the plane to report recovery, keeps the load running for
    ``post_seconds``, then fetches the whole stream back and checks every
    acked ``(producer, seq)`` is present exactly once.
    """
    if num_streamlets is None:
        num_streamlets = min(producers, 2 * len(cluster.brokers))
    cluster.create_stream(stream_id, num_streamlets)
    if victim is None:
        victim = cluster.leader_of(stream_id, 0)

    stop = threading.Event()
    workers = [
        _Producer(
            cluster, stream_id, pid % num_streamlets, pid, stop, retry_timeout
        )
        for pid in range(producers)
    ]
    for worker in workers:
        worker.start()
    time.sleep(warmup_seconds)

    kill_time = time.monotonic()
    kill_mode = kill_node(cluster, victim)
    report = plane.wait_recovered(victim, timeout=recovery_timeout)
    time.sleep(post_seconds)
    stop.set()
    for worker in workers:
        worker.join(timeout=retry_timeout + 10.0)

    result = ChaosResult(victim=victim, kill_mode=kill_mode, report=report)
    acked: set[tuple[int, int]] = set()
    ack_times: list[float] = []
    for worker in workers:
        result.retries += worker.retries
        if worker.error is not None:
            result.producer_errors.append(worker.error)
        for seq, at in worker.acked:
            acked.add((worker.producer_id, seq))
            ack_times.append(at)
    result.acked = len(acked)

    # Throughput windows around the kill: the "dip" is how much of the
    # steady-state ack rate the recovery window lost.
    window = max(warmup_seconds, 0.05)
    before = sum(1 for at in ack_times if kill_time - window <= at < kill_time)
    result.throughput_before = before / window
    if report is not None and report.recovery_seconds > 0.0:
        during = sum(
            1
            for at in ack_times
            if kill_time <= at < kill_time + report.recovery_seconds
        )
        result.throughput_during = during / report.recovery_seconds

    # The audit: every acked record must be in the log, exactly once.
    seen = Counter(read_back(cluster, stream_id, num_streamlets))
    result.lost = [key for key in sorted(acked) if seen[key] == 0]
    result.duplicated = [key for key in sorted(acked) if seen[key] > 1]
    result.verified = result.acked - len(result.lost)
    return result
