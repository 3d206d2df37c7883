"""The Kafka broker core: leader logs, follower replicas, fetch serving.

Sans-IO, like :class:`repro.kera.broker.KeraBrokerCore`: no time, no
transport. The driver supplies timing and runs the follower fetch loops;
this core owns log state, high-watermark accounting, and produce-ack
completion callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from repro.common.errors import StorageError, UnknownStreamError
from repro.wire.chunk import Chunk
from repro.kafka.config import KafkaConfig
from repro.kafka.log import PartitionLog
from repro.kera.messages import (
    FetchEntry,
    FetchPosition,
    FetchRequest,
    FetchResponse,
    ProduceRequest,
    ProduceResponse,
    ChunkAssignment,
)

RequestDoneCallback = Callable[[int], None]


@dataclass
class KafkaProduceOutcome:
    """Result of a produce: the response plus ack state."""

    request_id: int
    response: ProduceResponse
    new_records: int = 0
    new_bytes: int = 0
    #: Partitions whose logs gained data (drives follower wake-ups).
    touched: list[tuple[int, int]] = field(default_factory=list)
    #: True when the ack must wait for the high watermark (acks=all).
    pending: bool = False


@dataclass
class ReplicaFetchItem:
    """One partition's slice of a follower fetch request/response."""

    topic: int
    partition: int
    #: Next offset the follower wants == count of batches it already has.
    next_offset: int


class KafkaBrokerCore:
    """One Kafka broker: leader for some partitions, follower for others."""

    def __init__(
        self,
        *,
        broker_id: int,
        config: KafkaConfig,
        on_request_complete: RequestDoneCallback | None = None,
    ) -> None:
        self.broker_id = broker_id
        self.config = config
        self.on_request_complete = on_request_complete
        #: Partitions this broker leads.
        self.leader_logs: dict[tuple[int, int], PartitionLog] = {}
        #: Follower copies: (topic, partition) -> list of fetched batches.
        self.replica_logs: dict[tuple[int, int], list[Chunk]] = {}
        # Ack bookkeeping: request -> partitions still below the HW.
        self._request_remaining: dict[int, int] = {}
        # Stats.
        self.records_ingested = 0
        self.chunks_ingested = 0
        self.bytes_ingested = 0
        self.replica_batches_fetched = 0

    # -- topology ---------------------------------------------------------------

    def add_leader_partition(
        self, topic: int, partition: int, followers: tuple[int, ...]
    ) -> PartitionLog:
        key = (topic, partition)
        if key in self.leader_logs:
            raise StorageError(f"already leading {key}")
        log = PartitionLog(
            topic=topic, partition=partition, leader=self.broker_id, followers=followers
        )
        self.leader_logs[key] = log
        return log

    def add_replica_partition(self, topic: int, partition: int) -> None:
        self.replica_logs.setdefault((topic, partition), [])

    def log(self, topic: int, partition: int) -> PartitionLog:
        try:
            return self.leader_logs[(topic, partition)]
        except KeyError:
            raise UnknownStreamError(topic) from None

    # -- produce path ------------------------------------------------------------------

    def handle_produce(self, request: ProduceRequest) -> KafkaProduceOutcome:
        outcome = KafkaProduceOutcome(
            request_id=request.request_id,
            response=ProduceResponse(request_id=request.request_id, assignments=[]),
        )
        ends: dict[tuple[int, int], int] = {}
        for chunk in request.chunks:
            log = self.log(chunk.stream_id, chunk.streamlet_id)
            offset = log.append(chunk)
            ends[(chunk.stream_id, chunk.streamlet_id)] = offset + 1
            outcome.new_records += chunk.record_count
            outcome.new_bytes += chunk.payload_len
            self.records_ingested += chunk.record_count
            self.chunks_ingested += 1
            self.bytes_ingested += chunk.payload_len
            outcome.response.assignments.append(
                ChunkAssignment(
                    stream_id=chunk.stream_id,
                    streamlet_id=chunk.streamlet_id,
                    group_id=0,
                    segment_id=0,
                    offset=offset,
                )
            )
        outcome.touched = list(ends)
        waiting = 0
        for (topic, partition), end in ends.items():
            log = self.leader_logs[(topic, partition)]
            if not log.register_ack(end, request.request_id):
                waiting += 1
        if waiting:
            outcome.pending = True
            self._request_remaining[request.request_id] = waiting
        return outcome

    def _release(self, request_ids: Iterable[int]) -> None:
        for request_id in request_ids:
            remaining = self._request_remaining.get(request_id, 0) - 1
            if remaining <= 0:
                self._request_remaining.pop(request_id, None)
                if self.on_request_complete is not None:
                    self.on_request_complete(request_id)
            else:
                self._request_remaining[request_id] = remaining

    # -- passive replication (leader side) ------------------------------------------------

    def handle_replica_fetch(
        self, follower: int, items: list[ReplicaFetchItem]
    ) -> list[tuple[ReplicaFetchItem, list[Chunk], int]]:
        """Serve one follower fetch. First the offsets the follower now
        reports are committed (advancing high watermarks and releasing
        produce acks — Kafka's fetch-is-the-ack protocol), then new data
        is gathered under the per-partition and per-response byte caps."""
        response: list[tuple[ReplicaFetchItem, list[Chunk], int]] = []
        total = 0
        for item in items:
            log = self.log(item.topic, item.partition)
            self._release(log.advance_follower(follower, item.next_offset))
            budget = min(
                self.config.replica_fetch_max_bytes,
                self.config.replica_fetch_response_max_bytes - total,
            )
            if budget <= 0:
                batches: list[Chunk] = []
                next_offset = item.next_offset
            else:
                batches, next_offset = log.fetch_from(
                    item.next_offset, max_bytes=budget
                )
            total += sum(b.size for b in batches)
            response.append((item, batches, next_offset))
        return response

    # -- follower side ----------------------------------------------------------------------

    def apply_replica_batches(
        self, topic: int, partition: int, batches: list[Chunk]
    ) -> None:
        self.replica_logs.setdefault((topic, partition), []).extend(batches)
        self.replica_batches_fetched += len(batches)

    # -- consumer path ------------------------------------------------------------------------

    def handle_fetch(self, request: FetchRequest) -> FetchResponse:
        """Consumers read below the high watermark only. The cursor's
        ``chunk_pos`` field carries the batch offset (Kafka has no group
        hierarchy; ``group_pos`` stays 0)."""
        entries = []
        for pos in request.positions:
            log = self.log(pos.stream_id, pos.streamlet_id)
            batches, next_offset = log.consumer_fetch(
                pos.chunk_pos, request.max_chunks_per_entry
            )
            entries.append(
                FetchEntry(
                    position=pos,
                    chunks=batches,
                    next_position=FetchPosition(
                        stream_id=pos.stream_id,
                        streamlet_id=pos.streamlet_id,
                        entry=pos.entry,
                        group_pos=0,
                        chunk_pos=next_offset,
                    ),
                )
            )
        return FetchResponse(request_id=request.request_id, entries=entries)

    # -- introspection ----------------------------------------------------------------------------

    def pending_requests(self) -> int:
        return len(self._request_remaining)
