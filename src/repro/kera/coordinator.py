"""The coordinator: cluster metadata and recovery orchestration.

``The coordinator manages storage nodes on which live broker and backup
processes`` (paper, Figure 1). It owns the stream catalog — which broker
leads which streamlet — hands clients their routing tables, and plans
crash recovery: the failed broker's streamlets are spread over the
survivors, which then re-ingest the lost data from the backups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError, RecoveryError, StorageError


@dataclass
class StreamMetadata:
    """Catalog entry for one stream."""

    stream_id: int
    #: streamlet id -> leading broker node.
    leaders: dict[int, int] = field(default_factory=dict)

    @property
    def streamlet_ids(self) -> list[int]:
        return sorted(self.leaders)

    def streamlets_on(self, broker: int) -> list[int]:
        return sorted(sid for sid, b in self.leaders.items() if b == broker)


@dataclass
class RecoveryPlan:
    """A reassignment of streamlets to new leaders: a crashed broker's
    whole load spread over the survivors, or one streamlet's voluntary
    move (:meth:`Coordinator.plan_migration`)."""

    #: The leader the streamlets move off: the broker that died, or the
    #: live leader of a voluntary move.
    source: int
    #: (stream_id, streamlet_id) -> new leading broker.
    reassignments: dict[tuple[int, int], int]
    survivors: list[int]


class Coordinator:
    """Cluster catalog. Pure metadata — no time, no transport."""

    def __init__(self, broker_ids: list[int]) -> None:
        if not broker_ids:
            raise ConfigError("cluster needs at least one broker")
        self.broker_ids = sorted(broker_ids)
        self._streams: dict[int, StreamMetadata] = {}
        self._failed: set[int] = set()

    # -- catalog ------------------------------------------------------------

    @property
    def live_brokers(self) -> list[int]:
        return [b for b in self.broker_ids if b not in self._failed]

    def create_stream(self, stream_id: int, num_streamlets: int) -> StreamMetadata:
        """Create a stream of M streamlets, spread round-robin over the
        live brokers (M >= number of brokers gives every broker work; the
        paper also supports M below that for tiny streams)."""
        if stream_id in self._streams:
            raise StorageError(f"stream {stream_id} already exists")
        if num_streamlets < 1:
            raise ConfigError("a stream needs at least one streamlet")
        live = self.live_brokers
        meta = StreamMetadata(stream_id=stream_id)
        for sid in range(num_streamlets):
            # Offset by stream id so single-streamlet streams spread out.
            meta.leaders[sid] = live[(stream_id + sid) % len(live)]
        self._streams[stream_id] = meta
        return meta

    def stream(self, stream_id: int) -> StreamMetadata:
        try:
            return self._streams[stream_id]
        except KeyError:
            raise StorageError(f"unknown stream {stream_id}") from None

    @property
    def streams(self) -> list[StreamMetadata]:
        return [self._streams[k] for k in sorted(self._streams)]

    def partitions_on(self, broker: int) -> list[tuple[int, int]]:
        """All (stream, streamlet) pairs a broker leads."""
        out = []
        for meta in self.streams:
            for sid in meta.streamlets_on(broker):
                out.append((meta.stream_id, sid))
        return out

    # -- failure handling -------------------------------------------------------

    def plan_recovery(
        self, failed_broker: int, *, defer_routing: bool = False
    ) -> RecoveryPlan:
        """Mark a broker failed and reassign its streamlets round-robin
        over the survivors — ``each virtual log can be recovered in
        parallel over many brokers that become the primary leader of the
        partitions associated to recovered virtual logs``.

        With ``defer_routing`` the catalog keeps pointing at the failed
        (fenced) broker until :meth:`commit_recovery` runs. Live failover
        needs the gap: re-routing a producer's retries to the new leader
        *before* replay finishes would let a retried chunk_seq land ahead
        of the replayed acked prefix, and the broker's exactly-once dedup
        would then drop the replay as a stale duplicate — acked-record
        loss. Clients retrying against the fenced broker get a typed
        routing error until the commit.
        """
        if failed_broker not in self.broker_ids:
            raise RecoveryError(f"unknown broker {failed_broker}")
        if failed_broker in self._failed:
            raise RecoveryError(f"broker {failed_broker} already failed")
        self._failed.add(failed_broker)
        survivors = self.live_brokers
        if not survivors:
            raise RecoveryError("no survivors to recover onto")
        reassignments: dict[tuple[int, int], int] = {}
        i = 0
        for meta in self.streams:
            for sid in meta.streamlets_on(failed_broker):
                target = survivors[i % len(survivors)]
                reassignments[(meta.stream_id, sid)] = target
                if not defer_routing:
                    meta.leaders[sid] = target
                i += 1
        return RecoveryPlan(
            source=failed_broker,
            reassignments=reassignments,
            survivors=survivors,
        )

    def plan_migration(
        self, stream_id: int, streamlet_id: int, target: int
    ) -> RecoveryPlan:
        """Plan one streamlet's voluntary move to ``target``. Routing is
        always deferred: the catalog keeps pointing at the current
        leader until :meth:`commit_recovery`."""
        leaders = self.stream(stream_id).leaders
        if streamlet_id not in leaders:
            raise StorageError(f"stream {stream_id} has no streamlet {streamlet_id}")
        if target not in self.live_brokers:
            raise StorageError(f"target broker {target} is not a live broker")
        if target == leaders[streamlet_id]:
            raise StorageError(f"streamlet already led by broker {target}")
        return RecoveryPlan(
            source=leaders[streamlet_id],
            reassignments={(stream_id, streamlet_id): target},
            survivors=self.live_brokers,
        )

    def commit_recovery(self, plan: RecoveryPlan) -> None:
        """Apply a deferred plan's leader updates: replay finished, the
        new leaders own every re-ingested record, clients may re-route.
        Refused whole if another move re-routed one of the streamlets
        meanwhile — its target may have taken writes this one lacks."""
        moved = [k for k in plan.reassignments if self.stream(k[0]).leaders[k[1]] != plan.source]
        if moved:
            raise RecoveryError(
                f"{moved} left broker {plan.source} under the move; routing not committed"
            )
        for (stream_id, sid), target in plan.reassignments.items():
            self.stream(stream_id).leaders[sid] = target
