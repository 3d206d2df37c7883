"""System adapters: what KerA and Kafka each contribute to the runtime.

An adapter owns the system's cores and the system-specific wiring that
every driver used to duplicate: core construction, stream-catalog
fan-out, and (for KerA) the single place a :class:`ReplicateRequest` is
built from a batch — for the one ship loop,
:class:`repro.replication.ship_core.ShipCore`, whether its shell is
:class:`repro.kera.shipper.PipelinedShipper` (every live driver) or
:class:`repro.runtime.sim.SimShipper` (the simulator).

Cores are imported lazily inside methods: ``repro.kera`` and
``repro.kafka`` import this package for their drivers, so a module-level
import here would be circular.
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.replication.virtual_log import ReplicationBatch
    from repro.runtime.completion import CompletionTracker


class SystemAdapter:
    """One storage system's contribution to a :class:`ClusterRuntime`."""

    #: Adapter name, for diagnostics.
    name: str = "system"
    #: Node ids the system's cores run on.
    node_ids: list[int]

    def build_cores(self, completion: "CompletionTracker") -> None:
        """Construct the system's cores, wiring each broker's
        ``on_request_complete`` into the runtime's tracker."""
        raise NotImplementedError

    def on_stream_created(self, meta: Any) -> None:
        """Fan a new stream's partitions out to the cores that lead them."""


class KeraSystem(SystemAdapter):
    """KerA: broker + backup core per node, push replication."""

    name = "kera"

    def __init__(self, config: Any) -> None:
        self.config = config
        self.node_ids = list(range(config.num_brokers))
        self.broker_cores: dict[int, Any] = {}
        self.backup_cores: dict[int, Any] = {}

    def build_cores(self, completion: "CompletionTracker") -> None:
        from repro.kera.backup import KeraBackupCore
        from repro.kera.broker import KeraBrokerCore

        config = self.config
        for node in self.node_ids:
            self.broker_cores[node] = KeraBrokerCore(
                broker_id=node,
                nodes=self.node_ids,
                storage_config=config.storage,
                replication_config=config.replication,
                on_request_complete=completion.callback_for(node),
                fanout_cache_bytes=config.fanout_cache_bytes,
            )
            self.backup_cores[node] = KeraBackupCore(**self.backup_core_kwargs(node))

    def backup_core_kwargs(self, node: int) -> dict[str, Any]:
        """``KeraBackupCore`` constructor arguments for one node — plain
        picklable values, so a driver can build the same core in a
        worker process instead."""
        config = self.config
        persist_dir = config.persist_dir
        return {
            "node_id": node,
            "materialize": config.storage.materialize,
            "flush_threshold": config.flush_threshold,
            "disk_dir": f"{persist_dir}/node{node}" if persist_dir is not None else None,
            "fsync_policy": config.replication.fsync_policy,
            "spill": config.replication.spill_sealed,
        }

    def on_stream_created(self, meta: Any) -> None:
        for node in self.node_ids:
            local = meta.streamlets_on(node)
            if local:
                self.broker_cores[node].create_stream(meta.stream_id, local)

    # -- replication ------------------------------------------------------------

    @staticmethod
    def replicate_request(broker_id: int, batch: "ReplicationBatch") -> Any:
        """The wire form of one replication batch — built here and only
        here, for both shells of the ship loop, repairs included.

        Materialized segments ship zero-copy ``frames`` (memoryview
        slices of the already-encoded, placement-stamped segment bytes);
        metadata-only segments ship synthesized meta chunks with
        identical accounting."""
        from repro.replication.manager import wire_chunks
        from repro.kera.messages import ReplicateRequest

        refs = batch.refs
        if refs and refs[0].stored.segment.buffer.materialized:
            return ReplicateRequest(
                src_broker=broker_id,
                vlog_id=batch.vlog_id,
                vseg_id=batch.vseg.vseg_id,
                vseg_capacity=batch.vseg.capacity,
                batch_checksum=batch.vseg.checksum,
                frames=tuple(ref.stored.encoded_view() for ref in refs),
                # The views alias the broker's own segment memory, whose
                # payload CRCs were computed/checked when the bytes entered
                # this process; only a copying transport clears the bit.
                frames_verified=True,
            )
        return ReplicateRequest(
            src_broker=broker_id,
            vlog_id=batch.vlog_id,
            vseg_id=batch.vseg.vseg_id,
            vseg_capacity=batch.vseg.capacity,
            batch_checksum=batch.vseg.checksum,
            chunks=list(wire_chunks(batch)),
        )


class KafkaSystem(SystemAdapter):
    """Kafka baseline: one broker core per node, pull replication."""

    name = "kafka"

    def __init__(self, config: Any) -> None:
        self.config = config
        self.node_ids = list(range(config.num_brokers))
        self.broker_cores: dict[int, Any] = {}
        #: (follower, leader) -> partitions the follower replicates.
        self.follow_map: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def build_cores(self, completion: "CompletionTracker") -> None:
        from repro.kafka.broker import KafkaBrokerCore

        for node in self.node_ids:
            self.broker_cores[node] = KafkaBrokerCore(
                broker_id=node,
                config=self.config,
                on_request_complete=completion.callback_for(node),
            )

    def followers_of(self, leader: int) -> tuple[int, ...]:
        B = len(self.node_ids)
        return tuple(
            self.node_ids[(leader + 1 + i) % B]
            for i in range(self.config.num_followers)
        )

    def on_stream_created(self, meta: Any) -> None:
        for partition, leader in meta.leaders.items():
            followers = self.followers_of(leader)
            self.broker_cores[leader].add_leader_partition(
                meta.stream_id, partition, followers
            )
            for follower in followers:
                self.broker_cores[follower].add_replica_partition(
                    meta.stream_id, partition
                )
                self.follow_map.setdefault((follower, leader), []).append(
                    (meta.stream_id, partition)
                )
