"""Replication configuration: factor, capacity, and sharing policy."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import MB


class PolicyMode(enum.Enum):
    """How streamlets are associated with virtual logs.

    * ``SHARED`` — the broker's virtual logs are shared by *all* streams;
      a streamlet maps to ``hash(stream, streamlet) % vlogs_per_broker``
      (the paper's latency-oriented configurations: "four virtual logs per
      broker shared by all streams").
    * ``PER_SUBPARTITION`` — one virtual log per (streamlet, active-group
      entry) pair (the throughput configurations: "one virtual log per
      sub-partition", 32 per broker in Figures 17-21).
    """

    SHARED = "shared"
    PER_SUBPARTITION = "per_subpartition"


@dataclass(frozen=True)
class ReplicationConfig:
    """Tunables for the virtual-log replication engine."""

    #: R: total copies including the broker's (paper: 1-3).
    replication_factor: int = 3
    #: Replication capacity: virtual logs per broker (SHARED mode).
    vlogs_per_broker: int = 4
    #: Virtual space per virtual segment.
    virtual_segment_size: int = 8 * MB
    #: Streamlet-to-virtual-log association mode.
    policy: PolicyMode = PolicyMode.SHARED
    #: Cap on chunks shipped per replication RPC (0 = unlimited): the
    #: group-commit batch is otherwise bounded only by what accumulated
    #: while the previous RPC was in flight.
    max_batch_chunks: int = 0
    #: Cap on payload bytes per replication RPC (0 = unlimited).
    max_batch_bytes: int = 0
    #: Replication RPCs one virtual log may keep in flight concurrently.
    #: 1 (default) is the paper's self-clocking group commit: the next
    #: batch waits for the previous ack. Higher values pipeline shipping —
    #: acks may return out of order; durability still applies strictly in
    #: issue order (see ``VirtualLog.complete_batch``).
    pipeline_depth: int = 1
    #: Credit window for the ship loop: bound on unacked replication
    #: payload bytes per broker (0 = unlimited). Producers observe
    #: bounded ``in_flight_bytes`` instead of blocking on one synchronous
    #: round-trip per batch.
    ship_window_bytes: int = 0
    #: Durable tier (live drivers with a persist dir): when backups
    #: ``fsync`` their segment files — ``never`` (OS decides), ``always``
    #: (every flush), ``interval:<ms>`` (time-batched), or ``bytes:<n>``
    #: (every n unsynced bytes). Parsed by
    #: :meth:`repro.persist.FlushPolicy.parse`; validated structurally
    #: here so the config layer stays free of file-I/O imports.
    fsync_policy: str = "never"
    #: Durable tier: migrate sealed, fully-flushed virtual segments out
    #: of backup memory; reads fall back to the on-disk segment file.
    spill_sealed: bool = False

    def __post_init__(self) -> None:
        if self.replication_factor < 1:
            raise ConfigError("replication_factor must be >= 1")
        if self.vlogs_per_broker < 1:
            raise ConfigError("vlogs_per_broker must be >= 1")
        if self.virtual_segment_size <= 0:
            raise ConfigError("virtual_segment_size must be positive")
        if self.max_batch_chunks < 0 or self.max_batch_bytes < 0:
            raise ConfigError("batch caps must be >= 0")
        if self.pipeline_depth < 1:
            raise ConfigError("pipeline_depth must be >= 1")
        if self.ship_window_bytes < 0:
            raise ConfigError("ship window must be >= 0")
        head = self.fsync_policy.strip().partition(":")[0].lower()
        if head not in ("never", "always", "interval", "bytes", "every_n_bytes"):
            raise ConfigError(
                f"unknown fsync policy {self.fsync_policy!r} "
                "(expected never | always | interval:<ms> | bytes:<n>)"
            )

    @property
    def num_backup_copies(self) -> int:
        """Passive copies on backups (R minus the broker's active copy)."""
        return self.replication_factor - 1
