"""KerA system configuration."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import ConfigError
from repro.common.units import KB, MB, MSEC
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig


@dataclass(frozen=True)
class KeraConfig:
    """Cluster-wide KerA configuration.

    Mirrors the paper's experimental knobs: number of broker nodes, the
    storage sizing (segment size, Q active groups), the replication
    tunables (factor, virtual logs per broker, sharing policy), and the
    client-side chunk/linger parameters.
    """

    num_brokers: int = 4
    storage: StorageConfig = field(default_factory=StorageConfig)
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    #: Producer chunk capacity (paper: 1 KB to 64 KB).
    chunk_size: int = 16 * KB
    #: linger.ms equivalent — max wait for a chunk to fill.
    linger: float = 1 * MSEC
    #: Client-side cache (chunks buffered between the two client threads).
    client_cache_chunks: int = 1000
    #: Backup flush threshold: flush once a replicated segment holds this
    #: many unflushed bytes (flushes are always asynchronous).
    flush_threshold: int = 1 * KB * 1024
    #: Live mode only: directory for the backups' secondary storage. When
    #: set, flushes write real log-structured segment files (one per
    #: replicated virtual segment, same frame format on disk and in
    #: memory, inside per-incarnation epoch directories) and a restarted
    #: cluster can recover acked data from them. The fsync cadence and
    #: memory/disk migration are configured on the replication config
    #: (``fsync_policy`` / ``spill_sealed``).
    persist_dir: str | None = None
    #: Per-broker byte budget for the shared hot-chunk fan-out cache on
    #: the view-serving read path (``repro.storage.fancache``).
    fanout_cache_bytes: int = 64 * MB

    def __post_init__(self) -> None:
        if self.num_brokers < 1:
            raise ConfigError("num_brokers must be >= 1")
        if self.replication.replication_factor > self.num_brokers:
            raise ConfigError(
                f"replication factor {self.replication.replication_factor} "
                f"needs at least that many nodes (have {self.num_brokers})"
            )
        if self.chunk_size <= 0:
            raise ConfigError("chunk_size must be positive")
        if self.linger < 0:
            raise ConfigError("linger must be >= 0")
        if self.fanout_cache_bytes <= 0:
            raise ConfigError("fanout_cache_bytes must be positive")
