"""KerA: the high-performance ingestion system with virtual-log replication.

The broker, backup, and coordinator are **sans-IO cores** — pure state
machines with no notion of time or transport. Two drivers execute them:

* :mod:`repro.kera.cluster_sim` — the discrete-event driver used by every
  benchmark: clients, brokers, and backups run as simulated processes over
  the RPC fabric, with the calibrated cost model attached;
* :mod:`repro.kera.inproc` — a synchronous in-process driver with real
  payload bytes end to end, used by the quickstart example and the
  integration tests (produce → replicate → consume → decode);
* :mod:`repro.kera.threaded` — the concurrent live driver: backups on
  worker threads behind bounded request queues, produce and fetch on
  their callers' threads, with real concurrent producers and consumers.

All three run on :class:`repro.runtime.ClusterRuntime`; only the
transport differs.

Crash recovery (:mod:`repro.kera.recovery`) re-ingests the failed broker's
chunks from the backups' replicated segments into the surviving brokers,
reconstructing metadata from the ``[group, segment]`` tags each chunk
carries.
"""

from repro.kera.config import KeraConfig
from repro.kera.messages import (
    ProduceRequest,
    ProduceResponse,
    ChunkAssignment,
    FetchRequest,
    FetchResponse,
    FetchPosition,
    FetchEntry,
    ReplicateRequest,
    ReplicateResponse,
)
from repro.kera.broker import KeraBrokerCore, ProduceOutcome
from repro.kera.backup import KeraBackupCore
from repro.kera.backup_service import BackupService
from repro.kera.coordinator import Coordinator, StreamMetadata
from repro.kera.live import LiveKeraCluster
from repro.kera.inproc import InprocKeraCluster
from repro.kera.threaded import ThreadedKeraCluster
from repro.kera.process import ProcessKeraCluster
from repro.kera.socket_cluster import SocketKeraCluster
from repro.kera.shipper import PipelinedShipper
from repro.kera.client import KeraProducer, KeraConsumer
from repro.kera.fork import VirtualLog, LogReader
from repro.kera.recovery import recover_broker, RecoveryReport, merge_backup_copies
from repro.kera.cluster_sim import SimKeraCluster, SimWorkload, SimResult
from repro.kera.objects import ObjectStore, ObjectInfo
from repro.kera.kv import KVTable, VersionedValue
from repro.kera.migration import migrate_streamlet, MigrationReport

__all__ = [
    "KeraConfig",
    "ProduceRequest",
    "ProduceResponse",
    "ChunkAssignment",
    "FetchRequest",
    "FetchResponse",
    "FetchPosition",
    "FetchEntry",
    "ReplicateRequest",
    "ReplicateResponse",
    "KeraBrokerCore",
    "ProduceOutcome",
    "KeraBackupCore",
    "BackupService",
    "Coordinator",
    "StreamMetadata",
    "LiveKeraCluster",
    "InprocKeraCluster",
    "ThreadedKeraCluster",
    "ProcessKeraCluster",
    "SocketKeraCluster",
    "PipelinedShipper",
    "KeraProducer",
    "KeraConsumer",
    "VirtualLog",
    "LogReader",
    "recover_broker",
    "RecoveryReport",
    "merge_backup_copies",
    "SimKeraCluster",
    "SimWorkload",
    "SimResult",
    "ObjectStore",
    "ObjectInfo",
    "KVTable",
    "VersionedValue",
    "migrate_streamlet",
    "MigrationReport",
]
