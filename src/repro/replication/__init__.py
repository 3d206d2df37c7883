"""The virtual log: shared, replicated, log-structured (the contribution).

This package implements Section III/IV-B of the paper — the separation of
stream *partitioning* (ordering, handled by :mod:`repro.storage`) from
stream *replication* (durability, handled here):

* a :class:`~repro.replication.virtual_segment.VirtualSegment` is an
  append-only sequence of **chunk references** — ``the chunk metadata
  contains a reference to the physical segment and the chunk's offset into
  physical segment and length``. It keeps a header (next free virtual
  offset), a durable header (what has been replicated), and a checksum
  covering the referenced chunks' checksums;
* a :class:`~repro.replication.virtual_log.VirtualLog` is an ordered set
  of virtual segments with exactly one open to appends; when a new virtual
  segment opens, a fresh set of backups is chosen (scattering data for
  parallel recovery, after RAMCloud);
* a :class:`~repro.replication.manager.ReplicationManager` owns a broker's
  virtual logs and routes stored chunks to them according to the
  :class:`~repro.replication.policy.ReplicationPolicy` — the *replication
  capacity* knob the evaluation sweeps (1…32 virtual logs per broker,
  shared by all streams or dedicated per sub-partition);
* a :class:`~repro.replication.backup_store.BackupStore` is the backup
  service's sans-IO core: replicated in-memory segments, checksum
  verification, asynchronous flush accounting, recovery reads;
* a :class:`~repro.replication.ship_core.ShipCore` is the ship loop every
  driver and the simulator run: it ships the manager's batches.

Consolidation is the point: one replication RPC carries the accumulated
chunks of *many* partitions that share a virtual log, ``replacing small
I/Os with larger ones on backups``.
"""

from repro.replication.config import ReplicationConfig, PolicyMode
from repro.replication.flow import FlowController
from repro.replication.chunk_ref import ChunkRef
from repro.replication.virtual_segment import VirtualSegment
from repro.replication.virtual_log import VirtualLog, ReplicationBatch
from repro.replication.policy import ReplicationPolicy, BackupSelector
from repro.replication.manager import ReplicationManager, wire_chunks
from repro.replication.backup_store import BackupStore, ReplicatedSegment

__all__ = [
    "ReplicationConfig",
    "PolicyMode",
    "FlowController",
    "ChunkRef",
    "VirtualSegment",
    "VirtualLog",
    "ReplicationBatch",
    "ReplicationPolicy",
    "BackupSelector",
    "ReplicationManager",
    "wire_chunks",
    "BackupStore",
    "ReplicatedSegment",
]
