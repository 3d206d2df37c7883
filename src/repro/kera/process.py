"""Process-parallel KerA cluster: backups in worker processes.

:class:`ProcessKeraCluster` is the threaded cluster with each node's
backup service re-homed into a child process behind the shared-memory
ring pipe (:mod:`repro.runtime.process` says what that pipe does):
broker services stay in the parent on their callers' threads, and CRC
re-validation plus backup appends run on another core.

The division of state is strict: the *child* owns the node's
:class:`~repro.kera.backup.KeraBackupCore` outright (the parent's
``system.backup_cores`` entries exist but see no traffic in this mode),
including its durable tier — the child runs its own flusher thread and
fsync policy, and drains both when the transport closes its pipe.
Nothing else differs from the threaded driver: the cluster's operator
surface (``backup_stats``, recovery and restart reads, forced flushes)
already goes through the ``"backup"`` binding, and chunks decoded from
disk carry plain byte payloads, so they pickle cleanly.
"""

from __future__ import annotations

from typing import Any

from repro.common.units import MB
from repro.runtime.process import ProcessServiceSpec, ProcessTransport
from repro.kera.backup_service import BackupService
from repro.kera.config import KeraConfig
from repro.kera.threaded import ThreadedKeraCluster


class ProcessKeraCluster(ThreadedKeraCluster):
    """A KerA cluster whose replication plane runs on other cores."""

    _transport_class = ProcessTransport

    def __init__(
        self,
        config: KeraConfig | None = None,
        *,
        ring_bytes: int = 4 * MB,
        **threaded_options: Any,
    ) -> None:
        self._ring_bytes = ring_bytes
        super().__init__(config, **threaded_options)

    def _backup_binding(self, node: int) -> object:
        return ProcessServiceSpec(
            factory=BackupService.in_worker,
            kwargs=self.system.backup_core_kwargs(node),
            ring_bytes=self._ring_bytes,
            # Recovery reads hand back what replicate requests brought
            # in, so the response ring is sized like the request ring.
            response_ring_bytes=self._ring_bytes,
        )
