"""Socket-parallel KerA cluster: backups behind real TCP connections.

:class:`SocketKeraCluster` is the sibling of
:class:`~repro.kera.process.ProcessKeraCluster` with the shared-memory
rings swapped for the framed-TCP pipe
(:mod:`repro.runtime.socket_transport` says what that pipe does): every
node's backup service runs in a worker process reachable only through
one localhost socket. The division of state is identical — the child
owns the node's backup core (including the durable tier and its flusher
thread), the parent's cores see no traffic — and so is the RPC surface,
because the transport speaks the same request/response kinds over
either pipe.

This is the deployable-shape rung of the transport ladder: swap the
localhost rendezvous for real addresses and the same frames cross a
real network. The asyncio client gateway (:mod:`repro.gateway`) fronts
this cluster for thousands of remote producer/consumer connections.
"""

from __future__ import annotations

from typing import Any

from repro.common.units import MB
from repro.runtime.socket_transport import SocketServiceSpec, SocketTransport
from repro.kera.backup_service import BackupService
from repro.kera.config import KeraConfig
from repro.kera.threaded import ThreadedKeraCluster


class SocketKeraCluster(ThreadedKeraCluster):
    """A KerA cluster whose replication plane crosses real sockets."""

    _transport_class = SocketTransport

    def __init__(
        self,
        config: KeraConfig | None = None,
        *,
        window_bytes: int = 4 * MB,
        **threaded_options: Any,
    ) -> None:
        self._window_bytes = window_bytes
        super().__init__(config, **threaded_options)

    def _backup_binding(self, node: int) -> object:
        return SocketServiceSpec(
            factory=BackupService.in_worker,
            kwargs=self.system.backup_core_kwargs(node),
            window_bytes=self._window_bytes,
        )
