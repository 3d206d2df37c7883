"""Threaded KerA cluster: the concurrent live mode.

Backup services run on worker threads behind bounded request queues
(:class:`repro.runtime.ThreadedTransport`), each broker's replication
ship loop (:mod:`repro.kera.shipper`) has a thread for what must not run
on a caller, and real concurrent producers/consumers push real bytes —
the configuration that proves the sans-IO cores are thread-safe under
contention. The concurrency design mirrors the simulator's model:

* a produce **runs on the thread that submits it**
  (:meth:`LiveKeraCluster.submit_produce`): it takes the broker
  service's **per-sub-partition locks**, which serialize whole requests
  touching the same ``(stream, streamlet, entry)``, appends, releases
  them and kicks the shipper — which pumps on this thread unless a pump
  is already running;
* the broker core's mutex keeps each request's append + replication
  registration atomic, so virtual-log reference order always matches
  segment append order (the invariant ``mark_chunk_durable`` enforces);
* no thread waits for replication: the produce completes through the
  runtime's :class:`CompletionTracker` when the replicate acks land.
  A node's one transport binding is its backup service, with one worker
  (a single-threaded backup core).
"""

from __future__ import annotations

from repro.runtime.threaded import ThreadedTransport
from repro.runtime.transport import Transport
from repro.kera.config import KeraConfig
from repro.kera.live import LiveKeraCluster


class ThreadedKeraCluster(LiveKeraCluster):
    """A KerA cluster with its backups and ship loops on their own threads."""

    #: The transport built when none is passed in.
    _transport_class: type[ThreadedTransport] = ThreadedTransport

    def __init__(
        self,
        config: KeraConfig | None = None,
        *,
        queue_depth: int = 128,
        call_timeout: float = 30.0,
        ack_timeout: float = 10.0,
        transport: Transport | None = None,
    ) -> None:
        self.ack_timeout = ack_timeout
        if transport is None:
            transport = self._transport_class(queue_depth=queue_depth, call_timeout=call_timeout)
        super().__init__(config, transport)
        for shipper in self._shippers.values():
            shipper.start()

    def _backup_binding(self, node_id: int) -> object:
        # A live object whose flusher thread owns the disk (the service
        # acks from the buffer); worker-process drivers return a spec.
        return self._local_backup(node_id, async_flush=True)

    def shutdown(self) -> None:
        for shipper in self._shippers.values():
            shipper.stop()
        for shipper in self._shippers.values():
            shipper.join(timeout=5.0)
        super().shutdown()
