"""Threaded KerA cluster: the concurrent live mode.

Every (node, service) binding runs on its own worker threads behind a
bounded request queue (:class:`repro.runtime.ThreadedTransport`), each
broker's replication ship loop (:mod:`repro.kera.shipper`, the same loop
every driver runs) gets a thread of its own, and real concurrent
producers/consumers push real bytes — the configuration that proves the
sans-IO cores are thread-safe under contention.

Concurrency design, mirroring the simulator's model:

* **per-sub-partition locks** in the broker service
  (:class:`repro.kera.live.BrokerService`) serialize whole produce
  requests that touch the same ``(stream, streamlet, entry)``
  sub-partition;
* the broker core's internal mutex keeps each request's append +
  replication registration atomic, so virtual-log reference order always
  matches segment append order (the invariant
  ``mark_chunk_durable`` enforces);
* no worker thread waits for replication: the service appends, kicks
  the node's shipper (which wakes its thread) and returns; the produce
  completes through the runtime's :class:`CompletionTracker` when the
  shipper's replicate acks land. The backup service runs single-worker,
  keeping each backup core single-threaded.
"""

from __future__ import annotations

from repro.runtime.threaded import ThreadedTransport
from repro.runtime.transport import Transport
from repro.kera.config import KeraConfig
from repro.kera.live import LiveKeraCluster


class ThreadedKeraCluster(LiveKeraCluster):
    """A KerA cluster with every node's services on their own threads."""

    #: The transport built when none is passed in.
    _transport_class: type[ThreadedTransport] = ThreadedTransport

    def __init__(
        self,
        config: KeraConfig | None = None,
        *,
        produce_workers: int = 4,
        queue_depth: int = 128,
        call_timeout: float = 30.0,
        ack_timeout: float = 10.0,
        transport: Transport | None = None,
    ) -> None:
        self.ack_timeout = ack_timeout
        super().__init__(
            config,
            transport
            or self._transport_class(
                queue_depth=queue_depth,
                workers_per_service=produce_workers,
                call_timeout=call_timeout,
            ),
        )
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
