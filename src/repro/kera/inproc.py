"""In-process KerA cluster: the live, real-bytes synchronous driver.

Every core runs in this process and every call is synchronous; chunk
payloads are real encoded records end to end (produce → segment bytes →
replication RPC → backup segment bytes → fetch → decode). There is no
timing here — this driver exists to prove the *data path* and to host the
integration tests and examples; performance questions go to
:mod:`repro.kera.cluster_sim`, concurrency questions to
:mod:`repro.kera.threaded`.

The cluster assembly lives in :class:`repro.kera.live.LiveKeraCluster`
on :class:`repro.runtime.ClusterRuntime`; this module contributes only
the synchronous produce handler (append, pump replication to completion,
ack) over :class:`repro.runtime.InprocTransport`.
"""

from __future__ import annotations

from repro.common.errors import ConfigError, ReplicationError
from repro.runtime.inproc import InprocTransport
from repro.runtime.transport import LiveService
from repro.kera.config import KeraConfig
from repro.kera.live import LiveKeraCluster
from repro.kera.messages import ProduceRequest


class _InprocBrokerService(LiveService):
    """Synchronous broker wrapper: produce pumps replication inline."""

    def __init__(self, cluster: "InprocKeraCluster", node_id: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.core = cluster.brokers[node_id]

    def handle(self, method: str, request: object) -> object:
        if method == "produce":
            return self._produce(request)
        if method == "produce_async":
            return self._produce_async(request)
        if method == "fetch":
            return self.core.handle_fetch(request)
        raise ConfigError(f"unknown broker method {method!r}")

    def _produce_async(self, request: ProduceRequest) -> object:
        """Completion-driven produce for the synchronous transport: the
        replication pump runs inline, so by the time the outcome returns
        to ``submit_produce`` every pending chunk has already completed
        and the tracker's early-completion memory resolves the register
        immediately — the ack-before-register path, exercised on every
        call."""
        outcome = self.core.handle_produce(request)
        self.cluster.pump_replication(self.node_id)
        return outcome

    def _produce(self, request: ProduceRequest) -> object:
        outcome = self.core.handle_produce(request)
        self.cluster.pump_replication(self.node_id)
        if outcome.pending and not self.cluster.runtime.completion.consume(
            self.node_id, request.request_id
        ):
            raise ReplicationError(
                f"request {request.request_id} not durable after replication pump"
            )
        return outcome.response


class InprocKeraCluster(LiveKeraCluster):
    """A whole KerA cluster in one process."""

    def __init__(self, config: KeraConfig | None = None) -> None:
        super().__init__(config, InprocTransport())

    def _broker_service(self, node_id: int) -> object:
        return _InprocBrokerService(self, node_id)

    def _backup_binding(self, node_id: int) -> object:
        # Inline flushes: this driver stays single-threaded.
        return self._local_backup(node_id, async_flush=False)
