"""The discrete-event KerA cluster driver.

System-side behaviour on top of :class:`repro.simdriver.BaseSimCluster`
(which assembles the cluster on :class:`repro.runtime.ClusterRuntime`
with a :class:`repro.runtime.KeraSystem` adapter):

* every broker node also runs a backup service;
* the broker's produce handler appends chunks under per-sub-partition
  locks (parallel appends need Q > 1), triggers virtual-log
  synchronization, releases its worker, and parks until every chunk of
  the request is durable (active, push-based replication);
* each broker ships through :class:`repro.runtime.sim.SimShipper` — the
  live drivers' ship core on sim time: each virtual log keeps up to
  ``pipeline_depth`` replication RPCs in flight to its backup set, within
  the ``ship_window_bytes`` credit window, and whatever accumulated while
  they travelled ships in the next batch (group commit);
* backups verify, buffer, and asynchronously flush replicated segments;
  the produce path never waits on a disk.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.common.errors import ConfigError
from repro.rpc.fabric import RELEASE_WORKER, Service
from repro.runtime.sim import SimShipper
from repro.runtime.system import KeraSystem
from repro.sim.costmodel import CostModel
from repro.simdriver.base import BaseSimCluster, SimBrokerService, SimResult, SimWorkload
from repro.kera.backup import KeraBackupCore
from repro.kera.broker import KeraBrokerCore
from repro.kera.config import KeraConfig
from repro.kera.messages import ProduceRequest

__all__ = ["SimKeraCluster", "SimWorkload", "SimResult"]


class _BrokerService(SimBrokerService):
    """Sim wrapper around :class:`KeraBrokerCore` (produce + fetch)."""

    driver: "SimKeraCluster"

    def handle(self, method: str, request: Any) -> Generator[Any, Any, tuple[Any, int]]:
        if method == "produce":
            return (yield from self._produce(request))
        if method == "fetch":
            return (yield from self._fetch(request))
        raise ConfigError(f"unknown broker method {method!r}")

    def _produce(
        self, request: ProduceRequest
    ) -> Generator[Any, Any, tuple[Any, int]]:
        driver = self.driver
        cost = driver.cost
        env = driver.env
        yield env.timeout(cost.request_handle_cost)
        # Per-sub-partition append serialization: group the request's
        # chunks by (stream, streamlet, entry) and charge the append CPU
        # under that sub-partition's lock (Q > 1 -> parallel appends).
        q = driver.q_active_groups
        by_subpartition: dict[tuple[int, int, int], tuple[int, int]] = {}
        for chunk in request.chunks:
            key = (chunk.stream_id, chunk.streamlet_id, chunk.producer_id % q)
            n, nbytes = by_subpartition.get(key, (0, 0))
            by_subpartition[key] = (n + 1, nbytes + chunk.payload_len)
        for key, (n, nbytes) in by_subpartition.items():
            work = n * (cost.chunk_append_cost + cost.chunk_ref_cost) + (
                nbytes * cost.byte_copy_cost
            )
            yield from self._lock(key).use(work)
        outcome = self.core.handle_produce(request)
        driver.shippers[self.node_id].kick()
        if outcome.pending:
            done = driver._completion_event(self.node_id, request.request_id)
            yield RELEASE_WORKER
            yield done
        response = outcome.response
        return response, response.payload_bytes()


class _BackupService(Service):
    """Sim wrapper around :class:`KeraBackupCore`."""

    def __init__(self, driver: "SimKeraCluster", node_id: int) -> None:
        self.driver = driver
        self.node_id = node_id
        self.core = driver.backup_cores[node_id]

    def handle(self, method: str, request: Any) -> Generator[Any, Any, tuple[Any, int]]:
        if method != "replicate":
            raise ConfigError(f"unknown backup method {method!r}")
        driver = self.driver
        cost = driver.cost
        nbytes = sum(c.payload_len for c in request.chunks)
        work = (
            cost.backup_request_cost
            + len(request.chunks) * cost.backup_chunk_cost
            + nbytes * cost.byte_copy_cost
        )
        yield driver.env.timeout(work)
        response, flush = self.core.handle_replicate(request)
        if flush is not None:
            node = driver.fabric.nodes[self.node_id]
            driver.env.process(
                node.disk.write(flush.nbytes), name=f"flush@{self.node_id}"
            )
        return response, response.payload_bytes()


class SimKeraCluster(BaseSimCluster):
    """Builds and runs one simulated KerA experiment."""

    def __init__(
        self,
        config: KeraConfig | None = None,
        workload: SimWorkload | None = None,
        cost: CostModel | None = None,
    ) -> None:
        self.config = config or KeraConfig()
        if self.config.storage.materialize:
            raise ConfigError(
                "the simulation driver requires metadata-only storage "
                "(StorageConfig(materialize=False)); byte fidelity belongs "
                "to InprocKeraCluster"
            )
        super().__init__(
            workload or SimWorkload(),
            cost or CostModel(),
            system=KeraSystem(self.config),
            q_active_groups=self.config.storage.q_active_groups,
            chunk_size=self.config.chunk_size,
            linger=self.config.linger,
            client_cache_chunks=self.config.client_cache_chunks,
        )

    # -- system wiring -----------------------------------------------------------

    @property
    def broker_cores(self) -> dict[int, KeraBrokerCore]:
        return self.system.broker_cores

    @property
    def backup_cores(self) -> dict[int, KeraBackupCore]:
        return self.system.backup_cores

    def _register_services(self) -> None:
        self.shippers = {
            node: SimShipper(self.transport, self.cost, self.system, node)
            for node in self.broker_nodes
        }
        for node in self.broker_nodes:
            self.transport.register(node, "broker", _BrokerService(self, node))
            self.transport.register(node, "backup", _BackupService(self, node))

    # -- result ------------------------------------------------------------------------

    def _system_result_fields(self) -> dict[str, Any]:
        chunks_shipped = sum(
            core.manager.total_chunks_shipped() for core in self.broker_cores.values()
        )
        batches = sum(
            core.manager.total_batches() for core in self.broker_cores.values()
        )
        return {
            "avg_replication_batch_chunks": (chunks_shipped / batches) if batches else 0.0,
            "replication_rpcs": self.fabric.stats.calls.get(("backup", "replicate"), 0),
            "memory_peak_bytes": sum(
                core.allocator.peak_bytes for core in self.broker_cores.values()
            ),
        }
