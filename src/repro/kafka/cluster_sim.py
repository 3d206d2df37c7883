"""The discrete-event Kafka cluster driver.

System-side behaviour on top of :class:`repro.simdriver.BaseSimCluster`:

* the produce handler appends each batch to its partition's leader log
  under a per-partition lock (one log per partition serializes appends —
  contrast with KerA's Q active groups), wakes any parked follower
  fetches, releases its worker, and parks until the high watermark
  passes its batches (acks=all purgatory);
* one **replica fetcher** per (follower, leader) broker pair runs a
  long-poll fetch loop: the fetch request reports the offsets the
  follower has (which *is* the replication acknowledgment — advancing
  the high watermark), the leader parks empty fetches up to
  ``replica.fetch.wait.max.ms``, and the follower pays a per-partition
  small-append cost for every batch it pulls;
* consumers read below the high watermark through the same client code
  KerA uses.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any

from repro.common.errors import ConfigError
from repro.rpc.fabric import RELEASE_WORKER
from repro.runtime.system import KafkaSystem
from repro.sim.costmodel import CostModel
from repro.sim.engine import Event
from repro.simdriver.base import BaseSimCluster, SimBrokerService, SimResult, SimWorkload
from repro.kafka.broker import KafkaBrokerCore, ReplicaFetchItem
from repro.kafka.config import KafkaConfig
from repro.kera.messages import ProduceRequest

__all__ = ["SimKafkaCluster", "SimWorkload", "SimResult"]

#: Wire overhead per partition entry in a replica fetch message.
_FETCH_ITEM_BYTES = 32


class _KafkaService(SimBrokerService):
    """Sim wrapper around :class:`KafkaBrokerCore`."""

    driver: "SimKafkaCluster"

    def handle(self, method: str, request: Any) -> Generator[Any, Any, tuple[Any, int]]:
        if method == "produce":
            return (yield from self._produce(request))
        if method == "fetch":
            return (yield from self._fetch(request))
        if method == "replica_fetch":
            return (yield from self._replica_fetch(request))
        raise ConfigError(f"unknown kafka method {method!r}")

    def _produce(
        self, request: ProduceRequest
    ) -> Generator[Any, Any, tuple[Any, int]]:
        driver = self.driver
        cost = driver.cost
        env = driver.env
        yield env.timeout(cost.request_handle_cost)
        # One log per partition: appends to the same partition serialize.
        by_partition: dict[tuple[int, int], tuple[int, int]] = {}
        for chunk in request.chunks:
            key = (chunk.stream_id, chunk.streamlet_id)
            n, nbytes = by_partition.get(key, (0, 0))
            by_partition[key] = (n + 1, nbytes + chunk.payload_len)
        for key, (n, nbytes) in by_partition.items():
            work = n * cost.chunk_append_cost + nbytes * cost.byte_copy_cost
            yield from self._lock(key).use(work)
        outcome = self.core.handle_produce(request)
        driver._wake_followers(self.node_id)
        if outcome.pending:
            done = driver._completion_event(self.node_id, request.request_id)
            yield RELEASE_WORKER
            yield done
        response = outcome.response
        return response, response.payload_bytes()

    def _replica_fetch(self, request: Any) -> Generator[Any, Any, tuple[Any, int]]:
        driver = self.driver
        cost = driver.cost
        follower, items = request
        # Per-partition examination cost: paid even for empty partitions.
        yield driver.env.timeout(
            cost.request_handle_cost
            + len(items) * cost.kafka_fetch_partition_cost
        )
        response = self.core.handle_replica_fetch(follower, items)
        if not any(batches for _, batches, _ in response):
            # Long poll: park (without a worker) until data arrives or
            # replica.fetch.wait.max.ms expires, then re-collect.
            wake = driver._follower_wait_event(self.node_id, follower)
            yield RELEASE_WORKER
            yield driver.env.any_of(
                [wake, driver.env.timeout(driver.config.replica_fetch_wait_max)]
            )
            response = self.core.handle_replica_fetch(
                follower, [item for item, _, _ in response]
            )
        nbytes = sum(
            sum(b.size for b in batches) + _FETCH_ITEM_BYTES
            for _, batches, _ in response
        )
        return response, nbytes


class SimKafkaCluster(BaseSimCluster):
    """Builds and runs one simulated Kafka experiment."""

    def __init__(
        self,
        config: KafkaConfig | None = None,
        workload: SimWorkload | None = None,
        cost: CostModel | None = None,
    ) -> None:
        self.config = config or KafkaConfig()
        super().__init__(
            workload or SimWorkload(),
            cost or CostModel(),
            system=KafkaSystem(self.config),
            q_active_groups=1,  # Kafka: one append slot per partition
            chunk_size=self.config.chunk_size,
            linger=self.config.linger,
            client_cache_chunks=self.config.client_cache_chunks,
        )

    broker_service = "kafka"

    # -- system wiring ------------------------------------------------------------

    @property
    def broker_cores(self) -> dict[int, KafkaBrokerCore]:
        return self.system.broker_cores

    @property
    def _follow_map(self) -> dict[tuple[int, int], list[tuple[int, int]]]:
        """(follower, leader) -> partitions the follower replicates."""
        return self.system.follow_map

    def _register_services(self) -> None:
        #: (leader, follower) -> parked long-poll wake event.
        self._repl_wakeups: dict[tuple[int, int], Event | None] = {}
        for node in self.broker_nodes:
            self.transport.register(node, "kafka", _KafkaService(self, node))

    def _followers_of(self, leader: int) -> tuple[int, ...]:
        return self.system.followers_of(leader)

    # -- follower wake-up plumbing -----------------------------------------------------

    def _wake_followers(self, leader: int) -> None:
        for follower in self._followers_of(leader):
            event = self._repl_wakeups.get((leader, follower))
            if event is not None:
                self._repl_wakeups[(leader, follower)] = None
                event.succeed()

    def _follower_wait_event(self, leader: int, follower: int) -> Event:
        event = Event(self.env)
        self._repl_wakeups[(leader, follower)] = event
        return event

    # -- replica fetcher processes ---------------------------------------------------------

    def _replica_fetcher(
        self, follower: int, leader: int, partitions: list[tuple[int, int]]
    ) -> Generator[Event, Any, None]:
        """One fetch loop per (follower, leader) pair
        (``num.replica.fetchers = 1``)."""
        env = self.env
        cost = self.cost
        core = self.broker_cores[follower]
        workers = self.fabric.nodes[follower].workers
        offsets = {key: 0 for key in partitions}
        while True:
            items = [
                ReplicaFetchItem(topic=t, partition=p, next_offset=offsets[(t, p)])
                for t, p in partitions
            ]
            request_bytes = _FETCH_ITEM_BYTES * len(items)
            response = yield from self.transport.call(
                follower, leader, "kafka", "replica_fetch", (follower, items), request_bytes
            )
            work = 0.0
            for item, batches, next_offset in response:
                if batches:
                    core.apply_replica_batches(item.topic, item.partition, batches)
                    nbytes = sum(b.payload_len for b in batches)
                    # Per-partition small log appends on the follower.
                    work += (
                        len(batches) * cost.kafka_replica_batch_cost
                        + nbytes * cost.byte_copy_cost
                    )
                offsets[(item.topic, item.partition)] = next_offset
            if work:
                yield from workers.use(work)

    def _spawn_system_processes(self) -> None:
        for (follower, leader), partitions in sorted(self._follow_map.items()):
            for fetcher in range(self.config.num_replica_fetchers):
                chunk = partitions[fetcher :: self.config.num_replica_fetchers]
                if chunk:
                    self.env.process(
                        self._replica_fetcher(follower, leader, chunk),
                        name=f"fetcher:{follower}<-{leader}#{fetcher}",
                    )

    # -- result -------------------------------------------------------------------------------

    def _system_result_fields(self) -> dict[str, Any]:
        fetches = self.fabric.stats.calls.get(("kafka", "replica_fetch"), 0)
        batches = sum(
            core.replica_batches_fetched for core in self.broker_cores.values()
        )
        return {
            "avg_replication_batch_chunks": (batches / fetches) if fetches else 0.0,
            "replication_rpcs": fetches,
        }
