"""Base simulated cluster: workload, clients, metrics, run skeleton.

Recreates the paper's experimental setup (Section V-A) on the simulated
substrate:

* B nodes each run the storage system's services (1 dispatch core + 15
  worker cores, 10 GbE NIC, one disk);
* each producer and each consumer is its own client node (``producers and
  consumers run on different nodes``);
* producers are *proxy clients* sharing all streams. The source thread is
  modeled as a fluid: it emits records at rate ``R(n) = n / (n *
  record_cost + chunk_cost)`` where ``n`` is the current chunk fill
  level. Each per-broker request loop draws its share of the fluid
  accumulated since its last request and ships it as up to one chunk per
  partition of that broker. The fill level is therefore an *equilibrium
  outcome* of the closed loop, exactly like the real system: hundreds of
  partitions at 1 KB chunks ship nearly-empty linger-fired chunks, while
  a few dozen partitions at 64 KB ship fat ones;
* consumers pull one chunk per (streamlet, entry) per request and only
  ever see durably-replicated data; a separate source thread iterates the
  records, with the bounded client cache between the two threads.

Cluster assembly (coordinator, cores, completion tracking) lives in
:class:`repro.runtime.ClusterRuntime`; subclasses contribute their
:class:`repro.runtime.SystemAdapter`, register their cost-charging sim
services on the broker nodes, and may spawn extra system processes
(Kafka's follower fetchers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Generator
from typing import Any

from repro.common.errors import ConfigError
from repro.common.idgen import IdGenerator
from repro.common.metrics import LatencyReservoir, ThroughputMeter
from repro.common.units import USEC
from repro.rpc.fabric import RpcFabric, Service
from repro.runtime.runtime import ClusterRuntime
from repro.runtime.sim import SimTransport
from repro.runtime.system import SystemAdapter
from repro.sim.costmodel import CostModel
from repro.sim.engine import Environment, Event
from repro.sim.resources import Resource
from repro.wire.chunk import Chunk

# NOTE: repro.kera.messages is imported lazily inside BaseSimCluster —
# repro.kera's own simulation driver subclasses this module, so a
# top-level import here would be circular.

#: Consumer poll backoff bounds when no data is available.
_POLL_BACKOFF_MIN = 100 * USEC
_POLL_BACKOFF_MAX = 1600 * USEC


@dataclass(frozen=True)
class SimWorkload:
    """The paper's synthetic workload: equal producers and consumers over
    S streams of one-or-more streamlets, 100-byte non-keyed records."""

    num_producers: int = 4
    num_consumers: int = 4
    #: (stream_id, num_streamlets) pairs; e.g. 128 single-partition streams
    #: or one stream with 32 streamlets.
    streams: tuple[tuple[int, int], ...] = ((0, 1),)
    record_size: int = 100
    #: Total simulated seconds.
    duration: float = 0.5
    #: Seconds excluded from the measured window at the start.
    warmup: float = 0.1

    def __post_init__(self) -> None:
        if self.num_producers < 1 or self.num_consumers < 0:
            raise ConfigError("need at least one producer")
        if not self.streams:
            raise ConfigError("need at least one stream")
        if self.record_size <= 0:
            raise ConfigError("record_size must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ConfigError("need 0 <= warmup < duration")

    @classmethod
    def many_streams(cls, count: int, **kwargs: Any) -> "SimWorkload":
        """S single-partition streams (Figures 8, 10, 12-16)."""
        return cls(streams=tuple((i, 1) for i in range(count)), **kwargs)

    @classmethod
    def one_stream(cls, streamlets: int, **kwargs: Any) -> "SimWorkload":
        """One stream of many streamlets (Figures 11, 17-21)."""
        return cls(streams=((0, streamlets),), **kwargs)


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    producer_rate: float
    consumer_rate: float
    records_acked: int
    records_consumed: int
    latency: dict[str, float]
    duration: float
    warmup: float
    #: RPC calls by (service, method).
    rpc_calls: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Average chunks per replication transfer (consolidation metric):
    #: virtual-log batch for KerA, follower-fetch response for Kafka.
    avg_replication_batch_chunks: float = 0.0
    #: Replication RPCs issued (virtual-log batches / follower fetches).
    replication_rpcs: int = 0
    net_bytes: int = 0
    worker_utilization: list[float] = field(default_factory=list)
    dispatch_utilization: list[float] = field(default_factory=list)
    memory_peak_bytes: int = 0

    @property
    def mrecords_per_sec(self) -> float:
        """The paper's unit: million records per second."""
        return self.producer_rate / 1e6

    @property
    def consumer_mrecords_per_sec(self) -> float:
        return self.consumer_rate / 1e6


class SimBrokerService(Service):
    """A system's broker core behind the fabric: per-key append locks and
    the fetch both systems serve the same way."""

    def __init__(self, driver: "BaseSimCluster", node_id: int) -> None:
        self.driver = driver
        self.node_id = node_id
        self.core = driver.system.broker_cores[node_id]
        self.locks: dict[Any, Resource] = {}

    def _lock(self, key: Any) -> Resource:
        lock = self.locks.get(key)
        if lock is None:
            lock = Resource(self.driver.env, 1)
            self.locks[key] = lock
        return lock

    def _fetch(self, request: Any) -> Generator[Any, Any, tuple[Any, int]]:
        cost = self.driver.cost
        response = self.core.handle_fetch(request)
        work = cost.request_handle_cost + response.chunk_count * cost.consumer_chunk_cost
        yield self.driver.env.timeout(work)
        return response, response.payload_bytes()


class BaseSimCluster:
    """Node layout, clients, and run skeleton shared by both systems."""

    def __init__(
        self,
        workload: SimWorkload,
        cost: CostModel,
        *,
        system: SystemAdapter,
        q_active_groups: int,
        chunk_size: int,
        linger: float,
        client_cache_chunks: int,
    ) -> None:
        self.workload = workload
        self.cost = cost
        self.q_active_groups = q_active_groups
        self.chunk_size = chunk_size
        self.linger = linger
        self.client_cache_chunks = client_cache_chunks
        self.env = Environment()
        B = len(system.node_ids)
        P = workload.num_producers
        C = workload.num_consumers
        self.broker_nodes = list(system.node_ids)
        self.producer_nodes = list(range(B, B + P))
        self.consumer_nodes = list(range(B + P, B + P + C))

        self.fabric = RpcFabric(self.env, B + P + C, cost)
        self.transport = SimTransport(self.fabric)
        self.system = system
        self.runtime = ClusterRuntime(system, self.transport)
        self.coordinator = self.runtime.coordinator

        # Metrics.
        self.produced = ThroughputMeter()
        self.consumed = ThroughputMeter()
        self.produce_latency = LatencyReservoir()
        self._request_ids = IdGenerator()

        chunk_records = chunk_size // workload.record_size
        if chunk_records < 1:
            raise ConfigError("chunk_size smaller than one record")
        #: Records a full chunk holds; actual fill level is an emergent
        #: outcome of the fluid source model (see _producer_requests).
        self.chunk_capacity_records = chunk_records

        # Subclass: register the cost-charging sim services.
        self._register_services()

        # Streams.
        for stream_id, streamlets in workload.streams:
            self.runtime.create_stream(stream_id, streamlets)

        # Partition tables.
        self.partitions_by_broker: dict[int, list[tuple[int, int]]] = {
            node: self.coordinator.partitions_on(node) for node in self.broker_nodes
        }
        self.all_partitions = [
            p for node in self.broker_nodes for p in self.partitions_by_broker[node]
        ]

    # -- subclass hooks -------------------------------------------------------

    def _register_services(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def _spawn_system_processes(self) -> None:
        """Extra background processes (e.g. Kafka follower fetchers)."""

    def _system_result_fields(self) -> dict[str, Any]:
        """Replication accounting for :class:`SimResult`."""
        return {}

    #: Service name the clients talk to on broker nodes.
    broker_service = "broker"

    # -- completion plumbing ----------------------------------------------------

    def _completion_event(self, broker_id: int, request_id: int) -> Event:
        """A sim event that succeeds when the request completes (already
        succeeded if the completion beat the registration)."""
        event = Event(self.env)
        if self.runtime.completion.register(broker_id, request_id, event.succeed):
            event.succeed()
        return event

    # -- producer processes --------------------------------------------------------

    def _producer_requests(
        self,
        producer_idx: int,
        broker: int,
        partitions: list[tuple[int, int]],
        shared: dict[str, float],
        requests_thread: Resource,
    ) -> Generator[Event, Any, None]:
        from repro.kera.messages import ProduceRequest

        env = self.env
        cost = self.cost
        client_node = self.producer_nodes[producer_idx]
        rc = cost.record_cost_for(len(self.all_partitions))
        scc = cost.producer_source_chunk_cost
        full = self.chunk_capacity_records
        frac = len(partitions) / len(self.all_partitions)
        record_size = self.workload.record_size
        seqs = {p: IdGenerator() for p in partitions}
        #: Client-side chunk pool bound (recycled chunk buffers, Fig. 6).
        pool_cap = 4.0 * full * len(partitions)
        carry = 0.0
        last = env.now
        last_send = -self.linger
        cursor = 0
        while True:
            now = env.now
            n_est = max(shared["n"], 1.0)
            rate = n_est / (n_est * rc + scc)  # records/s from the source
            carry = min(carry + rate * frac * (now - last), pool_cap)
            last = now
            if carry < 1.0:
                # Not one full record yet: sleep a linger's worth.
                yield env.timeout(self.linger)
                continue
            # Linger pacing: unless a full per-partition load is ready,
            # wait out the linger before shipping partial chunks (the
            # paper's 1 ms chunk timeout).
            since_send = now - last_send
            if carry < full * len(partitions) and since_send < self.linger:
                # Guard against a zero-length wait from float rounding,
                # which would loop forever at one simulated instant.
                yield env.timeout(max(self.linger - since_send, 1e-9))
                continue
            last_send = env.now
            k = max(1, min(len(partitions), int(carry)))
            n = int(min(full, max(1.0, carry / k)))
            k = max(1, min(k, int(carry / n)))
            carry -= k * n
            shared["n"] = n
            chunks = []
            for i in range(k):
                stream_id, streamlet_id = partitions[(cursor + i) % len(partitions)]
                chunks.append(
                    Chunk.meta(
                        stream_id=stream_id,
                        streamlet_id=streamlet_id,
                        producer_id=producer_idx,
                        chunk_seq=seqs[(stream_id, streamlet_id)].next(),
                        record_count=n,
                        payload_len=n * record_size,
                    )
                )
            cursor = (cursor + k) % len(partitions)
            # One requests thread per producer (paper, Figure 6): the
            # per-chunk CPU serializes across all brokers' requests, while
            # the RPCs themselves stay outstanding in parallel.
            yield from requests_thread.use(
                cost.producer_request_cost + k * cost.producer_chunk_cost
            )
            request = ProduceRequest(
                request_id=self._request_ids.next(),
                producer_id=producer_idx,
                chunks=chunks,
            )
            started = env.now
            yield from self.transport.call(
                client_node,
                broker,
                self.broker_service,
                "produce",
                request,
                request.payload_bytes(),
            )
            self.produce_latency.add(env.now - started)
            self.produced.add(request.record_count, env.now)

    # -- consumer processes -----------------------------------------------------------

    def _consumer_assignment(self, consumer_idx: int) -> dict[int, list]:
        """Spread (stream, streamlet, entry) triples over consumers."""
        from repro.kera.messages import FetchPosition

        q = self.q_active_groups
        triples = []
        for stream_id, streamlet_id in self.all_partitions:
            for entry in range(q):
                triples.append((stream_id, streamlet_id, entry))
        C = max(self.workload.num_consumers, 1)
        mine = [t for i, t in enumerate(triples) if i % C == consumer_idx]
        by_broker: dict[int, list] = {}
        for stream_id, streamlet_id, entry in mine:
            leader = self.coordinator.stream(stream_id).leaders[streamlet_id]
            by_broker.setdefault(leader, []).append(
                FetchPosition(
                    stream_id=stream_id, streamlet_id=streamlet_id, entry=entry
                )
            )
        return by_broker

    def _consumer_fetch(
        self,
        consumer_idx: int,
        broker: int,
        positions: list,
        cache: list[tuple[int, int]],
        cache_state: dict[str, Any],
    ) -> Generator[Event, Any, None]:
        from repro.kera.messages import FetchRequest

        env = self.env
        client_node = self.consumer_nodes[consumer_idx]
        backoff = _POLL_BACKOFF_MIN
        current = list(positions)
        while True:
            if cache_state["chunks"] >= self.client_cache_chunks:
                event = Event(env)
                cache_state["space_event"] = event
                yield event
            request = FetchRequest(
                request_id=self._request_ids.next(),
                consumer_id=consumer_idx,
                positions=current,
                max_chunks_per_entry=1,
            )
            response = yield from self.transport.call(
                client_node,
                broker,
                self.broker_service,
                "fetch",
                request,
                request.payload_bytes(),
            )
            current = [e.next_position for e in response.entries]
            if response.record_count == 0:
                yield env.timeout(backoff)
                backoff = min(backoff * 2, _POLL_BACKOFF_MAX)
                continue
            backoff = _POLL_BACKOFF_MIN
            cache.append((response.record_count, response.chunk_count))
            cache_state["chunks"] += response.chunk_count
            event = cache_state.get("data_event")
            if event is not None:
                cache_state["data_event"] = None
                event.succeed()

    def _consumer_source(
        self, consumer_idx: int, cache: list[tuple[int, int]], cache_state: dict[str, Any]
    ) -> Generator[Event, Any, None]:
        env = self.env
        cost = self.cost
        while True:
            if not cache:
                event = Event(env)
                cache_state["data_event"] = event
                yield event
                continue
            records, chunks = cache.pop(0)
            yield env.timeout(
                records * cost.consumer_record_cost
                + chunks * cost.consumer_pull_chunk_cost
            )
            cache_state["chunks"] -= chunks
            self.consumed.add(records, env.now)
            space = cache_state.get("space_event")
            if space is not None and cache_state["chunks"] < self.client_cache_chunks:
                cache_state["space_event"] = None
                space.succeed()

    # -- run ----------------------------------------------------------------------------

    def run(self) -> SimResult:
        env = self.env
        self._spawn_system_processes()
        # Producers.
        for idx in range(self.workload.num_producers):
            requests_thread = Resource(env, 1)
            shared: dict[str, float] = {"n": 1.0}
            for broker in self.broker_nodes:
                partitions = self.partitions_by_broker[broker]
                if not partitions:
                    continue
                env.process(
                    self._producer_requests(
                        idx, broker, partitions, shared, requests_thread
                    ),
                    name=f"producer{idx}:requests@{broker}",
                )
        # Consumers.
        for idx in range(self.workload.num_consumers):
            cache: list[tuple[int, int]] = []
            cache_state: dict[str, Any] = {"chunks": 0}
            env.process(
                self._consumer_source(idx, cache, cache_state),
                name=f"consumer{idx}:source",
            )
            for broker, positions in self._consumer_assignment(idx).items():
                env.process(
                    self._consumer_fetch(idx, broker, positions, cache, cache_state),
                    name=f"consumer{idx}:fetch@{broker}",
                )

        env.run(until=self.workload.duration)
        return self._result()

    def _result(self) -> SimResult:
        w = self.workload
        elapsed = w.duration
        result = SimResult(
            producer_rate=self.produced.rate(w.warmup, w.duration),
            consumer_rate=self.consumed.rate(w.warmup, w.duration),
            records_acked=self.produced.total,
            records_consumed=self.consumed.total,
            latency=self.produce_latency.summary(),
            duration=w.duration,
            warmup=w.warmup,
            rpc_calls=dict(self.fabric.stats.calls),
            net_bytes=self.fabric.net.bytes_sent,
            worker_utilization=[
                self.fabric.nodes[n].workers.utilization(elapsed)
                for n in self.broker_nodes
            ],
            dispatch_utilization=[
                self.fabric.nodes[n].dispatch.utilization(elapsed)
                for n in self.broker_nodes
            ],
        )
        for key, value in self._system_result_fields().items():
            setattr(result, key, value)
        return result
