"""The RPC fabric: routing, dispatch/worker costs, service handlers.

An RPC's life cycle (all on simulated time):

1. **send**: dispatch CPU on the caller's node, then wire transfer of the
   request (sender NIC serialization + latency + receiver NIC);
2. **dispatch**: dispatch CPU on the callee's node (this is the resource
   that saturates when too many small replication RPCs fly around — the
   effect the virtual log consolidates away);
3. **execute**: a worker core runs the service handler generator. The
   handler may yield further events (CPU timeouts, nested RPCs). Yielding
   :data:`RELEASE_WORKER` frees the worker for the rest of the handler —
   used by handlers that park on completion events (Kafka's produce
   purgatory, KerA's replication wait);
4. **reply**: dispatch CPU on callee, wire transfer of the response,
   dispatch CPU on caller.

Handlers return ``(response_object, response_payload_bytes)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Generator
from typing import Any

from repro.common.errors import RpcError, SimulationError
from repro.sim.costmodel import CostModel
from repro.sim.engine import Environment, Event, Process
from repro.sim.network import NetworkModel
from repro.rpc.node import SimNode


class _ReleaseWorker:
    """Sentinel yielded by handlers to free their worker core early."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "RELEASE_WORKER"


RELEASE_WORKER = _ReleaseWorker()

#: A service handler: ``handler(method, request) -> generator`` returning
#: ``(response, response_bytes)``.
Handler = Callable[[str, Any], Generator[Any, Any, tuple[Any, int]]]


class Service:
    """Base class for RPC services; subclasses implement :meth:`handle`."""

    def handle(
        self, method: str, request: Any
    ) -> Generator[Any, Any, tuple[Any, int]]:  # pragma: no cover - interface
        raise NotImplementedError
        yield  # make it a generator


@dataclass
class RpcStats:
    """Cluster-wide RPC accounting, by service and method."""

    calls: dict[tuple[str, str], int] = field(default_factory=dict)
    request_bytes: dict[tuple[str, str], int] = field(default_factory=dict)

    def record(self, service: str, method: str, nbytes: int) -> None:
        key = (service, method)
        self.calls[key] = self.calls.get(key, 0) + 1
        self.request_bytes[key] = self.request_bytes.get(key, 0) + nbytes

    def total_calls(self, service: str | None = None) -> int:
        return sum(
            count
            for (svc, _), count in self.calls.items()
            if service is None or svc == service
        )


class RpcFabric:
    """Owns the nodes, the network, and the service registry."""

    def __init__(self, env: Environment, num_nodes: int, cost: CostModel) -> None:
        self.env = env
        self.cost = cost
        self.net = NetworkModel(env, num_nodes, cost)
        self.nodes = [SimNode(env, i, cost) for i in range(num_nodes)]
        self._services: dict[tuple[int, str], Service] = {}
        self.stats = RpcStats()

    def register(self, node_id: int, name: str, service: Service) -> None:
        """Bind ``service`` to ``(node, name)``; one service per binding."""
        key = (node_id, name)
        if key in self._services:
            raise RpcError(f"service {name!r} already registered on node {node_id}")
        self._services[key] = service

    def lookup(self, node_id: int, name: str) -> Service:
        try:
            return self._services[(node_id, name)]
        except KeyError:
            raise RpcError(f"no service {name!r} on node {node_id}") from None

    def call(
        self,
        src: int,
        dst: int,
        service: str,
        method: str,
        request: Any,
        request_bytes: int,
    ) -> Process:
        """Issue an RPC; returns a process whose value is the response.

        Use this when the RPC runs concurrently with the caller (e.g.
        fan-out with ``all_of``). A caller that immediately awaits the
        result should prefer :meth:`call_inline`.
        """
        return self.env.process(
            self.call_inline(src, dst, service, method, request, request_bytes),
            name=f"rpc:{service}.{method}",
        )

    def call_inline(
        self,
        src: int,
        dst: int,
        service: str,
        method: str,
        request: Any,
        request_bytes: int,
    ) -> Generator[Event, Any, Any]:
        """Synchronous RPC for ``yield from`` — no process wrapper, two
        scheduler events cheaper than :meth:`call`."""
        target = self.lookup(dst, service)
        self.stats.record(service, method, request_bytes)
        cost = self.cost
        src_node = self.nodes[src]
        dst_node = self.nodes[dst]
        # 1. sender dispatch + request transfer
        yield from src_node.dispatch.use(cost.dispatch_cost)
        yield from self.net.transfer(src, dst, request_bytes)
        # 2. receiver dispatch
        yield from dst_node.dispatch.use(cost.dispatch_cost)
        # 3. worker executes the handler
        response, response_bytes = yield from self._execute(dst_node, target, method, request)
        # 4. reply path
        yield from dst_node.dispatch.use(cost.dispatch_cost)
        yield from self.net.transfer(dst, src, response_bytes)
        yield from src_node.dispatch.use(cost.dispatch_cost)
        return response

    def _execute(
        self, node: SimNode, service: Service, method: str, request: Any
    ) -> Generator[Event, Any, tuple[Any, int]]:
        yield node.workers.acquire()
        holding = True
        handler = service.handle(method, request)
        send_value: Any = None
        throw_exc: BaseException | None = None
        try:
            while True:
                try:
                    if throw_exc is not None:
                        exc, throw_exc = throw_exc, None
                        target = handler.throw(exc)
                    else:
                        target = handler.send(send_value)
                except StopIteration as stop:
                    result = stop.value
                    if (
                        not isinstance(result, tuple)
                        or len(result) != 2
                        or not isinstance(result[1], int)
                    ):
                        raise SimulationError(
                            f"handler for {method!r} must return (response, nbytes), got {result!r}"
                        )
                    return result
                if isinstance(target, _ReleaseWorker):
                    if holding:
                        node.workers.release()
                        holding = False
                    send_value = None
                    continue
                if not isinstance(target, Event):
                    raise SimulationError(
                        f"handler for {method!r} yielded a non-event: {target!r}"
                    )
                try:
                    send_value = yield target
                except BaseException as exc:  # propagate into the handler
                    throw_exc = exc
        finally:
            if holding:
                node.workers.release()
