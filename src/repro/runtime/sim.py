"""SimTransport: the discrete-event fabric behind the Transport protocol.

Calls route through :class:`repro.rpc.fabric.RpcFabric`, so they carry
the full simulated life cycle (dispatch CPU, wire transfer, worker
execution). ``call`` returns a *generator* — the simulated caller must
``yield from`` it inside an environment process; services are
:class:`repro.rpc.fabric.Service` generators that may yield
``RELEASE_WORKER`` to park.

:class:`SimKeraReplication` is KerA's push-replication pipeline on this
transport: one shipping process per virtual log, one batch in flight,
staging cost charged against the broker's workers. It drives the same
:class:`~repro.replication.virtual_log.VirtualLog` cursor and flight
table as the live ship loop (:mod:`repro.kera.shipper`), on sim time.
"""

from __future__ import annotations

from collections.abc import Generator
from typing import Any, TYPE_CHECKING

from repro.runtime.transport import Transport
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.fabric import RpcFabric
    from repro.runtime.completion import CompletionTracker
    from repro.runtime.system import KeraSystem
    from repro.sim.costmodel import CostModel
    from repro.sim.engine import Environment


class SimTransport(Transport):
    """Requests travel over the simulated RPC fabric."""

    def __init__(self, fabric: "RpcFabric") -> None:
        self.fabric = fabric
        self.env = fabric.env

    def register(self, node_id: int, name: str, service: Any) -> None:
        self.fabric.register(node_id, name, service)

    def call(
        self,
        src: int,
        dst: int,
        service: str,
        method: str,
        request: Any,
        request_bytes: int = 0,
    ) -> Generator[Event, Any, Any]:
        """Synchronous-from-the-caller RPC: ``yield from`` the result."""
        return self.fabric.call_inline(src, dst, service, method, request, request_bytes)

    def call_spawn(
        self,
        src: int,
        dst: int,
        service: str,
        method: str,
        request: Any,
        request_bytes: int = 0,
    ) -> Any:
        """Fan-out form: returns a process to combine with ``all_of``.

        Distinct from :meth:`Transport.call_async` (the live callback
        API) — in the sim world completion is an event, not a callback.
        """
        return self.fabric.call(src, dst, service, method, request, request_bytes)

    def completion_event(
        self, completion: "CompletionTracker", node_id: int, request_id: int
    ) -> Event:
        """A sim event that succeeds when the request completes (already
        succeeded if the completion beat the registration)."""
        event = Event(self.env)
        if completion.register(node_id, request_id, event.succeed):
            event.succeed()
        return event


class SimKeraReplication:
    """KerA's simulated push-replication pipeline (one per driver)."""

    def __init__(
        self,
        env: "Environment",
        fabric: "RpcFabric",
        cost: "CostModel",
        system: "KeraSystem",
    ) -> None:
        self.env = env
        self.fabric = fabric
        self.cost = cost
        self.system = system

    def start_shipments(self, broker_id: int) -> None:
        """Spawn a shipping process per virtual log made ready by the
        produce call that just ran."""
        core = self.system.broker_cores[broker_id]
        for batch in core.collect_batches():
            vlog = core.vlog_for_batch(batch)
            self.env.process(
                self._ship_loop(broker_id, vlog, batch),
                name=f"ship:b{broker_id}v{batch.vlog_id}",
            )

    def _ship_loop(
        self, broker_id: int, vlog: Any, batch: Any
    ) -> Generator[Event, Any, None]:
        core = self.system.broker_cores[broker_id]
        cost = self.cost
        workers = self.fabric.nodes[broker_id].workers
        while batch is not None:
            # Staging the batch (reference walk, wire headers, checksum
            # folding) consumes broker worker CPU and serializes per
            # virtual log — the replication pipeline a single shared log
            # provides, and the reason replication capacity is a knob.
            yield from workers.use(
                cost.repl_batch_send_cost
                + batch.chunk_count * cost.repl_chunk_send_cost
            )
            request = self.system.replicate_request(broker_id, batch)
            nbytes = request.payload_bytes()
            if len(batch.backups) == 1:
                yield from self.fabric.call_inline(
                    broker_id, batch.backups[0], "backup", "replicate", request, nbytes
                )
            else:
                rpcs = [
                    self.fabric.call(
                        broker_id, backup, "backup", "replicate", request, nbytes
                    )
                    for backup in batch.backups
                ]
                yield self.env.all_of(rpcs)
            core.complete_batch(batch)
            batch = vlog.next_batch()
