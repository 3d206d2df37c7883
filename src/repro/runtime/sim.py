"""SimTransport: the discrete-event fabric behind the Transport protocol.

Calls route through :class:`repro.rpc.fabric.RpcFabric`, so they carry
the full simulated life cycle (dispatch CPU, wire transfer, worker
execution). ``call`` returns a *generator* — the simulated caller must
``yield from`` it inside an environment process; services are
:class:`repro.rpc.fabric.Service` generators that may yield
``RELEASE_WORKER`` to park. Every simulated caller — clients, Kafka's
replica fetchers, KerA's ship loop — reaches a service through this
transport; none calls the fabric directly.

:class:`SimShipper` is KerA's replication ship loop on sim time: the
same :class:`~repro.replication.ship_core.ShipCore` the live drivers
run (flight table, credit window, ``pipeline_depth`` slots per virtual
log), in a shell whose sends are ``call_spawn`` processes and whose
staging cost is charged to the broker's workers.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from contextlib import nullcontext
from typing import Any, TYPE_CHECKING

from repro.common.errors import SimulationError
from repro.replication.ship_core import CreditWindow, Flight, ShipCore
from repro.runtime.transport import Transport
from repro.sim.engine import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.fabric import RpcFabric
    from repro.runtime.system import KeraSystem
    from repro.sim.costmodel import CostModel
    from repro.sim.engine import Environment, Process


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
    ) -> "Process":
        """Fan-out form: a process to combine with ``all_of`` (in the sim
        world completion is an event, not a ``call_async`` callback)."""
        return self.fabric.call(src, dst, service, method, request, request_bytes)


class _SimCredit(CreditWindow):
    """The credit window on sim time: a flight out of credit queues, and
    releases grant queued flights in order."""

    def __init__(self, env: "Environment", window_bytes: int) -> None:
        super().__init__(window_bytes)
        self.env = env
        self._queue: deque[tuple[int, Event]] = deque()

    def wait(self, nbytes: int) -> Event | None:
        """None when ``nbytes`` is granted now, else the grant's event."""
        if not self._queue and self.try_acquire(nbytes):
            return None
        event = Event(self.env)
        self._queue.append((nbytes, event))
        return event

    def release(self, nbytes: int) -> None:
        super().release(nbytes)
        while self._queue and self.try_acquire(self._queue[0][0]):
            self._queue.popleft()[1].succeed()


class SimShipper:
    """One broker's ship core on sim time (the sim broker's produce
    handler kicks it)."""

    def __init__(
        self,
        transport: SimTransport,
        cost: "CostModel",
        system: "KeraSystem",
        broker_id: int,
    ) -> None:
        self.env = transport.env
        self.transport = transport
        self.cost = cost
        self.system = system
        self.broker_id = broker_id
        self.workers = transport.fabric.nodes[broker_id].workers
        self.flow = _SimCredit(self.env, system.config.replication.ship_window_bytes)
        self.core = ShipCore(system.broker_cores[broker_id], self, self.flow, nullcontext())

    # -- the core's actions (and the kick) -------------------------------------------

    def send(self, flight: Flight) -> None:
        self.env.process(
            self._ship(flight), name=f"ship:b{self.broker_id}v{flight.batch.vlog_id}"
        )

    def _ship(self, flight: Flight) -> Generator[Event, Any, None]:
        batch = flight.batch
        cost = self.cost
        # Staging the batch (reference walk, wire headers, checksum
        # folding) consumes broker worker CPU; up to pipeline_depth
        # stagings of one virtual log overlap, on as many workers.
        yield from self.workers.use(
            cost.repl_batch_send_cost + batch.chunk_count * cost.repl_chunk_send_cost
        )
        request = self.system.replicate_request(self.broker_id, batch)
        nbytes = request.payload_bytes()
        granted = self.flow.wait(nbytes)
        if granted is not None:
            yield granted
        flight.nbytes = nbytes
        calls = []
        for backup in batch.backups:
            self.core.owe(flight, backup)
            calls.append(
                self.transport.call_spawn(
                    self.broker_id, backup, "backup", "replicate", request, nbytes
                )
            )
        yield self.env.all_of(calls)
        for backup in batch.backups:
            self.core.resolve(flight, backup, None)

    def wake(self) -> None:
        self.core.pump()

    kick = wake

    def claim_backup(self, node: int, error: BaseException) -> bool:
        return False

    def fail_produces(self, error: BaseException) -> None:
        raise SimulationError(f"replication from broker {self.broker_id} failed") from error

    def turn_started(self) -> None:
        pass
