"""The Transport protocol: deliver request -> route to service -> respond.

A transport owns request *delivery*; it knows nothing about streams,
replication, or durability. Implementations differ only in how a call
travels:

* :class:`repro.runtime.sim.SimTransport` — over the discrete-event RPC
  fabric; ``call`` returns a generator the caller must ``yield from``
  inside a simulated process, and services are
  :class:`repro.rpc.fabric.Service` generators;
* :class:`repro.runtime.inproc.InprocTransport` — the handler runs
  inline; ``call`` returns the response directly;
* :class:`repro.runtime.threaded.ThreadedTransport` — the request is
  enqueued on the target (node, service) bounded queue and executed by
  that binding's one worker thread; ``call`` blocks until the response
  (or a timeout) and returns it;
* :class:`repro.runtime.worker.WorkerTransport` — the threaded transport
  plus bindings hosted in worker processes, each reached over the pipe
  (shared-memory rings or framed TCP) its spec picks.

Live (non-sim) services implement ``handle(method, request) -> response``;
exceptions raised by a handler propagate to the caller.

Adding a new transport (e.g. sockets or asyncio) means implementing this
class and, if the system needs behaviour per transport (locking, cost
charging), thin service wrappers around the same cores — see
``repro/kera/threaded.py`` for the worked example.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

#: Completion callback for :meth:`Transport.call_async`: exactly one of
#: (response, error) is non-None. Runs on a transport-owned thread — keep
#: it short and never call back into the transport synchronously.
CallCallback = Callable[[Any, BaseException | None], None]


class LiveService:
    """Base class for live (non-simulated) services."""

    def handle(self, method: str, request: Any) -> Any:  # pragma: no cover
        raise NotImplementedError


class Transport:
    """How requests move between nodes. See the module docstring for the
    sim/live calling-convention difference on :meth:`call`."""

    def register(self, node_id: int, name: str, service: Any) -> None:
        """Bind ``service`` to ``(node, name)``; one service per binding.

        A concurrent transport serves each binding with exactly one
        worker, so a service's handlers never run concurrently.
        """
        raise NotImplementedError

    def call(
        self,
        src: int,
        dst: int,
        service: str,
        method: str,
        request: Any,
        request_bytes: int = 0,
    ) -> Any:
        """Deliver ``request`` to ``service.method`` on node ``dst``.

        ``request_bytes`` is the wire size, charged by transports that
        model the network; byte-oblivious transports ignore it.
        """
        raise NotImplementedError

    def call_async(
        self,
        src: int,
        dst: int,
        service: str,
        method: str,
        request: Any,
        request_bytes: int = 0,
        *,
        on_done: CallCallback,
    ) -> None:
        """Issue a call without waiting; ``on_done(response, error)`` fires
        when it resolves. The default runs the call synchronously — only
        concurrent transports gain actual pipelining by overriding this.
        """
        try:
            response = self.call(src, dst, service, method, request, request_bytes)
        except BaseException as exc:  # noqa: BLE001 - relayed to the callback
            on_done(None, exc)
        else:
            on_done(response, None)

    def credit(self, dst: int, service: str) -> int:
        """Bytes of in-flight work ``(dst, service)`` can absorb right now.

        Transports with real bounded channels (shared-memory rings)
        report their free bytes; others report a large constant so credit
        never gates shipping.
        """
        return 1 << 62

    def start(self) -> None:
        """Bring the transport up (spawn threads, open sockets)."""

    def shutdown(self) -> None:
        """Tear the transport down; idempotent."""
