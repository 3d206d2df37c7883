"""ThreadedTransport: bounded per-service request queues + worker threads.

The concurrent live mode: each registered (node, service) binding gets a
bounded :class:`queue.Queue` and one daemon worker thread, so a
service's handlers run one at a time. ``call`` enqueues the request
(blocking when the queue is full — real backpressure) and waits for the
response on a per-call event; handler exceptions are captured and
re-raised in the caller's thread.

No handler parks: a live produce completes through the runtime's
:class:`~repro.runtime.completion.CompletionTracker`, not by holding a
worker across the replication round trip. ``call_async`` is what the
replication ship loop rides (``repro/kera/shipper.py``): the caller — usually the
producer's own thread, which pumps — pays the enqueue (on a worker pipe,
the send); the worker or reader that finishes the call runs ``on_done``.
"""

from __future__ import annotations

import queue
import threading
from typing import Any

from repro.common.errors import RpcError
from repro.runtime.transport import CallCallback, Transport


class _PendingCall:
    """One in-flight request: the slot its worker fills."""

    __slots__ = ("method", "request", "done", "response", "error", "on_done")

    def __init__(
        self, method: str, request: Any, on_done: CallCallback | None = None
    ) -> None:
        self.method = method
        self.request = request
        self.done = threading.Event()
        self.response: Any = None
        self.error: BaseException | None = None
        self.on_done = on_done


class ThreadedTransport(Transport):
    """One bounded queue and one worker thread per (node, service)."""

    def __init__(self, *, queue_depth: int = 128, call_timeout: float = 30.0) -> None:
        if queue_depth < 1:
            raise RpcError("queue_depth must be >= 1")
        self.queue_depth = queue_depth
        self.call_timeout = call_timeout
        self._state_lock = threading.Lock()
        self._bindings: dict[tuple[int, str], Any] = {}  # guarded-by: _state_lock
        self._queues: dict[tuple[int, str], queue.Queue[_PendingCall | None]] = {}  # guarded-by: _state_lock
        self._threads: list[threading.Thread] = []  # guarded-by: _state_lock
        self._started = False  # guarded-by: _state_lock
        self._closed = False  # guarded-by: _state_lock

    def register(self, node_id: int, name: str, service: Any) -> None:
        with self._state_lock:
            if self._started:
                raise RpcError("cannot register services on a started transport")
            key = (node_id, name)
            if key in self._bindings:
                raise RpcError(
                    f"service {name!r} already registered on node {node_id}"
                )
            self._bindings[key] = service

    def start(self) -> None:
        with self._state_lock:
            if self._started:
                return
            self._started = True
            for (node, name), service in sorted(self._bindings.items()):
                q: queue.Queue[_PendingCall | None] = queue.Queue(
                    maxsize=self.queue_depth
                )
                self._queues[(node, name)] = q
                thread = threading.Thread(
                    target=self._worker,
                    args=(q, service),
                    name=f"{name}@{node}#0",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    @staticmethod
    def _worker(q: "queue.Queue[_PendingCall | None]", service: Any) -> None:
        while True:
            call = q.get()
            if call is None:
                return
            try:
                call.response = service.handle(call.method, call.request)
            except BaseException as exc:  # noqa: BLE001 - relayed to caller
                call.error = exc
            call.done.set()
            if call.on_done is not None:
                call.on_done(call.response, call.error)

    def _enqueue(
        self, dst: int, service: str, call: _PendingCall, timeout: float
    ) -> None:
        # Lock-free reads: a call racing start/shutdown sees either side
        # of the flip — at worst it enqueues onto a draining worker and
        # times out, exactly as a call landing just before shutdown does.
        if not self._started:
            raise RpcError("transport not started")
        if self._closed:
            raise RpcError("transport is shut down")
        q = self._queues.get((dst, service))
        if q is None:
            raise RpcError(f"no service {service!r} on node {dst}")
        try:
            q.put(call, timeout=timeout)
        except queue.Full:
            raise RpcError(
                f"request queue full for {service!r} on node {dst}"
            ) from None

    def call(
        self,
        src: int,
        dst: int,
        service: str,
        method: str,
        request: Any,
        request_bytes: int = 0,
    ) -> Any:
        call = _PendingCall(method, request)
        self._enqueue(dst, service, call, self.call_timeout)
        return self._wait(call, dst, service)

    def _wait(self, call: _PendingCall, dst: int, service: str) -> Any:
        """Block the caller on a submitted call; re-raise its error."""
        if not call.done.wait(self.call_timeout):
            raise RpcError(
                f"{service}.{call.method} on node {dst} timed out "
                f"after {self.call_timeout}s"
            )
        if call.error is not None:
            raise call.error
        return call.response

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
        """Enqueue without waiting: the worker thread that executes the
        handler invokes ``on_done`` (pipelined shipping rides on this).
        Enqueue-side failures (unknown service, full queue) raise here
        instead of reaching the callback."""
        self._enqueue(
            dst, service, _PendingCall(method, request, on_done), self.call_timeout
        )

    def shutdown(self) -> None:
        with self._state_lock:
            if not self._started or self._closed:
                self._closed = True
                return
            self._closed = True
            for q in self._queues.values():
                q.put(None)
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5.0)
