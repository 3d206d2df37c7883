"""The TCP pipe: worker processes behind framed localhost connections.

A :class:`SocketServiceSpec` binding on a
:class:`~repro.runtime.worker.WorkerTransport` reaches its worker over
one TCP connection speaking the length-prefixed frame protocol of
:mod:`repro.wire.netframe` — the first pipe that crosses a
machine-shaped boundary. What this pipe contributes to the transport:

* **boundary copy** — the kernel's: requests are written with
  scatter-gather ``sendmsg`` straight from the broker's segment views
  (header + length table + frame views, no coalescing copy), and both
  ends read into a preallocated buffer with ``recv_into``.
  ``TCP_NODELAY`` is set on both ends — consolidation is the shipper's
  adaptive batcher's job, not Nagle's;
* **credit** — a :class:`~repro.replication.flow.FlowController` byte
  window per connection bounds unacked request payload in flight (the
  socket buffer replaces the ring's physical bound); the pipelined
  shipper throttles on its free bytes exactly as on ring free bytes;
* **liveness** — ``socket-eof`` (a SIGKILLed child closes its socket
  with a clean FIN) or ``socket-error`` (reset, garbage, mid-frame
  drop), noticed by the connection's one blocking reader thread;
* **shutdown** — a ``SHUT_WR`` half-close: the child serves every
  request already in the stream, pushes the responses and exits on EOF.

Connection establishment is child-initiated for port-free rendezvous:
the parent listens on an ephemeral port, each spawned worker connects
back and introduces itself with a ``KIND_HELLO`` frame naming its
``(node, service)`` binding, so accept order never matters. Swap the
localhost rendezvous for real addresses and the same frames cross a
real network.
"""

from __future__ import annotations

import socket
import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from typing import ClassVar, TypeVar

from repro.common.errors import RpcError
from repro.common.units import MB
from repro.replication.flow import FlowController
from repro.runtime.worker import (
    ParentEnd,
    Part,
    PipeBroken,
    PipeEnd,
    Rendezvous,
    WorkerSpec,
    WorkerTransport,
)
from repro.wire.netframe import FrameProtocolError, FrameReceiver, send_frame

__all__ = ["SocketServiceSpec", "SocketTransport"]

#: The transport class is shared by both pipes; the *spec* a binding is
#: registered with picks the pipe. The name stays for callers that build
#: a TCP-backed cluster.
SocketTransport = WorkerTransport

_T = TypeVar("_T")

#: Frame kind beyond the shared request/response kinds: the child's
#: self-introduction after connecting back to the parent's rendezvous
#: listener. Payload: ``<q`` node_id + utf-8 service name.
KIND_HELLO = 8
_HELLO_HEAD = struct.Struct("<q")


@dataclass(frozen=True)
class SocketServiceSpec(WorkerSpec):
    """A worker-process binding reached over a framed TCP connection."""

    #: Byte-credit window: unacked request payload in flight to this
    #: worker (the sockets analog of the request ring's data bytes).
    window_bytes: int = 4 * MB
    #: Per-frame payload ceiling on both directions of the connection.
    max_frame_bytes: int = 64 * MB

    def open_pipe(self, key: tuple[int, str]) -> ParentEnd:
        return _TcpEnd(key, self.window_bytes, self.max_frame_bytes)


class _TcpRendezvous:
    """The parent's ephemeral listener: accept, read hello, attach."""

    def __init__(self, host: str, backlog: int, accept_timeout: float) -> None:
        self.accept_timeout = accept_timeout
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.bind((host, 0))
        self._sock.listen(backlog)
        self._sock.settimeout(accept_timeout)
        self.address: tuple[str, int] = self._sock.getsockname()

    def accept(self, pipes: dict[tuple[int, str], _TcpEnd]) -> None:
        unmatched = dict(pipes)
        while unmatched:
            try:
                conn, _addr = self._sock.accept()
            except TimeoutError:
                raise RpcError(
                    f"socket service worker(s) {sorted(unmatched)} did "
                    f"not connect within {self.accept_timeout}s"
                ) from None
            key = self._read_hello(conn)
            pipe = unmatched.pop(key, None)
            if pipe is None:
                conn.close()
                raise RpcError(f"unexpected hello from unknown binding {key}")
            pipe.attach(conn)

    def _read_hello(self, conn: socket.socket) -> tuple[int, str]:
        conn.settimeout(self.accept_timeout)
        record = FrameReceiver(conn, max_frame_bytes=1024).recv_frame()
        if record is None:
            raise RpcError("worker connection closed before hello")
        kind, view = record
        if kind != KIND_HELLO:
            raise RpcError(f"expected hello frame, got kind {kind}")
        (node_id,) = _HELLO_HEAD.unpack_from(view, 0)
        name = bytes(view[_HELLO_HEAD.size :]).decode("utf-8")
        return (node_id, name)

    def close(self) -> None:
        self._sock.close()


class _TcpEnd:
    """Either end of one connection; the parent's also holds the credit
    window (the child's stays unused)."""

    rendezvous: ClassVar[type[Rendezvous] | None] = _TcpRendezvous
    eof_source: ClassVar[str] = "socket-eof"
    error_source: ClassVar[str] = "socket-error"

    def __init__(
        self, key: tuple[int, str], window_bytes: int, max_frame_bytes: int
    ) -> None:
        self.key = key
        self.max_frame_bytes = max_frame_bytes
        self.flow = FlowController(window_bytes)
        self.sock: socket.socket | None = None
        self.receiver: FrameReceiver | None = None

    def attach(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self.sock = sock
        self.receiver = FrameReceiver(sock, max_frame_bytes=self.max_frame_bytes)

    @classmethod
    def dial(
        cls, address: tuple[str, int], key: tuple[int, str], max_frame_bytes: int
    ) -> _TcpEnd:
        """Child side: connect back to the parent and say hello."""
        end = cls(key, 0, max_frame_bytes)
        sock = socket.create_connection(address, timeout=30.0)
        try:
            end.attach(sock)
            node_id, name = key
            hello = _HELLO_HEAD.pack(node_id) + name.encode("utf-8")
            send_frame(sock, KIND_HELLO, [hello])
        except BaseException:
            sock.close()
            raise
        return end

    def child_opener(self, address: tuple[str, int] | None) -> Callable[[], PipeEnd]:
        assert address is not None
        return partial(_TcpEnd.dial, address, self.key, self.max_frame_bytes)

    def credit(self) -> int:
        return self.flow.credit()

    def reserve(self, nbytes: int, timeout: float) -> bool:
        return self.flow.acquire(nbytes, timeout=timeout)

    def release(self, nbytes: int) -> None:
        self.flow.release(nbytes)

    def send(self, kind: int, parts: Sequence[Part], timeout: float) -> None:
        try:
            send_frame(self.sock, kind, parts)  # type: ignore[arg-type]
        except OSError as exc:
            node_id, service = self.key
            raise RpcError(
                f"send for {service!r} on node {node_id} failed: {exc!r}"
            ) from exc

    def recv(
        self, alive: Callable[[], bool], handle: Callable[[int, memoryview], _T]
    ) -> _T | None:
        assert self.receiver is not None
        try:
            record = self.receiver.recv_frame()
        except (FrameProtocolError, OSError) as exc:
            raise PipeBroken(str(exc)) from exc
        # The view aliases the receive buffer the next recv overwrites,
        # so it is handled here, before the caller can ask again.
        return None if record is None else handle(*record)

    def close_write(self) -> None:
        if self.sock is not None:
            try:
                self.sock.shutdown(socket.SHUT_WR)
            except OSError:  # pragma: no cover - peer already gone
                pass

    def close(self) -> None:
        if self.sock is not None:
            try:
                self.sock.close()
            except OSError:  # pragma: no cover - already closed
                pass
            self.sock = None
        self.receiver = None
