"""The shared-memory pipe: worker processes over two SPSC rings.

A :class:`ProcessServiceSpec` binding on a
:class:`~repro.runtime.worker.WorkerTransport` reaches its worker
through two :class:`repro.wire.ring.SpscRing` channels living in
``multiprocessing.shared_memory`` blocks (request ring: parent writes,
child reads; response ring: child writes, the binding's reader thread
reads). What this pipe contributes to the transport:

* **boundary copy** — the request-ring write: frames go from the
  broker's segment views into the ring once, and the child reads them in
  place (views into the ring, valid until consumed);
* **credit** — physical: the request ring's free bytes. A full ring
  refuses the write; the send waits up to the transport's
  ``write_timeout`` for the child to consume, then fails;
* **liveness** — ``process-exit``: a SIGKILLed child leaves its rings
  open, so the reader polls the worker process between reads;
* **shutdown** — the parent closes the request ring; the child serves
  what is queued, closes the response ring and exits, which the reader
  sees as EOF once the ring is drained.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from multiprocessing import shared_memory
from typing import ClassVar, TypeVar

from repro.common.errors import RpcError
from repro.common.units import KB, MB
from repro.runtime.worker import (
    ParentEnd,
    Part,
    PipeEnd,
    Rendezvous,
    WorkerSpec,
    WorkerTransport,
    decode_replicate,
    encode_replicate,
)
from repro.wire.ring import SpscRing

__all__ = [
    "ProcessServiceSpec",
    "ProcessTransport",
    "decode_replicate",
    "encode_replicate",
]

#: The transport class is shared by both pipes; the *spec* a binding is
#: registered with picks the pipe. The name stays for callers that build
#: a ring-backed cluster.
ProcessTransport = WorkerTransport

_T = TypeVar("_T")

#: How long a reader waits on an empty ring before re-checking that its
#: peer process is still alive.
_LIVENESS_POLL_S = 0.05


@dataclass(frozen=True)
class ProcessServiceSpec(WorkerSpec):
    """A worker-process binding reached over shared-memory rings."""

    #: Request ring data bytes (bounds in-flight request payload).
    ring_bytes: int = 4 * MB
    #: Response ring data bytes (acks are tiny; pickled responses are not).
    response_ring_bytes: int = 256 * KB

    def open_pipe(self, key: tuple[int, str]) -> ParentEnd:
        return _RingEnd.create(key, self.ring_bytes, self.response_ring_bytes)


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without taking over its lifetime.

    On 3.13+ ``track=False`` skips the resource tracker entirely. On
    older versions the attach re-registers the name, but the tracker's
    cache is a set, so the duplicate collapses and the parent's single
    ``unlink`` balances it — the child must NOT unregister (that would
    double-remove and make the tracker log KeyErrors).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return shared_memory.SharedMemory(name=name)


def _close_shm(shm: shared_memory.SharedMemory) -> None:
    try:
        shm.close()
    except BufferError:  # pragma: no cover - stray view still exported
        pass


class _RingEnd:
    """Either end: a ring to write (``tx``) and a ring to read (``rx``).

    The parent's end creates both blocks and unlinks them on close; the
    child's end attaches to them by name with the roles swapped.
    """

    rendezvous: ClassVar[type[Rendezvous] | None] = None
    eof_source: ClassVar[str] = "process-exit"
    error_source: ClassVar[str] = "process-exit"

    def __init__(self, key: tuple[int, str], *, owner: bool) -> None:
        self.key = key
        self.owner = owner
        self.tx_shm: shared_memory.SharedMemory | None = None
        self.rx_shm: shared_memory.SharedMemory | None = None

    @classmethod
    def create(
        cls, key: tuple[int, str], ring_bytes: int, response_ring_bytes: int
    ) -> _RingEnd:
        end = cls(key, owner=True)
        try:
            end.tx_shm = shared_memory.SharedMemory(
                create=True, size=64 + max(ring_bytes, 4 * KB)
            )
            end.rx_shm = shared_memory.SharedMemory(
                create=True, size=64 + max(response_ring_bytes, 4 * KB)
            )
            end._map()
        except BaseException:
            end.close()
            raise
        return end

    @classmethod
    def attach(cls, key: tuple[int, str], request_name: str, response_name: str) -> _RingEnd:
        end = cls(key, owner=False)
        try:
            end.rx_shm = _attach(request_name)
            end.tx_shm = _attach(response_name)
            end._map()
        except BaseException:
            end.close()
            raise
        return end

    def _map(self) -> None:
        assert self.tx_shm is not None and self.rx_shm is not None
        self.tx = SpscRing(self.tx_shm.buf, reset=self.owner)
        self.rx = SpscRing(self.rx_shm.buf, reset=self.owner)

    def child_opener(self, address: tuple[str, int] | None) -> Callable[[], PipeEnd]:
        assert self.tx_shm is not None and self.rx_shm is not None
        return partial(_RingEnd.attach, self.key, self.tx_shm.name, self.rx_shm.name)

    def credit(self) -> int:
        return self.tx.free_bytes

    def reserve(self, nbytes: int, timeout: float) -> bool:
        return True  # the ring itself is the bound: send() waits on it

    def release(self, nbytes: int) -> None:
        pass  # the reader's consume is what frees ring bytes

    def send(self, kind: int, parts: Sequence[Part], timeout: float) -> None:
        if not self.tx.write(kind, parts, timeout=timeout):
            node_id, service = self.key
            raise RpcError(
                f"ring full for {service!r} on node {node_id} "
                f"(no credit after {timeout}s)"
            )

    def recv(
        self, alive: Callable[[], bool], handle: Callable[[int, memoryview], _T]
    ) -> _T | None:
        record = self.rx.read(timeout=_LIVENESS_POLL_S)
        while record is None:
            if self.rx.closed or not alive():
                # Dead-peer detection: a SIGKILLed worker never closes
                # its ring. Whatever it published before going is still
                # delivered; only an empty ring is EOF.
                record = self.rx.try_read()
                if record is None:
                    return None
            else:
                record = self.rx.read(timeout=_LIVENESS_POLL_S)
        kind, view = record
        try:
            return handle(kind, view)
        finally:
            del view, record
            self.rx.consume()

    def close_write(self) -> None:
        self.tx.close()

    def close(self) -> None:
        if hasattr(self, "tx"):
            del self.tx, self.rx  # the rings' views pin the blocks open
        for shm in (self.tx_shm, self.rx_shm):
            if shm is None:
                continue
            _close_shm(shm)
            if self.owner:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
        self.tx_shm = self.rx_shm = None
