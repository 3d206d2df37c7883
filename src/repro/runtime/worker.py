"""WorkerTransport: service workers in child processes over a duplex pipe.

The one remote-worker transport. Bindings registered as a
:class:`WorkerSpec` run in *worker processes*; everything else keeps the
:class:`ThreadedTransport` behaviour (one worker thread per
binding). This class owns, once, what every worker link needs — the
call table and call ids, credit accounting, liveness reporting,
poison-record skipping and close-then-drain shutdown — and is
parameterised by the *pipe* a spec opens: the parent's end
(:class:`ParentEnd`) and the symmetric end (:class:`PipeEnd`) its child
opens. Two pipes exist — shared-memory
SPSC rings (:mod:`repro.runtime.process`) and framed TCP
(:mod:`repro.runtime.socket_transport`); each module states what its
pipe contributes: the boundary copy, the credit source, the liveness
signal and the shutdown signal.

Replication is the whole point, so it gets a dedicated zero-pickle wire
form on either pipe: a ``ReplicateRequest`` carrying frames is packed as
a fixed header plus the raw frame bytes, handed to the pipe straight
from the broker's segment views (the single boundary copy) and rebuilt
in the child as views *into the pipe's receive memory* — no pickling, no
intermediate buffers. Because the bytes crossed an address space, the
rebuilt request carries ``frames_verified=False`` and the child
re-validates CRCs — on another core — before copying frames into its
store (the validate-at-boundary discipline from ``repro.wire.chunk``).
Acks return as 20-byte packed records. Any other method falls back to
pickle over the same pipe.

Backpressure: ``credit`` exposes the pipe's free bytes and the pipelined
shipper (``repro.kera.shipper``) throttles on it; a request that finds
no credit within ``write_timeout`` fails instead of queueing unbounded.

Shutdown contract (close-then-drain): each pipe's write side is closed;
the child keeps serving every request already in the pipe, pushes the
responses, runs the service's ``close()`` hook and exits; the parent's
reader threads resolve pendings until the pipe reports EOF. Only calls
that never reached a pipe fail.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import struct
import threading
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, ClassVar, Protocol, TypeVar

from repro.common.errors import RpcError
from repro.runtime.threaded import ThreadedTransport, _PendingCall
from repro.runtime.transport import CallCallback

if TYPE_CHECKING:
    # repro.kera imports repro.runtime, so runtime modules import kera
    # message types lazily (package discipline — see runtime/__init__).
    from repro.kera.messages import ReplicateRequest

#: Pipe record kinds (0 is the ring's own padding kind).
KIND_PICKLE = 1  # pickled (call_id, method, request) / (call_id, response, error)
KIND_REPLICATE = 2  # packed ReplicateRequest + raw frame bytes
KIND_ACK = 3  # packed ReplicateResponse

#: call_id, src_broker, vlog_id, vseg_id, vseg_capacity, batch_checksum, nframes
_REPL_HEAD = struct.Struct("<QqqqqII")
#: call_id, ok, bytes_held
_ACK = struct.Struct("<QIq")

#: One ``bytes``-like part of a record; a pipe writes the parts of a
#: record back to back without coalescing them first.
Part = bytes | memoryview
#: An encoded response: ``(call_id, kind, parts)``.
Reply = tuple[int, int, list[Part]]
_T = TypeVar("_T")

#: Transport-level liveness notification: ``(node_id, service, source,
#: reason)``. ``source`` names the detection channel ("process-exit" for
#: a reaped worker process, "socket-eof" / "socket-error" for a broken
#: worker connection) so failure detectors can type their verdicts.
LivenessListener = Callable[[int, str, str, str], None]


class PipeBroken(RpcError):
    """A pipe failed mid-stream (as opposed to a clean EOF)."""


class PipeEnd(Protocol):
    """One end of a worker's duplex pipe; both ends speak the same way
    (the parent sends requests and receives replies, the child the
    reverse)."""

    def send(self, kind: int, parts: Sequence[Part], timeout: float) -> None:
        """Write one record (callers serialize). Raises ``RpcError``
        when the peer makes no room within ``timeout`` or is gone."""

    def recv(
        self, alive: Callable[[], bool], handle: Callable[[int, memoryview], _T]
    ) -> _T | None:
        """Take the next record (blocking) and return
        ``handle(kind, view)``, run while the pipe's receive memory is
        still valid. ``None`` is EOF: the peer closed its write side and
        everything before the close was delivered, or — for pipes that
        cannot see a peer vanish — ``alive()`` turned false. Raises
        :class:`PipeBroken` when the stream itself fails."""

    def close_write(self) -> None:
        """Tell the peer no more records follow (close-then-drain)."""

    def close(self) -> None:
        """Release this end's resources."""


class Rendezvous(Protocol):
    """Where the children of dial-back pipes find the parent."""

    address: tuple[str, int]

    def __init__(self, host: str, backlog: int, accept_timeout: float) -> None: ...

    def accept(self, pipes: dict[tuple[int, str], Any]) -> None:
        """Attach one inbound connection to each pipe, matched by the
        ``(node, service)`` key its child introduces itself with."""

    def close(self) -> None: ...


class ParentEnd(PipeEnd, Protocol):
    """The parent's end: also owns the pipe's credit and spawns its peer."""

    #: The rendezvous a pipe whose child connects back to the parent
    #: needs; ``None`` when the child can attach on its own (named
    #: shared memory).
    rendezvous: ClassVar[type[Rendezvous] | None]
    #: ``liveness_listener`` sources for an unexpected EOF / a failure.
    eof_source: ClassVar[str]
    error_source: ClassVar[str]

    def child_opener(self, address: tuple[str, int] | None) -> Callable[[], PipeEnd]:
        """A picklable callable that opens the peer end *in the child*
        (on failure it leaves nothing open)."""

    def credit(self) -> int:
        """Request bytes the pipe can absorb right now."""

    def reserve(self, nbytes: int, timeout: float) -> bool:
        """Take ``nbytes`` of credit (bounded wait); :meth:`release`
        returns it when the call resolves. A pipe whose bound is
        physical (a ring) admits here and makes :meth:`send` wait."""

    def release(self, nbytes: int) -> None: ...


@dataclass(frozen=True)
class WorkerSpec:
    """A service binding to run in a worker process.

    ``factory(**kwargs)`` is invoked *in the child* to build the service
    (an object with ``handle(method, request)`` and optionally
    ``close()``); both must be picklable and importable from a module
    top level so the spawn start method works too. The parent process
    never constructs the service — state lives exclusively in the child,
    reachable only through RPCs. Subclasses choose the pipe.
    """

    factory: Any
    kwargs: dict[str, Any] = field(default_factory=dict)

    def open_pipe(self, key: tuple[int, str]) -> ParentEnd:
        raise NotImplementedError


# -- wire forms -----------------------------------------------------------------


def encode_replicate(call_id: int, request: "ReplicateRequest") -> list[Part]:
    """Pack a frames-bearing replicate request (no pickle).

    Returns parts the pipe concatenates during its single boundary copy;
    the frame views are handed through untouched.
    """
    frames = request.frames
    assert frames is not None
    head = _REPL_HEAD.pack(
        call_id,
        request.src_broker,
        request.vlog_id,
        request.vseg_id,
        request.vseg_capacity,
        request.batch_checksum,
        len(frames),
    )
    lens = struct.pack(f"<{len(frames)}I", *(len(f) for f in frames))
    return [head, lens, *frames]


def decode_replicate(view: memoryview) -> "tuple[int, ReplicateRequest]":
    """Rebuild a replicate request from pipe bytes, zero-copy.

    The frames are views into the pipe's receive memory: valid until the
    record is consumed, and flagged unverified because they crossed an
    address space — the store re-checks CRCs before copying them out.
    """
    from repro.kera.messages import ReplicateRequest

    call_id, src, vlog, vseg, cap, checksum, nframes = _REPL_HEAD.unpack_from(view, 0)
    offset = _REPL_HEAD.size
    lens = struct.unpack_from(f"<{nframes}I", view, offset)
    offset += 4 * nframes
    frames = []
    for length in lens:
        frames.append(view[offset : offset + length])
        offset += length
    request = ReplicateRequest(
        src_broker=src,
        vlog_id=vlog,
        vseg_id=vseg,
        vseg_capacity=cap,
        batch_checksum=checksum,
        frames=tuple(frames),
        frames_verified=False,
    )
    return call_id, request


def _encode_request(call_id: int, method: str, request: Any) -> tuple[int, list[Part]]:
    from repro.kera.messages import ReplicateRequest

    if (
        method == "replicate"
        and isinstance(request, ReplicateRequest)
        and request.frames is not None
    ):
        return KIND_REPLICATE, encode_replicate(call_id, request)
    return KIND_PICKLE, [pickle.dumps((call_id, method, request))]


def _decode_response(
    ack_type: Any, kind: int, view: memoryview
) -> tuple[int, Any, BaseException | None]:
    """``ack_type`` is ``ReplicateResponse``, imported once per reader
    (lazily — see the package discipline note above), not per record."""
    try:
        if kind == KIND_ACK:
            call_id, ok, bytes_held = _ACK.unpack_from(view, 0)
            return call_id, ack_type(ok=bool(ok), bytes_held=bytes_held), None
        call_id, response, error = pickle.loads(view)
        return call_id, response, error
    except Exception:  # noqa: BLE001 -- poison response record
        # A response that cannot decode — a short/garbage ack
        # (struct.error) as much as an undecodable pickle — must not
        # kill the reader: skip it (call id -1 resolves nothing); the
        # pending call times out or fails at shutdown.
        return -1, None, None


def _serve(service: Any, kind: int, view: memoryview) -> Reply:
    """Decode one request record, run the handler, encode the response."""
    from repro.kera.messages import ReplicateResponse

    if kind == KIND_REPLICATE:
        call_id, request = decode_replicate(view)
        method = "replicate"
    else:
        call_id, method, request = pickle.loads(view)
    try:
        response = service.handle(method, request)
    except BaseException as exc:  # noqa: BLE001 - relayed to the caller
        try:
            payload = pickle.dumps((call_id, None, exc))
            pickle.loads(payload)  # prove it survives the round trip
        except Exception:
            payload = pickle.dumps(
                (call_id, None, RpcError(f"{type(exc).__name__}: {exc}"))
            )
        return call_id, KIND_PICKLE, [payload]
    if kind == KIND_REPLICATE and isinstance(response, ReplicateResponse):
        packed = _ACK.pack(call_id, 1 if response.ok else 0, response.bytes_held)
        return call_id, KIND_ACK, [packed]
    return call_id, KIND_PICKLE, [pickle.dumps((call_id, response, None))]


#: What the child's handler returns for a request that earns no reply.
_NO_REPLY: Reply = (-1, 0, [])


def _worker_main(
    open_end: Callable[[], PipeEnd], factory: Any, kwargs: dict[str, Any]
) -> None:
    """Child process main: serve requests until the pipe closes and drains."""
    end = open_end()
    service: Any = None
    try:
        service = factory(**kwargs)

        def handle(kind: int, view: memoryview) -> Reply:
            try:
                return _serve(service, kind, view)
            except Exception:  # noqa: BLE001 -- a poison record (malformed frame head, undecodable pickle) must not wedge the pipe: it is consumed either way, the caller times out, later requests still get served.
                return _NO_REPLY

        try:
            # ``alive`` is constant: the child learns of the parent's
            # exit from the pipe closing, not by polling for it.
            while (reply := end.recv(lambda: True, handle)) is not None:
                if reply is _NO_REPLY:
                    continue
                call_id, out_kind, parts = reply
                try:
                    end.send(out_kind, parts, timeout=30.0)
                except RpcError as exc:
                    # Typically a reply larger than the pipe can ever
                    # carry (a recovery read against a small response
                    # ring): fail that call, not the worker. With the
                    # parent gone this raises as well.
                    error = RpcError(f"reply undeliverable: {exc}")
                    payload = pickle.dumps((call_id, None, error))
                    end.send(KIND_PICKLE, [payload], timeout=30.0)
        except RpcError:
            # A garbage frame (no resync on a byte stream) or a reply
            # nobody reads (the parent's reader is gone and fails the
            # pending call itself): either way, drain out.
            pass
    finally:
        close = getattr(service, "close", None)
        if callable(close):
            try:
                # Service shutdown hook: lets a durable backup drain its
                # flusher and fsync segment files before the child exits.
                close()
            except Exception:  # noqa: S110 -- nothing to relay to: the pipe is closing; a failed drain must not mask the clean exit path.
                pass
        end.close_write()
        end.close()


class _WorkerBinding:
    """Parent-side state of one worker process and its pipe."""

    def __init__(self, key: tuple[int, str], spec: WorkerSpec) -> None:
        self.key = key
        self.spec = spec
        self.pipe = spec.open_pipe(key)
        # A pipe has one writer: concurrent parent callers (several
        # brokers shipping to one backup) serialize on this lock.
        self.write_lock = threading.Lock()
        self.process: multiprocessing.process.BaseProcess | None = None
        self.reader: threading.Thread | None = None
        #: True from a successful start until the worker is found dead
        #: or the transport shuts down: submits to an unlinked binding
        #: fail fast instead of queueing requests no one will serve.
        self.linked = False

    def destroy(self) -> None:
        self.linked = False
        if self.process is not None and self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=5.0)
            if self.reader is not None:
                # A worker that had to be terminated never signalled
                # EOF; its reader notices the exit and lets go of the
                # pipe before the pipe's memory is released.
                self.reader.join(timeout=5.0)
        self.pipe.close()


class WorkerTransport(ThreadedTransport):
    """ThreadedTransport plus process-hosted bindings, one pipe each."""

    def __init__(
        self,
        *,
        queue_depth: int = 128,
        call_timeout: float = 30.0,
        write_timeout: float = 5.0,
        host: str = "127.0.0.1",
        accept_timeout: float = 30.0,
    ) -> None:
        super().__init__(queue_depth=queue_depth, call_timeout=call_timeout)
        #: How long a request may wait for pipe credit before failing.
        self.write_timeout = write_timeout
        #: Where dial-back pipes rendezvous, and how long a spawned
        #: worker gets to connect.
        self.host = host
        self.accept_timeout = accept_timeout
        self._workers: dict[tuple[int, str], _WorkerBinding] = {}  # guarded-by: _state_lock
        self._pending_lock = threading.Lock()
        #: call_id -> (pending call, its binding, reserved credit bytes)
        self._pending: dict[int, tuple[_PendingCall, _WorkerBinding, int]] = {}  # guarded-by: _pending_lock
        self._call_ids = itertools.count()
        self._listener: Rendezvous | None = None
        #: Clean-shutdown flag: the EOF that follows our own close is
        #: expected and must not be reported as a worker failure.
        self._draining = threading.Event()
        #: Settable hook: called ``(node_id, service, source, reason)``
        #: when a worker is lost outside shutdown. The transport never
        #: imports the failover plane — detectors attach themselves here
        #: (dependency points failover -> runtime).
        self.liveness_listener: LivenessListener | None = None

    # -- registration / lifecycle -------------------------------------------

    def register(self, node_id: int, name: str, service: Any) -> None:
        key = (node_id, name)
        hosted = isinstance(service, WorkerSpec)
        with self._state_lock:
            if key in self._workers or (hosted and key in self._bindings):
                raise RpcError(f"service {name!r} already registered on node {node_id}")
            if hosted:
                if self._started:
                    raise RpcError("cannot register services on a started transport")
                self._workers[key] = _WorkerBinding(key, service)
        if not hosted:
            super().register(node_id, name, service)

    def start(self) -> None:
        with self._state_lock:
            if self._started:
                return
            bindings = list(self._workers.values())
        # Workers come up before any thread-hosted service can issue a
        # call toward them; the fork context keeps startup cheap (the
        # children never touch inherited cluster state — only their pipe).
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        dialing = {b.key: b.pipe for b in bindings if b.pipe.rendezvous is not None}
        rendezvous = next((pipe.rendezvous for pipe in dialing.values()), None)
        if rendezvous is not None:
            self._listener = rendezvous(self.host, len(dialing), self.accept_timeout)
        address = None if self._listener is None else self._listener.address
        for binding in bindings:
            node_id, name = binding.key
            binding.process = ctx.Process(
                target=_worker_main,
                args=(
                    binding.pipe.child_opener(address),
                    binding.spec.factory,
                    binding.spec.kwargs,
                ),
                name=f"{name}@{node_id}",
                daemon=True,
            )
            binding.process.start()
        if self._listener is not None:
            self._listener.accept(dialing)
        for binding in bindings:
            node_id, name = binding.key
            binding.linked = True
            binding.reader = threading.Thread(
                target=self._read_loop,
                args=(binding,),
                name=f"worker-reader-{name}@{node_id}",
                daemon=True,
            )
            binding.reader.start()
        super().start()

    def shutdown(self) -> None:
        with self._state_lock:
            bindings = list(self._workers.values())
            already_closed = self._closed
        if not already_closed:
            # Close-then-drain: children serve every request already in
            # their pipe, push the responses, and exit; each reader keeps
            # resolving pendings until its pipe reports EOF.
            self._draining.set()
            for binding in bindings:
                binding.pipe.close_write()
            for binding in bindings:
                if binding.process is not None:
                    binding.process.join(timeout=10.0)
            for binding in bindings:
                if binding.reader is not None:
                    binding.reader.join(timeout=5.0)
            with self._pending_lock:
                leftover = list(self._pending.values())
                self._pending.clear()
            for call, binding, nbytes in leftover:
                binding.pipe.release(nbytes)
                _finish(call, None, RpcError("transport shut down with call in flight"))
            for binding in bindings:
                binding.destroy()
            if self._listener is not None:
                self._listener.close()
        super().shutdown()

    # -- operator surface ------------------------------------------------------

    def listen_address(self) -> tuple[str, int]:
        """The rendezvous listener's ``(host, port)`` (started transports
        with at least one dial-back pipe)."""
        if self._listener is None:
            raise RpcError("transport not started (no rendezvous listener)")
        return self._listener.address

    def connection_count(self) -> int:
        """Live worker links (monitoring / test surface)."""
        with self._state_lock:
            bindings = list(self._workers.values())
        return sum(1 for b in bindings if b.linked)

    def worker_pid(self, node_id: int, service: str) -> int | None:
        """The OS pid of a process-hosted binding's worker, if any.

        Chaos tooling uses this to aim real SIGKILLs; thread-hosted
        bindings have no pid of their own and return None.
        """
        binding = self._workers.get((node_id, service))
        if binding is None or binding.process is None:
            return None
        return binding.process.pid

    # -- call path -----------------------------------------------------------

    def credit(self, dst: int, service: str) -> int:
        binding = self._workers.get((dst, service))
        if binding is None:
            return super().credit(dst, service)
        return binding.pipe.credit()

    def _submit(self, binding: _WorkerBinding, call: _PendingCall) -> _PendingCall:
        if not self._started:
            raise RpcError("transport not started")
        if self._closed:
            raise RpcError("transport is shut down")
        node_id, service = binding.key
        if not binding.linked:
            raise RpcError(f"worker for {service!r} on node {node_id} is down")
        pipe = binding.pipe
        call_id = next(self._call_ids)
        kind, parts = _encode_request(call_id, call.method, call.request)
        nbytes = sum(len(p) for p in parts)
        # Credit first (bounded wait), then register, then send: a call
        # is in the table only while it holds the credit the table will
        # give back, so failing a binding can never over-release.
        if not pipe.reserve(nbytes, self.write_timeout):
            raise RpcError(
                f"no credit for {service!r} on node {node_id} "
                f"after {self.write_timeout}s"
            )
        with self._pending_lock:
            self._pending[call_id] = (call, binding, nbytes)
        try:
            with binding.write_lock:
                pipe.send(kind, parts, self.write_timeout)
        except BaseException:
            with self._pending_lock:
                entry = self._pending.pop(call_id, None)
            if entry is None:
                # The binding failed underneath the send and already
                # resolved this call (error set, callback fired).
                return call
            pipe.release(nbytes)
            raise
        return call

    def call(
        self,
        src: int,
        dst: int,
        service: str,
        method: str,
        request: Any,
        request_bytes: int = 0,
    ) -> Any:
        binding = self._workers.get((dst, service))
        if binding is None:
            return super().call(src, dst, service, method, request, request_bytes)
        call = self._submit(binding, _PendingCall(method, request))
        return self._wait(call, dst, service)

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
        binding = self._workers.get((dst, service))
        if binding is None:
            super().call_async(
                src, dst, service, method, request, request_bytes, on_done=on_done
            )
            return
        self._submit(binding, _PendingCall(method, request, on_done))

    # -- response readers ------------------------------------------------------

    def _resolve(self, call_id: int, response: Any, error: BaseException | None) -> None:
        with self._pending_lock:
            entry = self._pending.pop(call_id, None)
        if entry is None:  # pragma: no cover - late ack after shutdown
            return
        call, binding, nbytes = entry
        binding.pipe.release(nbytes)
        _finish(call, response, error)

    def _fail_binding(self, binding: _WorkerBinding, source: str, reason: str) -> None:
        """The worker is gone (not a clean shutdown): fail every call
        routed through it and notify the liveness listener."""
        binding.linked = False
        with self._pending_lock:
            doomed = [
                (call_id, call, nbytes)
                for call_id, (call, b, nbytes) in self._pending.items()
                if b is binding
            ]
            for call_id, _call, _nbytes in doomed:
                del self._pending[call_id]
        for _call_id, call, nbytes in doomed:
            binding.pipe.release(nbytes)
            _finish(call, None, RpcError(reason))
        listener = self.liveness_listener
        if listener is not None and not self._draining.is_set():
            node_id, service = binding.key
            try:
                listener(node_id, service, source, reason)
            except Exception:  # noqa: S110,BLE001 -- a broken listener must not kill the reader thread; the binding is already unlinked and its pendings failed.
                pass

    def _read_loop(self, binding: _WorkerBinding) -> None:
        """One thread per worker: decode responses, resolve pendings."""
        from repro.kera.messages import ReplicateResponse

        decode = partial(_decode_response, ReplicateResponse)
        pipe = binding.pipe
        process = binding.process
        assert process is not None
        node_id, service = binding.key
        while True:
            try:
                resolved = pipe.recv(process.is_alive, decode)
            except PipeBroken as exc:
                self._fail_binding(
                    binding,
                    pipe.error_source,
                    f"worker pipe for {service!r} on node {node_id} broke: {exc}",
                )
                return
            if resolved is None:
                # EOF after our own close is the child draining out; EOF
                # at any other time is the only signal a SIGKILL leaves.
                # Fail the binding's pendings instead of letting them
                # ride out the call timeout.
                if not self._draining.is_set():
                    self._fail_binding(
                        binding,
                        pipe.eof_source,
                        f"worker for {service!r} on node {node_id} died "
                        f"(exitcode {process.exitcode})",
                    )
                return
            self._resolve(*resolved)


def _finish(call: _PendingCall, response: Any, error: BaseException | None) -> None:
    call.response = response
    call.error = error
    call.done.set()
    if call.on_done is not None:
        call.on_done(response, error)
