"""The WorkerTransport contract, written once for every pipe.

Not collected on its own: ``test_process_transport.py`` (shared-memory
rings) and ``test_socket_transport.py`` (framed TCP) each import these
classes and supply two fixtures —

* ``spec(factory, kwargs=None, credit_bytes=None)`` builds the pipe's
  worker spec (``credit_bytes`` sizes the ring / the credit window);
* ``death_sources`` is the set of ``liveness_listener`` sources the pipe
  may report a SIGKILLed worker with

— so the two pipes stay behaviourally interchangeable by construction,
and each test keeps its per-pipe id.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

import repro.runtime.worker as worker_mod
from repro.common.errors import ChecksumError, RpcError
from repro.common.units import KB
from repro.runtime.worker import KIND_ACK, WorkerTransport
from repro.kera.messages import ReplicateRequest, ReplicateResponse
from repro.wire.chunk import CHUNK_HEADER_SIZE, ChunkBuilder
from repro.wire.record import Record


class Echo:
    """Minimal picklable service for the generic (pickle) path."""

    def __init__(self, suffix=""):
        self.suffix = suffix

    def handle(self, method, request):
        if method == "boom":
            raise ValueError("kapow")
        if method == "slow":
            time.sleep(request)
            return "slept"
        return f"{method}:{request}{self.suffix}"


class FrameCounter:
    """Backup-shaped service: validates and counts replicated frames."""

    def __init__(self):
        from repro.replication.backup_store import BackupStore

        self.store = BackupStore(node_id=9, materialize=True)

    def handle(self, method, request):
        assert method == "replicate"
        # The transport copied the frames across the pipe, so the bit
        # must have been cleared — the child-side re-validation is the
        # whole point of validate-at-boundary.
        assert not request.frames_verified
        segment = self.store.append_frames(
            src_broker=request.src_broker,
            vlog_id=request.vlog_id,
            vseg_id=request.vseg_id,
            frames=request.frames,
            segment_capacity=request.vseg_capacity,
        )
        return ReplicateResponse(ok=True, bytes_held=segment.bytes_held)


def frame_request(values, corrupt=False):
    builder = ChunkBuilder(4 * KB, stream_id=1, streamlet_id=0, producer_id=0)
    frames = []
    for seq, value in enumerate(values):
        assert builder.try_append(Record(value=value))
        chunk = builder.build(seq)
        frame = bytearray(chunk.encoded_frame())
        if corrupt:
            frame[CHUNK_HEADER_SIZE] ^= 0xFF  # flip a payload byte
        frames.append(bytes(frame))
    return ReplicateRequest(
        src_broker=0,
        vlog_id=0,
        vseg_id=0,
        vseg_capacity=1 * KB * 1024,
        batch_checksum=0,
        frames=tuple(frames),
        frames_verified=True,  # the transport must clear this in transit
    )


def _explode():
    raise RuntimeError("this request only unpickles in the parent")


class Poison:
    """Pickles fine, cannot be unpickled: a poison request record."""

    def __reduce__(self):
        return (_explode, ())


class Collector:
    """Thread-safe ``on_done`` sink."""

    def __init__(self):
        self.lock = threading.Lock()
        self.results = []
        self.fired = threading.Event()

    def __call__(self, response, error):
        with self.lock:
            self.results.append((response, error))
        self.fired.set()


@pytest.fixture
def transport():
    t = WorkerTransport(call_timeout=20.0)
    yield t
    t.shutdown()


class TestGenericPath:
    def test_call_round_trip(self, transport, spec):
        transport.register(1, "echo", spec(Echo, {"suffix": "!"}))
        transport.start()
        assert transport.call(0, 1, "echo", "greet", "hi") == "greet:hi!"

    def test_handler_exception_reraised_in_caller(self, transport, spec):
        transport.register(1, "echo", spec(Echo))
        transport.start()
        with pytest.raises(ValueError, match="kapow"):
            transport.call(0, 1, "echo", "boom", None)
        # The worker survives its handler's exception.
        assert transport.call(0, 1, "echo", "m", 1) == "m:1"

    def test_call_async_callback_fires(self, transport, spec):
        transport.register(1, "echo", spec(Echo))
        transport.start()
        done = Collector()
        transport.call_async(0, 1, "echo", "m", "x", on_done=done)
        assert done.fired.wait(10.0)
        assert done.results == [("m:x", None)]

    def test_thread_and_process_bindings_coexist(self, transport, spec):
        class Local:
            def handle(self, method, request):
                return ("local", request)

        transport.register(1, "echo", spec(Echo))
        transport.register(1, "local", Local())
        transport.start()
        assert transport.call(0, 1, "echo", "m", 1) == "m:1"
        assert transport.call(0, 1, "local", "m", 2) == ("local", 2)
        assert transport.credit(1, "local") > transport.credit(1, "echo") > 0
        assert transport.worker_pid(1, "echo") not in (None, os.getpid())
        assert transport.worker_pid(1, "local") is None

    def test_duplicate_registration_rejected(self, transport, spec):
        transport.register(1, "echo", spec(Echo))
        with pytest.raises(RpcError):
            transport.register(1, "echo", spec(Echo))
        with pytest.raises(RpcError):
            transport.register(1, "echo", Echo())

    def test_register_after_start_rejected(self, transport, spec):
        transport.register(1, "echo", spec(Echo))
        transport.start()
        with pytest.raises(RpcError):
            transport.register(2, "late", spec(Echo))

    def test_call_before_start_rejected(self, transport, spec):
        transport.register(1, "echo", spec(Echo))
        with pytest.raises(RpcError):
            transport.call(0, 1, "echo", "m", 1)


class TestReplicateFastPath:
    def test_frames_cross_unpickled_and_revalidated(self, transport, spec):
        transport.register(2, "backup", spec(FrameCounter))
        transport.start()
        request = frame_request([b"alpha", b"beta", b"gamma"])
        response = transport.call(0, 2, "backup", "replicate", request)
        assert isinstance(response, ReplicateResponse)
        assert response.ok
        assert response.bytes_held == sum(len(f) for f in request.frames)

    def test_corrupt_frame_rejected_by_child(self, transport, spec):
        # The bytes crossed an address space: frames_verified is cleared
        # in transit and the child re-earns the CRC before storing.
        transport.register(2, "backup", spec(FrameCounter))
        transport.start()
        bad = frame_request([b"zap"], corrupt=True)
        with pytest.raises(ChecksumError):
            transport.call(0, 2, "backup", "replicate", bad)


class TestShutdownDrain:
    def test_shutdown_drains_in_flight_async_calls(self, spec):
        """Every async call enqueued before shutdown resolves exactly
        once — the close-then-drain contract end to end: the parent
        closes its write side, the child serves out what is queued,
        responses flow back until EOF."""
        transport = WorkerTransport(call_timeout=30.0)
        transport.register(1, "echo", spec(Echo))
        transport.start()
        done = Collector()
        for i in range(64):
            transport.call_async(0, 1, "echo", "m", i, on_done=done)
        transport.shutdown()
        assert len(done.results) == 64
        assert sorted(r for r, e in done.results) == sorted(f"m:{i}" for i in range(64))
        assert all(e is None for _, e in done.results)

    def test_shutdown_idempotent(self, spec):
        transport = WorkerTransport()
        transport.register(1, "echo", spec(Echo))
        transport.start()
        transport.shutdown()
        transport.shutdown()
        with pytest.raises(RpcError):
            transport.call(0, 1, "echo", "m", 1)

    def test_shutdown_idempotent_and_closes_connections(self, spec):
        transport = WorkerTransport()
        transport.register(1, "echo", spec(Echo))
        transport.register(2, "echo", spec(Echo))
        assert transport.connection_count() == 0
        transport.start()
        assert transport.connection_count() == 2
        transport.shutdown()
        transport.shutdown()
        assert transport.connection_count() == 0

    def test_credit_window_released_by_responses(self, transport, spec):
        transport.register(1, "echo", spec(Echo, credit_bytes=1 << 20))
        transport.start()
        before = transport.credit(1, "echo")
        assert before == 1 << 20
        for i in range(8):
            transport.call(0, 1, "echo", "m", i)
        # Synchronous calls: every response gave its request's bytes back.
        assert transport.credit(1, "echo") == before


class TestRobustness:
    def test_poison_request_does_not_wedge_the_worker(self, spec):
        """A request the child cannot decode is consumed and skipped:
        later requests still get served, and the poisoned call resolves
        exactly once (here: failed at shutdown)."""
        transport = WorkerTransport(call_timeout=20.0)
        transport.register(1, "echo", spec(Echo, credit_bytes=1 << 20))
        transport.start()
        poisoned = Collector()
        try:
            transport.call_async(0, 1, "echo", "m", Poison(), on_done=poisoned)
            assert transport.call(0, 1, "echo", "m", "hi") == "m:hi"
            assert transport.call(0, 1, "echo", "m", "again") == "m:again"
            assert poisoned.results == []  # nothing came back for it
        finally:
            transport.shutdown()
        assert len(poisoned.results) == 1
        assert isinstance(poisoned.results[0][1], RpcError)

    def test_reader_survives_short_and_garbage_acks(self, spec, monkeypatch):
        """Undecodable responses are skipped; the next valid one still
        resolves. The child is made to answer its first two requests
        with a too-short and an oversized garbage ack."""
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("patches the worker's encoder through fork inheritance")
        real_serve = worker_mod._serve
        garbage = iter([b"\x01\x02", b"\xff" * (worker_mod._ACK.size + 3)])

        def noisy_serve(service, kind, view):
            call_id, out_kind, parts = real_serve(service, kind, view)
            payload = next(garbage, None)
            if payload is not None:
                out_kind, parts = KIND_ACK, [payload]
            return call_id, out_kind, parts

        monkeypatch.setattr(worker_mod, "_serve", noisy_serve)
        transport = WorkerTransport(call_timeout=20.0)
        transport.register(1, "echo", spec(Echo, credit_bytes=1 << 20))
        transport.start()
        lost = Collector()
        try:
            transport.call_async(0, 1, "echo", "m", 1, on_done=lost)
            transport.call_async(0, 1, "echo", "m", 2, on_done=lost)
            assert transport.call(0, 1, "echo", "m", 3) == "m:3", (
                "garbage ack killed the reader"
            )
            assert lost.results == []
        finally:
            transport.shutdown()
        # The two calls whose acks were garbage fail at shutdown, once each.
        assert [type(e) for _, e in lost.results] == [RpcError, RpcError]

    def test_sigkilled_worker_fails_pending_calls_and_reports(
        self, spec, death_sources
    ):
        """A dead worker fails its pending calls promptly (not after the
        call timeout), reports through ``liveness_listener`` with the
        pipe's source string, and later submits fail fast."""
        transport = WorkerTransport(call_timeout=60.0)
        transport.register(1, "echo", spec(Echo))
        transport.register(2, "echo", spec(Echo))
        reports = []
        reported = threading.Event()
        transport.liveness_listener = lambda *args: (reports.append(args), reported.set())
        transport.start()
        try:
            pending = Collector()
            transport.call_async(0, 1, "echo", "slow", 30.0, on_done=pending)
            os.kill(transport.worker_pid(1, "echo"), signal.SIGKILL)
            assert pending.fired.wait(10.0), "pending call outlived its worker"
            assert reported.wait(10.0)
            (response, error), = pending.results
            assert response is None and isinstance(error, RpcError)
            (node_id, service, source, _reason), = reports
            assert (node_id, service) == (1, "echo")
            assert source in death_sources
            assert transport.connection_count() == 1
            started = time.monotonic()
            with pytest.raises(RpcError):
                transport.call(0, 1, "echo", "m", 1)
            assert time.monotonic() - started < 5.0
            # The other worker is untouched.
            assert transport.call(0, 2, "echo", "m", 2) == "m:2"
        finally:
            transport.shutdown()
        assert len(reports) == 1  # shutdown's own EOFs are not failures
