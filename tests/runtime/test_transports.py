"""InprocTransport and ThreadedTransport delivery semantics."""

import threading
import time

import pytest

from repro.common.errors import RpcError
from repro.runtime import InprocTransport, ThreadedTransport
from repro.runtime.transport import LiveService


class Echo(LiveService):
    def handle(self, method, request):
        if method == "boom":
            raise ValueError(request)
        return (method, request)


class TestInprocTransport:
    def test_inline_call(self):
        transport = InprocTransport()
        transport.register(0, "echo", Echo())
        assert transport.call(-1, 0, "echo", "ping", 41) == ("ping", 41)

    def test_unknown_service(self):
        transport = InprocTransport()
        with pytest.raises(RpcError):
            transport.call(-1, 0, "nope", "ping", None)

    def test_duplicate_registration_rejected(self):
        transport = InprocTransport()
        transport.register(0, "echo", Echo())
        with pytest.raises(RpcError):
            transport.register(0, "echo", Echo())

    def test_handler_exception_propagates(self):
        transport = InprocTransport()
        transport.register(0, "echo", Echo())
        with pytest.raises(ValueError):
            transport.call(-1, 0, "echo", "boom", "bad")


class TestThreadedTransport:
    def test_call_round_trip(self):
        transport = ThreadedTransport()
        transport.register(0, "echo", Echo())
        transport.start()
        try:
            assert transport.call(-1, 0, "echo", "ping", b"x") == ("ping", b"x")
        finally:
            transport.shutdown()

    def test_handler_exception_reraised_in_caller(self):
        transport = ThreadedTransport()
        transport.register(0, "echo", Echo())
        transport.start()
        try:
            with pytest.raises(ValueError, match="bad"):
                transport.call(-1, 0, "echo", "boom", "bad")
            # The worker survives the exception and serves the next call.
            assert transport.call(-1, 0, "echo", "ok", 1) == ("ok", 1)
        finally:
            transport.shutdown()

    def test_register_after_start_rejected(self):
        transport = ThreadedTransport()
        transport.start()
        try:
            with pytest.raises(RpcError):
                transport.register(0, "echo", Echo())
        finally:
            transport.shutdown()

    def test_call_before_start_rejected(self):
        transport = ThreadedTransport()
        transport.register(0, "echo", Echo())
        with pytest.raises(RpcError):
            transport.call(-1, 0, "echo", "ping", None)

    def test_unknown_service(self):
        transport = ThreadedTransport()
        transport.start()
        try:
            with pytest.raises(RpcError):
                transport.call(-1, 0, "nope", "ping", None)
        finally:
            transport.shutdown()

    def test_invalid_sizing_rejected(self):
        with pytest.raises(RpcError):
            ThreadedTransport(queue_depth=0)

    def test_concurrent_calls_one_worker_serialize(self):
        """One worker: two slow calls overlap at the transport but run
        sequentially on the service."""

        class Slow(LiveService):
            def __init__(self):
                self.active = 0
                self.max_active = 0
                self._lock = threading.Lock()

            def handle(self, method, request):
                with self._lock:
                    self.active += 1
                    self.max_active = max(self.max_active, self.active)
                time.sleep(0.02)
                with self._lock:
                    self.active -= 1
                return request

        service = Slow()
        transport = ThreadedTransport()
        transport.register(0, "slow", service)
        transport.start()
        try:
            results = []
            threads = [
                threading.Thread(
                    target=lambda i=i: results.append(
                        transport.call(-1, 0, "slow", "go", i)
                    )
                )
                for i in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(results) == [0, 1, 2, 3]
            assert service.max_active == 1
        finally:
            transport.shutdown()

    def test_concurrent_calls_multiple_workers_overlap(self):
        """Two bindings are two workers: their handlers overlap, while
        each binding's own handlers never do (one worker per binding)."""
        barrier = threading.Barrier(2, timeout=5.0)

        class Meet(LiveService):
            def handle(self, method, request):
                barrier.wait()  # only passes if two handlers run at once
                return request

        transport = ThreadedTransport()
        transport.register(0, "meet", Meet())
        transport.register(1, "meet", Meet())
        transport.start()
        try:
            assert sorted(t.name for t in transport._threads) == ["meet@0#0", "meet@1#0"]
            results = []
            threads = [
                threading.Thread(
                    target=lambda i=i: results.append(
                        transport.call(-1, i, "meet", "go", i)
                    )
                )
                for i in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(results) == [0, 1]
        finally:
            transport.shutdown()

    def test_shutdown_idempotent(self):
        transport = ThreadedTransport()
        transport.register(0, "echo", Echo())
        transport.start()
        transport.shutdown()
        transport.shutdown()
        with pytest.raises(RpcError):
            transport.call(-1, 0, "echo", "ping", None)
