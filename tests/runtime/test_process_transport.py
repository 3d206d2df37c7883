"""WorkerTransport over the shared-memory ring pipe.

The contract suite (``worker_transport_contract``) bound to
``ProcessServiceSpec``, plus what only this pipe has: the packed
replicate codec's round trip and the ring's physical credit bound.
"""

import pytest

from repro.common.errors import RpcError
from repro.common.units import KB
from repro.runtime.process import (
    ProcessServiceSpec,
    ProcessTransport,
    decode_replicate,
    encode_replicate,
)

from tests.runtime import worker_transport_contract as contract
from tests.runtime.worker_transport_contract import (  # noqa: F401 - collected here
    Echo,
    TestGenericPath,
    TestRobustness,
    TestShutdownDrain,
    frame_request,
    transport,
)


@pytest.fixture
def spec():
    def build(factory, kwargs=None, credit_bytes=None):
        sizing = {} if credit_bytes is None else {"ring_bytes": credit_bytes}
        return ProcessServiceSpec(factory=factory, kwargs=kwargs or {}, **sizing)

    return build


@pytest.fixture
def death_sources():
    return {"process-exit"}


class TestReplicateFastPath(contract.TestReplicateFastPath):
    def test_encode_decode_round_trip(self):
        request = frame_request([b"one", b"two"])
        parts = encode_replicate(42, request)
        payload = memoryview(b"".join(bytes(p) for p in parts))
        call_id, decoded = decode_replicate(payload)
        assert call_id == 42
        assert decoded.src_broker == request.src_broker
        assert decoded.vseg_capacity == request.vseg_capacity
        assert not decoded.frames_verified  # cleared across the boundary
        assert [bytes(f) for f in decoded.frames] == [bytes(f) for f in request.frames]


def test_request_larger_than_the_ring_fails_the_send_and_keeps_credit(spec):
    """A failed send leaves no pending call and no lost ring bytes."""
    transport = ProcessTransport(call_timeout=20.0, write_timeout=0.2)
    transport.register(1, "echo", spec(Echo, credit_bytes=8 * KB))
    transport.start()
    try:
        before = transport.credit(1, "echo")
        with pytest.raises(RpcError):
            transport.call(0, 1, "echo", "m", "x" * (16 * KB))
        assert transport.credit(1, "echo") == before
        assert transport.call(0, 1, "echo", "m", "ok") == "m:ok"
    finally:
        transport.shutdown()


def test_reply_larger_than_the_response_ring_fails_the_call_not_the_worker():
    """A recovery-read-sized reply against a small response ring used to
    escape the serve loop and take the worker (the node's whole backup)
    down with it; now only that call fails."""
    transport = ProcessTransport(call_timeout=20.0)
    transport.register(
        1, "echo", ProcessServiceSpec(factory=Echo, response_ring_bytes=8 * KB)
    )
    transport.start()
    try:
        with pytest.raises(RpcError, match="undeliverable"):
            transport.call(0, 1, "echo", "m", "x" * (12 * KB))
        assert transport.call(0, 1, "echo", "m", "ok") == "m:ok"
        assert transport.connection_count() == 1
    finally:
        transport.shutdown()
