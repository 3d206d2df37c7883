"""Ring-pipe worker setup: no shared-memory attach leaks on any path.

Regression tests for a defect the A007 pool-balance rule flagged in the
child's setup: it leaked its request-shm attach when attaching the
response block raised, and leaked both when the service factory raised.
(The poison-record and garbage-ack cases that used to live here run on
both pipes in ``worker_transport_contract.TestRobustness``.)
"""

from functools import partial
from multiprocessing import shared_memory

import pytest

import repro.runtime.process as process_mod
from repro.runtime.process import _RingEnd
from repro.runtime.worker import _worker_main
from repro.wire.ring import SpscRing


@pytest.fixture
def close_log(monkeypatch):
    """Record every ``_close_shm`` while still really closing."""
    real = process_mod._close_shm
    closed = []

    def record(shm):
        closed.append(shm)
        real(shm)

    monkeypatch.setattr(process_mod, "_close_shm", record)
    return closed


def test_worker_closes_request_shm_when_response_attach_fails(
    monkeypatch, close_log
):
    request_block = object()

    def fake_attach(name):
        if name == "req":
            return request_block
        raise FileNotFoundError(name)

    monkeypatch.setattr(process_mod, "_attach", fake_attach)
    monkeypatch.setattr(process_mod, "_close_shm", close_log.append)
    with pytest.raises(FileNotFoundError):
        _worker_main(partial(_RingEnd.attach, (0, "x"), "req", "resp"), lambda: None, {})
    assert close_log == [request_block]


def test_worker_closes_both_shms_when_factory_fails(close_log):
    req = shared_memory.SharedMemory(create=True, size=16384)
    resp = shared_memory.SharedMemory(create=True, size=16384)
    SpscRing(req.buf, reset=True)
    SpscRing(resp.buf, reset=True)

    def factory():
        raise RuntimeError("no service for you")

    try:
        with pytest.raises(RuntimeError):
            _worker_main(partial(_RingEnd.attach, (0, "x"), req.name, resp.name), factory, {})
        # Both of the worker's attaches were closed, in either order.
        assert len(close_log) == 2
        assert {shm.name for shm in close_log} == {req.name, resp.name}
    finally:
        req.close()
        req.unlink()
        resp.close()
        resp.unlink()
