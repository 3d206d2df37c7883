"""Flow control: the credit window (deterministic)."""

import threading

import pytest

from repro.common.errors import ConfigError
from repro.replication.flow import FlowController


def test_unbounded_window_always_admits():
    flow = FlowController(0)
    assert flow.try_acquire(1 << 40)
    assert flow.credit() > 1 << 40
    flow.release(1 << 40)
    assert flow.in_flight_bytes == 0


def test_window_bounds_in_flight_bytes():
    flow = FlowController(100)
    assert flow.try_acquire(60)
    assert flow.credit() == 40
    assert not flow.try_acquire(50)
    assert flow.try_acquire(40)
    assert flow.credit() == 0
    flow.release(60)
    assert flow.in_flight_bytes == 40
    assert flow.try_acquire(50)


def test_oversized_batch_admitted_when_idle():
    # A batch larger than the whole window must still ship (otherwise it
    # would starve forever) — but only with nothing else in flight.
    flow = FlowController(100)
    assert flow.try_acquire(500)
    assert not flow.try_acquire(1)
    flow.release(500)
    assert flow.try_acquire(1)
    assert not flow.try_acquire(500)


def test_acquire_times_out_without_credit():
    flow = FlowController(10)
    assert flow.acquire(10)
    assert not flow.acquire(5, timeout=0.01)
    assert flow.in_flight_bytes == 10


def test_release_unblocks_waiter():
    flow = FlowController(10)
    assert flow.try_acquire(10)
    acquired = []
    waiter = threading.Thread(target=lambda: acquired.append(flow.acquire(8, timeout=5.0)))
    waiter.start()
    flow.release(10)
    waiter.join(timeout=5.0)
    assert acquired == [True]
    assert flow.in_flight_bytes == 8


def test_release_floors_at_zero():
    flow = FlowController(10)
    flow.release(99)
    assert flow.in_flight_bytes == 0


def test_negative_window_rejected():
    with pytest.raises(ConfigError):
        FlowController(-1)

