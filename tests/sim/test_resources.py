"""Resource semantics tests."""

import pytest

from repro.common.errors import SimulationError
from repro.sim.engine import Environment
from repro.sim.resources import Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, 2)
    done = []

    def worker(env, tag):
        yield res.acquire()
        yield env.timeout(1.0)
        res.release()
        done.append((env.now, tag))

    for tag in range(4):
        env.process(worker(env, tag))
    env.run()
    # Two run in [0,1], the next two in [1,2].
    assert done == [(1.0, 0), (1.0, 1), (2.0, 2), (2.0, 3)]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, 1)
    order = []

    def worker(env, tag):
        yield res.acquire()
        order.append(tag)
        yield env.timeout(0.1)
        res.release()

    for tag in range(5):
        env.process(worker(env, tag))
    env.run()
    assert order == [0, 1, 2, 3, 4]


def test_use_helper():
    env = Environment()
    res = Resource(env, 1)

    def worker(env):
        yield from res.use(2.5)
        return env.now

    assert env.run(env.process(worker(env))) == 2.5
    assert res.in_use == 0


def test_release_without_acquire_rejected():
    env = Environment()
    res = Resource(env, 1)
    with pytest.raises(SimulationError):
        res.release()


def test_utilization_accounting():
    env = Environment()
    res = Resource(env, 2)

    def worker(env):
        yield from res.use(4.0)

    env.process(worker(env))
    env.run(until=8.0)
    # One of two units busy for 4 of 8 seconds -> 25%.
    assert res.utilization(8.0) == pytest.approx(0.25)


def test_capacity_positive():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, 0)
