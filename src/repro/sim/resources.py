"""Counted resources for the simulation engine.

:class:`Resource` models a pool of identical servers (worker cores, the
dispatch core, a disk arm): processes ``yield resource.acquire()`` and
must call :meth:`Resource.release` when done. Grants are strictly FIFO —
the determinism requirement again.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

from repro.common.errors import SimulationError
from repro.sim.engine import Environment, Event


class Resource:
    """A counted resource with FIFO granting.

    The convenience :meth:`use` wraps acquire → hold ``service_time`` →
    release as a process generator, which is the dominant usage pattern in
    the cluster drivers::

        yield from cpu.use(cost)          # inside another process
    """

    __slots__ = ("env", "capacity", "_in_use", "_waiters", "_stat_busy", "_stat_last")

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity <= 0:
            raise SimulationError("resource capacity must be positive")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()
        # Busy-time accounting for utilization metrics.
        self._stat_busy = 0.0
        self._stat_last = env.now

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def _account(self) -> None:
        now = self.env.now
        self._stat_busy += self._in_use * (now - self._stat_last)
        self._stat_last = now

    def utilization(self, elapsed: float) -> float:
        """Average fraction of capacity busy over ``elapsed`` seconds."""
        self._account()
        if elapsed <= 0:
            return 0.0
        return self._stat_busy / (elapsed * self.capacity)

    def acquire(self) -> Event:
        """Return an event that fires when a unit is granted."""
        event = Event(self.env)
        if self._in_use < self.capacity:
            self._account()
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a unit; the longest waiter (if any) is granted immediately."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching acquire()")
        self._account()
        if self._waiters:
            # Hand the unit straight to the next waiter; _in_use unchanged.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def use(self, service_time: float) -> Generator[Event, Any, None]:
        """acquire → hold for ``service_time`` → release, as a sub-process.

        Fast path: when a unit is free and nobody queues, the grant is
        immediate (no extra scheduler event) — this is the dominant case
        on uncontended client nodes and saves ~25% of all sim events.
        """
        if self._in_use < self.capacity and not self._waiters:
            self._account()
            self._in_use += 1
        else:
            yield self.acquire()
        try:
            yield self.env.timeout(service_time)
        finally:
            self.release()
