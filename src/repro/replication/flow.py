"""Replication flow control: credit-based backpressure.

:class:`FlowController` is a byte-credit window over the replication
plane, used by the ship loop (``repro.kera.shipper``). Each issued batch
acquires credit for its payload; each ack (or failure) releases it.
Producers therefore observe a bounded ``in_flight_bytes`` instead of
blocking on one synchronous round-trip per batch — when the window is
exhausted the *shipper* parks, appends keep accumulating, and the next
batch consolidates them (the paper's group-commit effect, self-clocked
by credit and by each virtual log's busy pipeline slots; there is no
linger timer).

It is transport-agnostic: the shared-memory ring transport maps its free
ring bytes onto the same credit notion (``Transport.credit``).
"""

from __future__ import annotations

import threading

from repro.common.errors import ConfigError


class FlowController:
    """Bounded in-flight replication bytes (credit-based backpressure).

    ``window_bytes = 0`` disables the bound (every acquire succeeds).
    A single batch larger than the whole window is still admitted when
    nothing else is in flight — otherwise it could never ship.
    """

    def __init__(self, window_bytes: int = 0) -> None:
        if window_bytes < 0:
            raise ConfigError("flow window must be >= 0")
        self.window_bytes = window_bytes
        self._lock = threading.Lock()
        self._credit_free = threading.Condition(self._lock)
        self._in_flight_bytes = 0  # guarded-by: _lock

    @property
    def in_flight_bytes(self) -> int:
        with self._lock:
            return self._in_flight_bytes

    def credit(self) -> int:
        """Free window bytes (a large constant when unbounded)."""
        if self.window_bytes == 0:
            return 1 << 62
        with self._lock:
            return max(self.window_bytes - self._in_flight_bytes, 0)

    def _admissible(self, nbytes: int) -> bool:
        return (
            self.window_bytes == 0
            or self._in_flight_bytes + nbytes <= self.window_bytes
            or self._in_flight_bytes == 0
        )

    def try_acquire(self, nbytes: int) -> bool:
        with self._lock:
            if not self._admissible(nbytes):
                return False
            self._in_flight_bytes += nbytes
            return True

    def acquire(self, nbytes: int, timeout: float | None = None) -> bool:
        """Block until ``nbytes`` of credit is available (or timeout)."""
        # The condition shares self._lock, so holding the lock directly
        # keeps wait_for/notify legal while the guard stays explicit.
        with self._lock:
            if not self._credit_free.wait_for(
                lambda: self._admissible(nbytes), timeout=timeout
            ):
                return False
            self._in_flight_bytes += nbytes
            return True

    def release(self, nbytes: int) -> None:
        """An in-flight batch resolved (acked or failed): return credit."""
        with self._lock:
            self._in_flight_bytes = max(self._in_flight_bytes - nbytes, 0)
            self._credit_free.notify_all()

