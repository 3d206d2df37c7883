"""Replication flow control: credit-based backpressure threads wait on.

:class:`FlowController` is the ship core's
:class:`~repro.replication.ship_core.CreditWindow`, made thread-safe and
given a blocking :meth:`~FlowController.acquire`: when the window is
exhausted the *shipper* parks, appends keep accumulating, and the next
batch consolidates them — there is no linger timer. The TCP pipe bounds
its own in-flight bytes with one too (``Transport.credit``).
"""

from __future__ import annotations

import threading

from repro.replication.ship_core import CreditWindow


class FlowController(CreditWindow):
    """A credit window safe from any thread; :meth:`acquire` waits."""

    def __init__(self, window_bytes: int = 0) -> None:
        super().__init__(window_bytes)
        self._lock = threading.Lock()
        self._credit_free = threading.Condition(self._lock)

    def try_acquire(self, nbytes: int) -> bool:
        with self._lock:
            if not self.admissible(nbytes):
                return False
            self._in_flight_bytes += nbytes
            return True

    def acquire(self, nbytes: int, timeout: float | None = None) -> bool:
        """Block until ``nbytes`` of credit is available (or timeout)."""
        # The condition shares self._lock, so holding the lock directly
        # keeps wait_for/notify legal while the guard stays explicit.
        with self._lock:
            if not self._credit_free.wait_for(
                lambda: self.admissible(nbytes), timeout=timeout
            ):
                return False
            self._in_flight_bytes += nbytes
            return True

    def release(self, nbytes: int) -> None:
        with self._lock:
            self._in_flight_bytes = max(self._in_flight_bytes - nbytes, 0)
            self._credit_free.notify_all()
