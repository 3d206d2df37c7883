"""Request-completion tracking shared by every driver.

A broker core acknowledges a produce request by calling its
``on_request_complete(request_id)`` callback once every chunk of the
request is durable. When and *where* that callback fires depends on the
transport: at the same simulated instant a replication batch completes,
inline during a synchronous pump, or on a transport thread delivering a
backup's ack to the shipper. This tracker absorbs all three:

* drivers register a waiter (a zero-argument callable — a sim event's
  ``succeed``, a live produce's completion) per ``(node, request_id)``;
* completions that arrive *before* the waiter registers are remembered,
  so a caller that registers after kicking off replication never misses
  its own ack (in the simulator this happens whenever replication
  finishes within the produce call's own instant; on the synchronous
  driver on every call; in the threaded modes whenever the shipper wins
  the race).

All methods are thread-safe; waiters are invoked outside the lock.
"""

from __future__ import annotations

import threading
from collections.abc import Callable


class CompletionTracker:
    """(node, request_id) -> waiter, with early-completion memory."""

    __slots__ = ("_lock", "_waiters", "_early")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._waiters: dict[tuple[int, int], Callable[[], None]] = {}
        self._early: set[tuple[int, int]] = set()

    def callback_for(self, node_id: int) -> Callable[[int], None]:
        """The ``on_request_complete`` callback for one node's core."""

        def callback(request_id: int) -> None:
            self.complete(node_id, request_id)

        return callback

    def complete(self, node_id: int, request_id: int) -> None:
        """A request became durable: fire its waiter, or remember it."""
        key = (node_id, request_id)
        with self._lock:
            waiter = self._waiters.pop(key, None)
            if waiter is None:
                self._early.add(key)
        if waiter is not None:
            waiter()

    def register(self, node_id: int, request_id: int, waiter: Callable[[], None]) -> bool:
        """Park ``waiter`` until the request completes.

        Returns ``True`` when the request already completed — the waiter
        is *not* stored and the caller should treat the request as done
        (e.g. succeed its event itself).
        """
        key = (node_id, request_id)
        with self._lock:
            if key in self._early:
                self._early.discard(key)
                return True
            self._waiters[key] = waiter
            return False

    def discard(self, node_id: int, request_id: int) -> None:
        """Forget a request entirely: drop its waiter and any remembered
        early completion. The cancellation path for completion-driven
        callers — a request that failed or timed out elsewhere must not
        leave a waiter (or a stale early mark) behind to fire into, or
        collide with, a later request."""
        key = (node_id, request_id)
        with self._lock:
            self._waiters.pop(key, None)
            self._early.discard(key)
