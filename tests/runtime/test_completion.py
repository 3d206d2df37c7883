"""CompletionTracker: waiter registration vs early completions."""

import threading

from repro.runtime import CompletionTracker


def test_register_then_complete_fires_waiter():
    tracker = CompletionTracker()
    fired = []
    assert not tracker.register(0, 7, lambda: fired.append(7))
    assert fired == []
    tracker.complete(0, 7)
    assert fired == [7]
    # One-shot: a second completion of the same id is remembered anew.
    tracker.complete(0, 7)
    assert fired == [7]


def test_complete_before_register_is_remembered():
    tracker = CompletionTracker()
    tracker.complete(3, 11)
    fired = []
    # register() reports the early completion and does NOT store the waiter.
    assert tracker.register(3, 11, lambda: fired.append(11))
    assert fired == []
    # The early mark was consumed by register(): a second register parks.
    assert not tracker.register(3, 11, lambda: fired.append(11))


def test_discard_forgets_waiter_and_early_mark():
    tracker = CompletionTracker()
    fired = []
    tracker.register(1, 1, lambda: fired.append(1))
    tracker.discard(1, 1)
    tracker.complete(1, 1)  # no waiter left: remembered as early...
    assert fired == []
    tracker.discard(1, 1)  # ...until discarded too
    assert not tracker.register(1, 1, lambda: fired.append(1))


def test_callback_for_binds_node():
    tracker = CompletionTracker()
    tracker.callback_for(5)(42)
    assert not tracker.register(4, 42, lambda: None)  # other nodes unaffected
    assert tracker.register(5, 42, lambda: None)


def test_same_request_id_on_different_nodes_independent():
    tracker = CompletionTracker()
    fired = []
    tracker.register(0, 9, lambda: fired.append("n0"))
    tracker.register(1, 9, lambda: fired.append("n1"))
    tracker.complete(1, 9)
    assert fired == ["n1"]
    tracker.complete(0, 9)
    assert fired == ["n1", "n0"]


def test_concurrent_register_complete_race():
    """Hammer the register/complete race: every waiter must fire exactly
    once whether the completion lands before or after registration."""
    tracker = CompletionTracker()
    n = 500
    seen = []
    seen_lock = threading.Lock()

    def completer():
        for i in range(n):
            tracker.complete(0, i)

    def registrar():
        for i in range(n):
            done = threading.Event()
            if tracker.register(0, i, done.set):
                done.set()
            if done.wait(5.0):
                with seen_lock:
                    seen.append(i)

    threads = [threading.Thread(target=completer), threading.Thread(target=registrar)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sorted(seen) == list(range(n))
