"""A001: mutation of guarded-by declared shared state outside its lock."""

from tests.analysis.conftest import findings_for


def _fixture_findings():
    return [f for f in findings_for("A001") if f.path.endswith("guarded.py")]


def test_unguarded_write_fires():
    lines = {f.line for f in _fixture_findings()}
    assert 14 in lines  # self.count += 1 outside the lock


def test_unguarded_mutating_call_fires():
    found = [f for f in _fixture_findings() if ".append()" in f.message]
    assert found and found[0].line == 17


def test_declared_lock_must_exist():
    found = [f for f in _fixture_findings() if "_missing_lock" in f.message]
    assert found, "guarded-by naming a nonexistent lock must be reported"


def test_guarded_write_is_clean():
    # guarded_bump() mutates inside `with self._lock:` on line 21
    assert all(f.line != 21 for f in _fixture_findings())


def test_justified_noqa_suppresses():
    # silenced_with_reason() carries `# noqa: A001 -- <why>` on line 27
    assert all(f.line != 27 for f in _fixture_findings())


def test_unjustified_noqa_reported_as_a000():
    meta = [f for f in findings_for("A001") if f.rule == "A000"]
    assert any(f.line == 24 for f in meta)


def test_unannotated_attribute_not_flagged(analyze):
    findings = analyze(
        {
            "mod.py": """
            import threading

            class Plain:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.free = 0  # no guarded-by declaration

                def bump(self):
                    self.free += 1
            """
        },
        rules=["A001"],
    )
    assert findings == []


def test_mutation_in_nested_function_not_treated_as_guarded(analyze):
    # A callback defined inside a `with` block runs later, outside the lock.
    findings = analyze(
        {
            "mod.py": """
            import threading

            class Holder:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.seen = []  # guarded-by: _lock

                def subscribe(self, bus):
                    with self._lock:
                        def on_event(ev):
                            self.seen.append(ev)
                        bus.add(on_event)
            """
        },
        rules=["A001"],
    )
    assert any(f.rule == "A001" and "seen" in f.message for f in findings)


def test_ancestor_lock_satisfies_declaration(analyze):
    """A subclass may guard its own state with a lock the in-tree base
    transport created (cross-dict invariants share one lock)."""
    findings = analyze(
        {
            "mod.py": """
            import threading

            class Base:
                def __init__(self):
                    self._state_lock = threading.Lock()

            class Leaf(Base):
                def __init__(self):
                    super().__init__()
                    self._bindings = {}  # guarded-by: _state_lock

                def bind(self, key, value):
                    with self._state_lock:
                        self._bindings[key] = value
            """
        },
        rules=["A001"],
    )
    assert findings == []


def test_unguarded_move_to_end_fires(analyze):
    """``OrderedDict.move_to_end`` mutates iteration order — an LRU's
    promote path must hold the cache lock like any other write."""
    findings = analyze(
        {
            "mod.py": """
            import threading
            from collections import OrderedDict

            class Lru:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._entries = OrderedDict()  # guarded-by: _lock

                def promote(self, key):
                    self._entries.move_to_end(key)

                def promote_locked(self, key):
                    with self._lock:
                        self._entries.move_to_end(key)
            """
        },
        rules=["A001"],
    )
    hits = [f for f in findings if "move_to_end" in f.message]
    assert len(hits) == 1, hits


def test_undeclared_lock_still_fires_with_ancestry(analyze):
    findings = analyze(
        {
            "mod.py": """
            import threading

            class Base:
                def __init__(self):
                    self._other = threading.Lock()

            class Leaf(Base):
                def __init__(self):
                    super().__init__()
                    self._bindings = {}  # guarded-by: _state_lock
            """
        },
        rules=["A001"],
    )
    assert any("_state_lock" in f.message for f in findings)


def test_a_lock_handed_to_a_sans_io_core_guards_its_state(analyze):
    findings = analyze(
        {
            "mod.py": """
            from contextlib import AbstractContextManager

            class Core:
                def __init__(self, lock: AbstractContextManager):
                    self._lock = lock
                    self.flights = {}  # guarded-by: _lock

                def guarded(self, key):
                    with self._lock:
                        self.flights[key] = 1

                def unguarded(self, key):
                    del self.flights[key]
            """
        },
        rules=["A001"],
    )
    # The injected lock counts as declared; only the bare delete fires.
    assert [f.line for f in findings] == [14]
