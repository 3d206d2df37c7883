"""A001 unguarded-shared-mutation.

Attributes a class shares between threads are *declared* at their
``__init__`` assignment with a trailing ``# guarded-by: <lock>`` comment::

    self.flushes_scheduled = 0  # guarded-by: _flush_lock

The rule then requires every mutation of a declared attribute outside
``__init__`` — plain/augmented/subscript stores, deletes, and calls to
known mutating methods (``.append``, ``.add``, ``.next``, ...) — to sit
lexically inside a ``with self.<lock>:`` block for the declared lock.
Plain reads are not flagged: several of this codebase's reads are
intentionally lock-free (GIL-atomic membership probes on hot paths), and
flagging them would bury the writes that actually corrupt state.

The declared lock itself must exist: a ``self.<lock> = threading.Lock()``
(or ``RLock``) assignment in the class's own ``__init__`` or in the
``__init__`` of an in-tree ancestor (subclassed transports guard their
state with the base transport's lock so cross-dict invariants stay
atomic under one lock), or from an ``__init__`` parameter annotated as a
context manager: a sans-IO core whose shell supplies the lock
(``repro.replication.ship_core``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import (
    Finding,
    ModuleSet,
    SourceModule,
    is_self_attr,
    self_attr_name,
)

RULE_ID = "A001"

#: Method names that mutate their receiver. ``next`` covers the id
#: generators; ``put`` the queues. Unknown names are treated as reads.
MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "next",
        "pop",
        "popitem",
        "popleft",
        "put",
        "put_nowait",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

_GUARD_MARK = "# guarded-by:"


def _guard_registry(
    module: SourceModule, cls: ast.ClassDef
) -> tuple[dict[str, str], dict[str, int], set[str]]:
    """Scan ``__init__`` for declarations.

    Returns (attr -> lock name, attr -> declaration line, locks defined
    as threading.Lock/RLock in the same ``__init__`` or handed to it).
    """
    guarded: dict[str, str] = {}
    decl_line: dict[str, int] = {}
    locks: set[str] = set()
    init = next(
        (
            n
            for n in cls.body
            if isinstance(n, ast.FunctionDef) and n.name == "__init__"
        ),
        None,
    )
    if init is None:
        return guarded, decl_line, locks
    args = init.args.args + init.args.kwonlyargs
    injected = {
        a.arg for a in args if a.annotation and "ContextManager" in ast.unparse(a.annotation)
    }
    for node in ast.walk(init):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            attr = self_attr_name(target)
            if attr is None:
                continue
            value = node.value  # type: ignore[union-attr]
            if (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in ("Lock", "RLock", "Condition")
            ) or (isinstance(value, ast.Name) and value.id in injected):
                locks.add(attr)
            text = module.line_text(node.lineno)
            mark = text.find(_GUARD_MARK)
            if mark >= 0:
                lock = text[mark + len(_GUARD_MARK) :].strip().split()[0]
                guarded[attr] = lock
                decl_line[attr] = node.lineno
    return guarded, decl_line, locks


class _MutationVisitor(ast.NodeVisitor):
    """Walks one method tracking which declared locks are lexically held."""

    def __init__(self, module: SourceModule, guarded: dict[str, str]):
        self.module = module
        self.guarded = guarded
        self.held: list[str] = []
        self.findings: list[Finding] = []

    # -- guard context -------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired = [
            name
            for item in node.items
            if (name := self_attr_name(item.context_expr)) is not None
        ]
        self.held.extend(acquired)
        for stmt in node.body:
            self.visit(stmt)
        del self.held[len(self.held) - len(acquired) :]

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # A nested function may run long after the enclosing with-block
        # released its lock: analyze its body with no locks held.
        outer, self.held = self.held, []
        for stmt in node.body:
            self.visit(stmt)
        self.held = outer

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    # -- mutation forms ------------------------------------------------------

    def _attr_of_store_target(self, target: ast.expr) -> str | None:
        if (name := self_attr_name(target)) is not None:
            return name
        if isinstance(target, ast.Subscript):
            return self_attr_name(target.value)
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if (name := self._attr_of_store_target(element)) is not None:
                    return name
        return None

    def _check(self, attr: str | None, node: ast.AST, what: str) -> None:
        if attr is None or attr not in self.guarded:
            return
        lock = self.guarded[attr]
        if lock not in self.held:
            self.findings.append(
                Finding(
                    path=str(self.module.path),
                    line=node.lineno,  # type: ignore[attr-defined]
                    col=getattr(node, "col_offset", 0),
                    rule=RULE_ID,
                    message=(
                        f"{what} of shared attribute `self.{attr}` outside "
                        f"`with self.{lock}:` (declared guarded-by {lock})"
                    ),
                )
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check(self._attr_of_store_target(target), node, "write")
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check(self._attr_of_store_target(node.target), node, "write")
            self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check(self._attr_of_store_target(node.target), node, "write")
        self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check(self._attr_of_store_target(target), node, "delete")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in MUTATORS
            and is_self_attr(func.value)
        ):
            self._check(
                self_attr_name(func.value), node, f"mutating call `.{func.attr}()`"
            )
        self.generic_visit(node)


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def check(modules: ModuleSet) -> Iterator[Finding]:
    # Locks may live in an in-tree ancestor's __init__ (e.g. a subclassed
    # transport guarding its own dicts with the base transport's
    # _state_lock); index every class so the declaration check can walk
    # the ancestry across modules.
    class_index: dict[str, tuple[SourceModule, ast.ClassDef]] = {}
    for module in modules:
        for cls in [
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ]:
            class_index.setdefault(cls.name, (module, cls))

    def ancestor_locks(cls: ast.ClassDef, seen: set[str]) -> set[str]:
        locks: set[str] = set()
        for base in _base_names(cls):
            if base not in class_index or base in seen:
                continue
            seen.add(base)
            base_module, base_cls = class_index[base]
            locks |= _guard_registry(base_module, base_cls)[2]
            locks |= ancestor_locks(base_cls, seen)
        return locks

    for module in modules:
        for cls in [
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ]:
            guarded, decl_line, locks = _guard_registry(module, cls)
            if not guarded:
                continue
            locks |= ancestor_locks(cls, set())
            for attr, lock in guarded.items():
                if lock not in locks:
                    yield Finding(
                        path=str(module.path),
                        line=decl_line[attr],
                        col=0,
                        rule=RULE_ID,
                        message=(
                            f"`self.{attr}` declared guarded-by {lock}, but "
                            f"`self.{lock}` is not a threading Lock/RLock/"
                            f"Condition created in {cls.name}.__init__ or an "
                            f"in-tree ancestor's"
                        ),
                    )
            for method in cls.body:
                if (
                    not isinstance(
                        method, (ast.FunctionDef, ast.AsyncFunctionDef)
                    )
                    or method.name == "__init__"
                ):
                    continue
                visitor = _MutationVisitor(module, guarded)
                for stmt in method.body:
                    visitor.visit(stmt)
                yield from visitor.findings
