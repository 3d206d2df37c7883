"""Derived registry of the zero-copy surface shared by rules A006-A008.

The ownership rules need to know which calls hand out *borrowed* views,
which names are shared-memory rings, and which fields are documented to
hold borrowed bytes. None of that is configured: it is derived from the
analyzed tree itself, so the rules follow the code as it grows.

* A function or method whose return annotation mentions ``memoryview``
  or a ``*View`` type is a **borrow source** — the annotation is the
  documentation that its result aliases someone else's bytes.
* A class whose name ends in ``View`` constructs borrowed windows
  (``ChunkView(frame)`` wraps, it does not copy).
* A name assigned from a ``*Ring(...)`` call is **ring-typed**: its
  ``try_read``/``read`` results alias ring memory until ``consume``.
* A field declared with a trailing ``# borrows: <owner>`` comment at its
  ``__init__`` assignment (mirroring A001's ``# guarded-by:``) is the
  sanctioned place to store a borrowed view — the owner names whose
  lifetime the field is coupled to.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ModuleSet, SourceModule, decorator_name

BORROW_MARK = "# borrows:"

#: Method names too generic to use for by-name borrow-source resolution:
#: they collide with dict/file/stdlib methods (``d.get``, ``fh.read``)
#: and would taint unrelated code. Ring reads are recognized separately,
#: gated on a ring-typed receiver.
GENERIC_NAMES = frozenset({"get", "read", "open", "pop", "copy", "next", "close"})

#: ``memoryview`` methods that return another window onto the same bytes.
VIEW_PROPAGATORS = frozenset({"cast", "toreadonly"})


def terminal_name(node: ast.expr) -> str | None:
    """``x`` for ``Name(x)``; ``y`` for ``a.b.y`` — by-name resolution."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` rendered as a dotted string (receiver identity)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _annotation_names(node: ast.expr | None) -> list[str]:
    """Every type name mentioned in an annotation, string forms included."""
    if node is None:
        return []
    names: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.append(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            # String annotation: split on non-identifier characters.
            token = ""
            for ch in sub.value + " ":
                if ch.isalnum() or ch == "_":
                    token += ch
                else:
                    if token:
                        names.append(token)
                    token = ""
    return names


def annotation_is_viewlike(node: ast.expr | None) -> bool:
    """Does the annotation document a borrowed view (``memoryview``/``*View``)?"""
    return any(
        name == "memoryview" or name.endswith("View")
        for name in _annotation_names(node)
    )


def collect_view_functions(modules: ModuleSet) -> set[str]:
    """Names of in-tree functions whose return annotation is view-like.

    Resolution is by name (A005-style over-approximation): a call
    ``x.encoded_view()`` matches any in-tree def of that name. Names in
    :data:`GENERIC_NAMES` are excluded to avoid stdlib collisions.
    """
    names: set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name in GENERIC_NAMES:
                    continue
                if annotation_is_viewlike(node.returns):
                    names.add(node.name)
    return names


def collect_view_properties(modules: ModuleSet) -> set[str]:
    """Subset of view functions that are ``@property`` (plain attribute
    access like ``chunk.payload_view`` yields a borrowed view)."""
    names: set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name not in GENERIC_NAMES
                and annotation_is_viewlike(node.returns)
                and any(decorator_name(d) == "property" for d in node.decorator_list)
            ):
                names.add(node.name)
    return names


def collect_view_classes(modules: ModuleSet) -> set[str]:
    """In-tree ``*View`` classes — constructing one borrows its argument."""
    return {
        node.name
        for module in modules
        for node in ast.walk(module.tree)
        if isinstance(node, ast.ClassDef) and node.name.endswith("View")
    }


def collect_ring_names(modules: ModuleSet) -> set[str]:
    """Terminal names ever assigned from a ``*Ring(...)`` call.

    ``self.requests = SpscRing(...)`` registers ``requests``; a local
    ``ring = SpscRing(buf)`` registers ``ring``. Receivers whose terminal
    name is registered are treated as rings by A007/A008.
    """
    names: set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            callee = terminal_name(value.func)
            if callee is None or not callee.endswith("Ring"):
                continue
            for target in node.targets:
                name = terminal_name(target)
                if name is not None:
                    names.add(name)
    return names


def collect_sanitizer_functions(modules: ModuleSet) -> set[str]:
    """In-tree functions that re-validate bytes (CRC summaries, A008).

    A function counts as a sanitizer when its body computes or checks a
    CRC (``crc32c``/``crc32c_many`` or a lane engine directly:
    ``crc32c_bulk``/``crc32c_lanes``/``crc32c_lanes16``), calls
    ``verify_payload``/``verify``, decodes with ``verify=True``, or raises
    ``ChecksumError`` itself. One level deep only — enough for the
    in-tree helpers (``SegmentFileMeta.unpack``, ``recover_segment_file``,
    the batch validators ``uniform_frame_checksums``/``verify_chunks``, ...).
    """
    sanitizing_calls = {
        "crc32c",
        "crc32c_many",
        "crc32c_bulk",
        "crc32c_lanes",
        "crc32c_lanes16",
        "verify_payload",
        "verify",
    }
    names: set[str] = set()
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call):
                    callee = terminal_name(sub.func)
                    if callee in sanitizing_calls:
                        names.add(node.name)
                        break
                    if callee is not None and any(
                        kw.arg == "verify"
                        and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                        for kw in sub.keywords
                    ):
                        names.add(node.name)
                        break
                if isinstance(sub, ast.Raise) and sub.exc is not None:
                    exc = sub.exc
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    if terminal_name(exc) == "ChecksumError":
                        names.add(node.name)
                        break
    return names


def borrow_fields(module: SourceModule, cls: ast.ClassDef) -> dict[str, tuple[str, int]]:
    """``# borrows:`` declarations in this class's ``__init__``.

    Returns attr -> (owner, declaration line). The owner is the first
    token after the mark; trailing prose is welcome documentation.
    An empty owner is recorded as ``""`` so A006 can flag the grammar.
    """
    declared: dict[str, tuple[str, int]] = {}
    init = next(
        (
            n
            for n in cls.body
            if isinstance(n, ast.FunctionDef) and n.name == "__init__"
        ),
        None,
    )
    if init is None:
        return declared
    for node in ast.walk(init):
        target: ast.expr | None = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
        elif isinstance(node, ast.AnnAssign):
            target = node.target
        if target is None:
            continue
        attr: str | None = None
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            attr = target.attr
        if attr is None:
            continue
        text = module.line_text(node.lineno)
        mark = text.find(BORROW_MARK)
        if mark >= 0:
            rest = text[mark + len(BORROW_MARK) :].strip()
            owner = rest.split()[0] if rest else ""
            declared[attr] = (owner, node.lineno)
    return declared


def line_has_borrow_mark(module: SourceModule, lineno: int) -> bool:
    """Line-level escape: an explicit ``# borrows: <owner>`` on the
    flagged statement documents the lifetime coupling in place."""
    text = module.line_text(lineno)
    mark = text.find(BORROW_MARK)
    if mark < 0:
        return False
    return bool(text[mark + len(BORROW_MARK) :].strip())
