"""A003 transport-conformance.

Drivers are only swappable because every transport honors the exact
:class:`repro.runtime.transport.Transport` surface (and adapters the
:class:`repro.runtime.system.SystemAdapter` one). Python will happily
let a subclass drift — rename a parameter, drop a default, forget a
required method — and the break only surfaces when that driver runs.
This rule checks structurally, against a spec of the protocols encoded
here:

* every class deriving (transitively, within the analyzed tree) from
  ``Transport`` / ``SystemAdapter`` / ``LiveService`` implements the
  protocol's required methods somewhere in its in-tree ancestry — the
  pipelined replication plane widened ``Transport`` with ``call_async``
  and ``credit``, both specced here so concurrent transports cannot
  drift from the shipper's calling convention;
* the ``PipelinedShipper`` driver surface (``kick``/``pump``/``stop``/
  ``in_flight_batches``) keeps its zero-argument shape — the cluster,
  its drain path and single-stepping tests drive the one ship loop
  through exactly these;
* the ``WorkerTransport`` surface (also under its ``SocketTransport``
  name) — the Transport methods plus the ``listen_address`` /
  ``connection_count`` / ``worker_pid`` operator entry points that
  ``run_cluster.py``, the gateway drivers and chaos tooling reach
  through — and the ``LiveKeraCluster`` produce, fetch and ``backup_*``
  operator surface, with the broker core's watch/unwatch registry the
  long-poll fetch parks on;
* the one live broker service (``BrokerService``: ``produce`` /
  ``fetch`` plus the node and streamlet fences) and the streamlet-move entry points —
  module-level functions, pinned by name in ``FUNCTIONS``:
  ``move_streamlets``/``replay_runs`` (the machine and its one replay
  loop) and its callers ``recover_broker`` and ``migrate_streamlet``;
* every override of a protocol method keeps the protocol's signature:
  same positional parameter names in order, defaults preserved, required
  keyword-only parameters present (extras allowed only with defaults).

The spec is the contract's second copy on purpose: if the protocol
classes themselves change shape, the rule flags *them* too, forcing the
spec — and every implementation — to move in the same commit.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, replace
from functools import partial

from repro.analysis.core import Finding, ModuleSet, SourceModule

RULE_ID = "A003"


@dataclass(frozen=True, slots=True)
class MethodSpec:
    #: Positional parameter names after ``self``, in order.
    positional: tuple[str, ...]
    #: How many of the trailing positional parameters carry defaults.
    defaults: int = 0
    #: Keyword-only parameter names; all specced kwonly params default.
    kwonly: tuple[str, ...] = ()
    #: Whether the protocol base raises NotImplementedError (must be
    #: overridden by a concrete subclass).
    required: bool = False


_TRANSPORT: dict[str, MethodSpec] = {
    "register": MethodSpec(("node_id", "name", "service"), required=True),
    "call": MethodSpec(
        ("src", "dst", "service", "method", "request", "request_bytes"),
        defaults=1,
        required=True,
    ),
    "call_async": MethodSpec(
        ("src", "dst", "service", "method", "request", "request_bytes"),
        defaults=1,
        kwonly=("on_done",),
    ),
    "credit": MethodSpec(("dst", "service")),
    "start": MethodSpec(()),
    "shutdown": MethodSpec(()),
}

# The worker transport's full surface, pinned by name. Because a class
# specced here skips the base-class walk, the spec carries the Transport
# methods itself — derived from the spec above, so the two cannot drift —
# plus the operator entry points `run_cluster.py`, the gateway drivers
# and the chaos tooling reach through.
_WORKER_LINKS: dict[str, MethodSpec] = {
    **{name: replace(spec, required=False) for name, spec in _TRANSPORT.items()},
    "listen_address": MethodSpec(()),
    "connection_count": MethodSpec(()),
}

PROTOCOLS: dict[str, dict[str, MethodSpec]] = {
    "Transport": _TRANSPORT,
    "WorkerTransport": {
        **_WORKER_LINKS,
        "worker_pid": MethodSpec(("node_id", "service")),
    },
    # The same class under its TCP-era name (`SocketTransport =
    # WorkerTransport` in runtime/socket_transport.py): any class
    # *defined* by this name is held to the listener surface.
    "SocketTransport": _WORKER_LINKS,
    # Not a base protocol but a pinned driver surface: every cluster
    # driver pokes the shipper through exactly these entry points, so the
    # spec holds them still even though the class derives only Thread.
    "PipelinedShipper": {
        "kick": MethodSpec(()),
        # The ship loop's turns: what `kick` runs on the appending thread
        # when no pump is running, and what the shipper's thread runs.
        "pump": MethodSpec(()),
        "stop": MethodSpec(()),
        "in_flight_batches": MethodSpec(()),
    },
    # The live cluster's produce surface, pinned by name: the gateway's
    # coalescer and every driver's client path call through exactly
    # these — `produce_async`/`submit_produce` are the completion-driven
    # contract (no thread waits for an ack; `on_complete(response,
    # error)` fires exactly once), so a driver that drifts from this
    # shape silently breaks the async front door. Subclasses inherit
    # rather than override, but if one does override it must keep the
    # shape.
    "LiveKeraCluster": {
        "produce": MethodSpec(("chunks", "producer_id")),
        "produce_async": MethodSpec(("chunks", "producer_id", "on_complete")),
        "submit_produce": MethodSpec(
            ("broker_id", "chunks", "producer_id", "on_complete")
        ),
        # The one ship loop per broker (benchmarks sample it) and the one
        # repair sender, which recovery reaches on every driver.
        "shipper": MethodSpec(("broker_id",)),
        "repair_backups_for": MethodSpec(("failed_node",)),
        # The read path's one entry point: clients, the gateway and the
        # benchmark's tracer reach the leaders' cores through it; `watch`
        # hands a long-poll's token to those cores and `unwatch` takes it
        # back from all of them.
        "fetch": MethodSpec(
            ("positions",),
            kwonly=(
                "consumer_id",
                "max_chunks_per_entry",
                "defer_admission",
                "watch",
            ),
        ),
        "unwatch": MethodSpec(("token",)),
        # The backup operator surface: recovery, restart and the failover
        # plane reach every driver's backups through exactly these, and
        # each is one call on the node's "backup" binding — written once,
        # here, never per driver.
        "backup_stats": MethodSpec(("node_id",)),
        "flush_lag_bytes": MethodSpec(("node_id",)),
        "segments_on_disk": MethodSpec(("node_id",)),
        "wait_flush_idle": MethodSpec(("timeout",), defaults=1),
        "backup_sync_flush": MethodSpec(("node_id",)),
        "backup_recovery_chunks": MethodSpec(("node_id", "failed_broker")),
        "backup_load_disk": MethodSpec(("node_id",), kwonly=("parallel",)),
        "backup_loaded_brokers": MethodSpec(("node_id",)),
        "backup_disk_recovery_chunks": MethodSpec(("node_id", "failed_broker")),
        "backup_retire_epochs": MethodSpec(("node_id",)),
        "backup_drop_broker": MethodSpec(("node_id", "failed_broker")),
    },
    # The failover plane's entry points, pinned by name: the shipper's
    # repair path reaches recovery through `note_node_failure` (via
    # `LiveKeraCluster.report_backup_failure`), transports feed verdicts
    # through `report_dead`, and chaos harnesses/operator tooling block
    # on `wait_recovered` — none of them import these classes' modules
    # at the call site, so a signature drift would only surface as a
    # runtime TypeError mid-recovery.
    "FailureDetector": {
        "start": MethodSpec(()),
        "stop": MethodSpec(()),
        "is_down": MethodSpec(("node_id",)),
        "verdicts": MethodSpec(()),
        "report_dead": MethodSpec(("node_id", "reason", "source"), defaults=1),
    },
    "FailoverPlane": {
        "start": MethodSpec(()),
        "stop": MethodSpec(()),
        "note_node_failure": MethodSpec(("node_id", "error")),
        "wait_recovered": MethodSpec(("node_id", "timeout"), defaults=1),
    },
    "SystemAdapter": {
        "build_cores": MethodSpec(("completion",), required=True),
        "on_stream_created": MethodSpec(("meta",)),
    },
    "LiveService": {
        "handle": MethodSpec(("method", "request"), required=True),
    },
    # The core's durability-watcher registry: the long-poll front end
    # registers through `handle_fetch` (atomically with an empty plan) or
    # `watch`, always leaves through `unwatch`, and a node fence reaches
    # every parked fetch through `wake_watchers`.
    "KeraBrokerCore": {
        "handle_fetch": MethodSpec(("request",)),
        "watch": MethodSpec(("streamlets", "notify", "token")),
        "unwatch": MethodSpec(("token",)),
        "wake_watchers": MethodSpec(()),
    },
    # The one broker service every live driver builds per node, on no
    # transport binding: the cluster's produce and fetch paths call
    # `produce` / `fetch` on the caller's thread, the cluster's fences
    # (node-wide for a death, one streamlet for a voluntary move) reach
    # it through the rest.
    "BrokerService": {
        "produce": MethodSpec(("request",)),
        "fetch": MethodSpec(("request",)),
        "fence": MethodSpec(()),
        "fence_streamlet": MethodSpec(("stream_id", "streamlet_id")),
        "unfence_streamlet": MethodSpec(("stream_id", "streamlet_id")),
    },
}

# Module-level entry points pinned by name (``MethodSpec.positional`` is
# the whole positional list — there is no ``self``).
FUNCTIONS: dict[str, MethodSpec] = {
    "move_streamlets": MethodSpec(
        ("cluster", "plan", "source"), kwonly=("replay_timeout", "lanes")
    ),
    "replay_runs": MethodSpec(("cluster", "lane", "runs")),
    "recover_broker": MethodSpec(
        ("cluster", "failed_broker"), kwonly=("replay_timeout", "report")
    ),
    "migrate_streamlet": MethodSpec(
        ("cluster", "stream_id", "streamlet_id", "target")
    ),
}


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)
    }


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _signature_problems(
    spec: MethodSpec, fn: ast.FunctionDef, *, bound: bool = True
) -> list[str]:
    args = fn.args
    problems: list[str] = []
    names = [a.arg for a in args.posonlyargs + args.args]
    if not bound:
        positional = tuple(names)
    elif not names or names[0] not in ("self", "cls"):
        problems.append("first parameter must be `self`")
        positional = tuple(names)
    else:
        positional = tuple(names[1:])
    if positional != spec.positional and args.vararg is None:
        problems.append(
            f"positional parameters {positional or '()'} != protocol "
            f"{spec.positional or '()'}"
        )
    elif args.vararg is None and spec.defaults > len(args.defaults):
        problems.append(
            f"protocol defaults the last {spec.defaults} positional "
            f"parameter(s); override defaults only {len(args.defaults)}"
        )
    if args.kwarg is None:
        kwonly = {
            a.arg: d
            for a, d in zip(args.kwonlyargs, args.kw_defaults, strict=True)
        }
        for name in spec.kwonly:
            if name not in kwonly:
                problems.append(f"missing keyword-only parameter `{name}`")
        for name, default in kwonly.items():
            if name not in spec.kwonly and default is None:
                problems.append(
                    f"extra keyword-only parameter `{name}` must have a default"
                )
    return problems


def _finding(
    module: SourceModule, node: ast.ClassDef | ast.FunctionDef, message: str
) -> Finding:
    return Finding(
        path=str(module.path),
        line=node.lineno,
        col=node.col_offset,
        rule=RULE_ID,
        message=message,
    )


def check(modules: ModuleSet) -> Iterator[Finding]:
    # Index every class in the tree by simple name (collisions keep the
    # first definition; the protocol names are unique in this codebase).
    class_index: dict[str, tuple[ast.ClassDef, str]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name not in class_index:
                class_index[node.name] = (node, str(module.path))

    def protocol_of(cls: ast.ClassDef, seen: set[str]) -> str | None:
        """The protocol this class ultimately derives from, if any."""
        for base in _base_names(cls):
            if base in PROTOCOLS:
                return base
            if base in class_index and base not in seen:
                seen.add(base)
                found = protocol_of(class_index[base][0], seen)
                if found is not None:
                    return found
        return None

    def inherited_methods(cls: ast.ClassDef, seen: set[str]) -> set[str]:
        """Method names defined by in-tree ancestors below the protocol."""
        names: set[str] = set()
        for base in _base_names(cls):
            if base in PROTOCOLS or base not in class_index or base in seen:
                continue
            seen.add(base)
            ancestor = class_index[base][0]
            names |= set(_methods(ancestor))
            names |= inherited_methods(ancestor, seen)
        return names

    for module in modules:
        finding = partial(_finding, module)
        for fn in module.tree.body:
            if isinstance(fn, ast.FunctionDef) and fn.name in FUNCTIONS:
                for problem in _signature_problems(
                    FUNCTIONS[fn.name], fn, bound=False
                ):
                    yield finding(
                        fn,
                        f"entry point {fn.name} drifted from the "
                        f"conformance spec ({problem}); update "
                        f"repro.analysis.conformance.FUNCTIONS and "
                        f"every caller together",
                    )
        for cls in [
            n for n in ast.walk(module.tree) if isinstance(n, ast.ClassDef)
        ]:
            if cls.name in PROTOCOLS:
                # The protocol definition itself must match the spec.
                spec_methods = PROTOCOLS[cls.name]
                defined = _methods(cls)
                for name, spec in spec_methods.items():
                    fn = defined.get(name)
                    problems = (
                        [f"protocol method `{name}` missing"]
                        if fn is None
                        else _signature_problems(spec, fn)
                    )
                    for problem in problems:
                        yield finding(
                            fn or cls,
                            f"protocol {cls.name}.{name} drifted from the "
                            f"conformance spec ({problem}); update "
                            f"repro.analysis.conformance.PROTOCOLS and "
                            f"every implementation together",
                        )
                continue
            protocol = protocol_of(cls, set())
            if protocol is None:
                continue
            spec_methods = PROTOCOLS[protocol]
            defined = _methods(cls)
            inherited = inherited_methods(cls, set())
            for name, spec in spec_methods.items():
                fn = defined.get(name)
                if fn is None:
                    if spec.required and name not in inherited:
                        yield finding(
                            cls,
                            f"{cls.name} registered as a {protocol} but "
                            f"does not implement required method "
                            f"`{name}`",
                        )
                    continue
                for problem in _signature_problems(spec, fn):
                    yield finding(
                        fn,
                        f"{cls.name}.{name} does not conform to "
                        f"{protocol}.{name}: {problem}",
                    )
