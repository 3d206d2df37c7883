"""InprocTransport: synchronous, single-threaded delivery.

The simplest possible transport — ``call`` runs the target handler
inline and returns its response. No timing, no concurrency; this is the
byte-fidelity path the integration tests and examples drive.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import RpcError
from repro.runtime.transport import Transport


class InprocTransport(Transport):
    """Every call is a plain function call in the caller's thread."""

    def __init__(self) -> None:
        self._services: dict[tuple[int, str], Any] = {}

    def register(self, node_id: int, name: str, service: Any) -> None:
        key = (node_id, name)
        if key in self._services:
            raise RpcError(f"service {name!r} already registered on node {node_id}")
        self._services[key] = service

    def call(
        self,
        src: int,
        dst: int,
        service: str,
        method: str,
        request: Any,
        request_bytes: int = 0,
    ) -> Any:
        try:
            target = self._services[(dst, service)]
        except KeyError:
            raise RpcError(f"no service {service!r} on node {dst}") from None
        return target.handle(method, request)
