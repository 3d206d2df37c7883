"""A003 fixture: transports drifting from the protocol surface."""

from repro.runtime.transport import LiveService, Transport


class IncompleteTransport(Transport):
    """Fires: required method `call` never implemented."""

    def register(self, node_id, name, service):
        pass


class DriftedTransport(Transport):
    """Fires twice: renamed positional, dropped keyword-only param."""

    def register(self, node, name, service):
        pass

    def call(self, src, dst, service, method, request, request_bytes=0):
        pass

    def call_async(self, src, dst, service, method, request, request_bytes=0):
        pass


class ConformingTransport(Transport):
    """Clean: full surface, protocol signatures."""

    def register(self, node_id, name, service):
        pass

    def call(self, src, dst, service, method, request, request_bytes=0):
        pass


class DriftedService(LiveService):
    """Fires: handle() signature does not match the protocol."""

    def handle(self, message):
        pass


class SocketTransport:
    """Fires twice: drifted `listen_address`, missing `connection_count`.

    The name alone is pinned — the rule treats any class called
    ``SocketTransport`` as the protocol definition and holds its full
    operator surface (Transport methods plus the listener accessors)
    still, no base class required.
    """

    def register(self, node_id, name, service):
        pass

    def call(self, src, dst, service, method, request, request_bytes=0):
        pass

    def call_async(
        self, src, dst, service, method, request, request_bytes=0, *, on_done=None
    ):
        pass

    def credit(self, dst, service):
        pass

    def start(self):
        pass

    def shutdown(self):
        pass

    def listen_address(self, family):
        pass
