"""WorkerTransport over the framed-TCP pipe.

The contract suite (``worker_transport_contract``) bound to
``SocketServiceSpec``, plus the socket-only surface: the rendezvous
listener's address.
"""

import pytest

from repro.common.errors import RpcError
from repro.runtime.socket_transport import SocketServiceSpec

from tests.runtime.worker_transport_contract import (  # noqa: F401 - collected here
    Echo,
    TestGenericPath,
    TestReplicateFastPath,
    TestRobustness,
    TestShutdownDrain,
    transport,
)


@pytest.fixture
def spec():
    def build(factory, kwargs=None, credit_bytes=None):
        sizing = {} if credit_bytes is None else {"window_bytes": credit_bytes}
        return SocketServiceSpec(factory=factory, kwargs=kwargs or {}, **sizing)

    return build


@pytest.fixture
def death_sources():
    return {"socket-eof", "socket-error"}


class TestListenerSurface:
    def test_listen_address_requires_started_transport(self, transport, spec):
        transport.register(1, "echo", spec(Echo))
        with pytest.raises(RpcError):
            transport.listen_address()
        transport.start()
        host, port = transport.listen_address()
        assert host == "127.0.0.1"
        assert port > 0

    def test_connection_count_tracks_worker_links(self, transport, spec):
        transport.register(1, "echo", spec(Echo))
        transport.register(2, "echo", spec(Echo))
        assert transport.connection_count() == 0
        transport.start()
        assert transport.connection_count() == 2
