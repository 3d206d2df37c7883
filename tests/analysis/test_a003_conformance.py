"""A003: Transport / SystemAdapter / LiveService structural conformance."""

from tests.analysis.conftest import findings_for


def _fixture_findings():
    return [f for f in findings_for("A003") if f.path.endswith("transports.py")]


def test_missing_required_method_fires():
    found = [f for f in _fixture_findings() if "IncompleteTransport" in f.message]
    assert found and "call" in found[0].message


def test_renamed_positional_parameter_fires():
    found = [f for f in _fixture_findings() if "DriftedTransport.register" in f.message]
    assert any("positional parameters" in f.message for f in found)


def test_dropped_keyword_only_parameter_fires():
    found = [f for f in _fixture_findings() if "DriftedTransport.call_async" in f.message]
    assert any("on_done" in f.message for f in found)


def test_service_signature_drift_fires():
    assert any("DriftedService.handle" in f.message for f in _fixture_findings())


def test_conforming_transport_is_clean():
    assert not any("ConformingTransport" in f.message for f in _fixture_findings())


def test_subclass_through_intermediate_base_checked(analyze):
    findings = analyze(
        {
            "mod.py": """
            class Transport:
                def register(self, node_id, name, service): ...
                def call(self, src, dst, service, method, request, request_bytes=0): ...
                def start(self): ...
                def shutdown(self): ...

            class BaseTransport(Transport):
                def register(self, node_id, name, service): ...
                def call(self, src, dst, service, method, request, request_bytes=0): ...

            class LeafTransport(BaseTransport):
                def call(self, wrong_name, dst, service, method, request, request_bytes=0): ...
            """
        },
        rules=["A003"],
    )
    assert any("LeafTransport.call" in f.message for f in findings)


def test_real_tree_transports_conform():
    from pathlib import Path

    src = Path(__file__).resolve().parents[2] / "src" / "repro"
    assert findings_for("A003", paths=[src]) == []


def test_call_async_missing_on_done_fires(analyze):
    findings = analyze(
        {
            "mod.py": """
            class Transport:
                def call_async(self, src, dst, service, method, request,
                               request_bytes=0, *, on_done): ...

            class BadTransport(Transport):
                def call_async(self, src, dst, service, method, request,
                               request_bytes=0): ...
            """
        },
        rules=["A003"],
    )
    assert any(
        "BadTransport.call_async" in f.message and "on_done" in f.message
        for f in findings
    )


def test_credit_signature_drift_fires(analyze):
    findings = analyze(
        {
            "mod.py": """
            class Transport:
                def credit(self, dst, service): ...

            class BadTransport(Transport):
                def credit(self, node, service): ...
            """
        },
        rules=["A003"],
    )
    assert any("BadTransport.credit" in f.message for f in findings)


def test_socket_transport_surface_pinned_by_name():
    # The fixture's fake SocketTransport drifts `listen_address` and
    # drops `connection_count`; the rule pins the surface by class name
    # alone, no base class required.
    found = [f for f in _fixture_findings() if "SocketTransport" in f.message]
    assert any(
        "listen_address" in f.message and "positional parameters" in f.message
        for f in found
    )
    assert any(
        "connection_count" in f.message and "missing" in f.message for f in found
    )


def test_socket_transport_transport_methods_stay_in_lockstep(analyze):
    # The pinned spec repeats the Transport methods verbatim, so a drift
    # in `call` fires even on a class that never derives Transport.
    findings = analyze(
        {
            "mod.py": """
            class SocketTransport:
                def register(self, node_id, name, service): ...
                def call(self, source, dst, service, method, request,
                         request_bytes=0): ...
                def call_async(self, src, dst, service, method, request,
                               request_bytes=0, *, on_done=None): ...
                def credit(self, dst, service): ...
                def start(self): ...
                def shutdown(self): ...
                def listen_address(self): ...
                def connection_count(self): ...
            """
        },
        rules=["A003"],
    )
    assert any(
        "SocketTransport.call" in f.message and "positional parameters" in f.message
        for f in findings
    )


def test_pipelined_shipper_surface_pinned(analyze):
    findings = analyze(
        {
            "mod.py": """
            class PipelinedShipper:
                def kick(self): ...
                def pump(self): ...
                def stop(self, timeout): ...
                def in_flight_batches(self): ...
            """
        },
        rules=["A003"],
    )
    assert any(
        "PipelinedShipper.stop" in f.message and "drifted" in f.message
        for f in findings
    )


def test_move_entry_points_pinned_by_function_name(analyze):
    findings = analyze(
        {
            "mod.py": """
            def migrate_streamlet(cluster, stream_id, streamlet_id, target): ...

            def move_streamlets(cluster, plan, *, replay_timeout=30.0): ...

            def replay_runs(cluster, lane, runs): ...
            """
        },
        rules=["A003"],
    )
    drifted = [f for f in findings if "move_streamlets" in f.message]
    assert drifted and "positional parameters" in drifted[0].message
    assert any("lanes" in f.message for f in drifted)
    assert not any("migrate_streamlet" in f.message for f in findings)
    assert not any("replay_runs" in f.message for f in findings)


def test_broker_service_surface_pinned(analyze):
    findings = analyze(
        {
            "mod.py": """
            class BrokerService:
                def produce(self, request): ...
                def fetch(self, request, watch): ...
                def fence(self): ...
                def fence_streamlet(self, streamlet_id): ...
            """
        },
        rules=["A003"],
    )
    assert any(
        "BrokerService.fetch" in f.message and "drifted" in f.message
        for f in findings
    )
    assert not any("BrokerService.produce" in f.message for f in findings)
    assert any(
        "BrokerService.fence_streamlet" in f.message and "drifted" in f.message
        for f in findings
    )
    assert any(
        "unfence_streamlet" in f.message and "missing" in f.message for f in findings
    )
