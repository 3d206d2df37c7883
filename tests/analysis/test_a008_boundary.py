"""A008: boundary crossings must re-validate CRC before decode."""

from tests.analysis.conftest import findings_for


def _fixture_findings():
    return [f for f in findings_for("A008") if f.path.endswith("boundary.py")]


def test_ring_read_decode_fires():
    found = [f for f in _fixture_findings() if "ring read" in f.message]
    assert found and ".records()" in found[0].message


def test_read_bytes_decode_fires():
    found = [f for f in _fixture_findings() if ".read_bytes()" in f.message]
    assert found and "decode_chunk(verify=False)" in found[0].message


def test_file_handle_read_decode_fires():
    found = [f for f in _fixture_findings() if "fh.read()" in f.message]
    assert found and "chunks(verify=False)" in found[0].message


def test_reader_reopen_decode_fires():
    found = [f for f in _fixture_findings() if "re-read" in f.message]
    assert found and ".record_views()" in found[0].message


def test_verify_payload_clears_taint():
    assert all(
        "validated_before_decode" not in f.message
        and f.line not in range(77, 90)
        for f in _fixture_findings()
    )


def test_sanitizer_helper_clears_taint():
    # sanitized_by_helper calls check_crc (a crc32c-bearing function).
    paths_lines = {(f.path, f.line) for f in _fixture_findings()}
    assert not any(line in range(91, 96) for _, line in paths_lines)


def test_verify_true_and_forwarded_are_clean():
    msgs = [f.message for f in _fixture_findings()]
    assert len(_fixture_findings()) == 4, msgs


def test_justified_noqa_suppresses():
    # `silenced` carries a justified `# noqa: A008`.
    assert all(f.line < 100 for f in _fixture_findings())


def test_subscript_propagates_taint(analyze):
    findings = analyze(
        {
            "mod.py": """
            def serve(path):
                raw = path.read_bytes()
                head = raw[0:44]
                return decode_chunk(head, verify=False)
            """
        },
        rules=["A008"],
    )
    assert len(findings) == 1


def test_default_verify_is_trusted(analyze):
    findings = analyze(
        {
            "mod.py": """
            def serve(path):
                raw = path.read_bytes()
                return decode_chunk(raw)
            """
        },
        rules=["A008"],
    )
    assert findings == []


def test_untainted_receiver_is_clean(analyze):
    # verify=False on in-memory bytes the process built itself is the
    # documented same-address-space fast path, not a boundary violation.
    findings = analyze(
        {
            "mod.py": """
            def serve(builder):
                frame = builder.build()
                return decode_chunk(frame, verify=False)
            """
        },
        rules=["A008"],
    )
    assert findings == []


def test_view_construction_carries_taint(analyze):
    findings = analyze(
        {
            "mod.py": """
            class ChunkView:
                def records(self):
                    return []

            def serve(path):
                raw = path.read_bytes()
                view = ChunkView(raw)
                return view.records()
            """
        },
        rules=["A008"],
    )
    assert len(findings) == 1


def _fetched_findings():
    return [f for f in findings_for("A008") if f.path.endswith("fetched.py")]


def test_deferred_validation_that_never_runs_fires():
    # Structural decode of fetched bytes, then .records() with no batch
    # validation in between: the consume path's one forbidden shape. Its
    # twin that calls the lane-engine validator first stays clean.
    (finding,) = _fetched_findings()
    assert ".records()" in finding.message and "ring read" in finding.message


def test_lane_engine_batch_validator_clears_taint(analyze):
    # The batch validators call crc32c_lanes16 / crc32c_bulk directly —
    # the engines behind crc32c since the word tables landed.
    for engine in ("crc32c_lanes16", "crc32c_bulk"):
        findings = analyze(
            {
                "mod.py": f"""
                class FetchedView:
                    def records(self):
                        return []

                def validate(view):
                    return {engine}(view.raw)

                def serve(path):
                    view = FetchedView(path.read_bytes())
                    validate(view)
                    return view.records()
                """
            },
            rules=["A008"],
        )
        assert findings == [], engine
