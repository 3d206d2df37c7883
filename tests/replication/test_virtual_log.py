"""Virtual log behaviour: rolling, batching discipline, failure repair."""

import pytest

from repro.common.errors import ReplicationError
from repro.common.units import KB
from repro.replication.config import ReplicationConfig
from repro.replication.policy import BackupSelector
from repro.replication.virtual_log import VirtualLog


def make_vlog(vseg_capacity=4 * KB, copies=2, nodes=4, **cfg_kwargs):
    config = ReplicationConfig(
        replication_factor=copies + 1,
        virtual_segment_size=vseg_capacity,
        **cfg_kwargs,
    )
    selector = BackupSelector(primary=0, nodes=list(range(nodes)), copies=copies)
    return VirtualLog(vlog_id=0, config=config, selector=selector)


def fill(vlog, streamlet_factory, chunk_factory, count):
    streamlet = streamlet_factory()
    stored = [streamlet.append(chunk_factory()) for _ in range(count)]
    refs = [vlog.append(s) for s in stored]
    return stored, refs


def test_single_open_vseg_rolls_with_fresh_backups(streamlet_factory, chunk_factory):
    # Chunks are 200 bytes; a 500-byte virtual segment holds 2.
    vlog = make_vlog(vseg_capacity=500)
    stored, _ = fill(vlog, streamlet_factory, chunk_factory, 5)
    assert len(vlog.vsegs) == 3
    # Exactly one open vseg; earlier ones sealed.
    assert [v.sealed for v in vlog.vsegs] == [True, True, False]
    # Rotating backup choice: consecutive vsegs differ.
    assert vlog.vsegs[0].backups != vlog.vsegs[1].backups
    # All backup sets exclude the primary and have the right size.
    for vseg in vlog.vsegs:
        assert 0 not in vseg.backups
        assert len(vseg.backups) == 2
        assert len(set(vseg.backups)) == 2


def test_batching_one_in_flight(streamlet_factory, chunk_factory):
    vlog = make_vlog()
    stored, _ = fill(vlog, streamlet_factory, chunk_factory, 3)
    batch = vlog.next_batch()
    assert batch is not None
    assert [r.stored for r in batch.refs] == stored
    # While in flight, no second batch.
    assert vlog.next_batch() is None
    assert vlog.in_flight
    durable = vlog.complete_batch(batch)
    assert durable == stored
    assert not vlog.in_flight
    assert all(s.is_durable for s in stored)
    assert vlog.next_batch() is None  # nothing left


def test_group_commit_accumulates_during_flight(streamlet_factory, chunk_factory):
    vlog = make_vlog()
    streamlet = streamlet_factory()
    first = streamlet.append(chunk_factory())
    vlog.append(first)
    batch1 = vlog.next_batch()
    # Two more chunks arrive while batch1 is in flight.
    later = [streamlet.append(chunk_factory()) for _ in range(2)]
    for s in later:
        vlog.append(s)
    assert vlog.next_batch() is None
    vlog.complete_batch(batch1)
    batch2 = vlog.next_batch()
    assert [r.stored for r in batch2.refs] == later
    vlog.complete_batch(batch2)
    assert all(s.is_durable for s in later)


def test_batches_never_span_vsegs(streamlet_factory, chunk_factory):
    vlog = make_vlog(vseg_capacity=500)  # 2 chunks per vseg
    stored, _ = fill(vlog, streamlet_factory, chunk_factory, 5)
    seen_vsegs = []
    while True:
        batch = vlog.next_batch()
        if batch is None:
            break
        assert len({id(r.stored.segment) for r in batch.refs}) >= 1
        vseg_ids = {batch.vseg.vseg_id}
        assert len(vseg_ids) == 1
        seen_vsegs.append((batch.vseg.vseg_id, len(batch.refs)))
        vlog.complete_batch(batch)
    assert seen_vsegs == [(0, 2), (1, 2), (2, 1)]
    assert all(s.is_durable for s in stored)


def test_batch_caps(streamlet_factory, chunk_factory):
    vlog = make_vlog(max_batch_chunks=2)
    stored, _ = fill(vlog, streamlet_factory, chunk_factory, 5)
    sizes = []
    while True:
        batch = vlog.next_batch()
        if batch is None:
            break
        sizes.append(batch.chunk_count)
        vlog.complete_batch(batch)
    assert sizes == [2, 2, 1]


def test_byte_cap_allows_at_least_one_chunk(streamlet_factory, chunk_factory):
    vlog = make_vlog(max_batch_bytes=10)  # smaller than one chunk
    fill(vlog, streamlet_factory, chunk_factory, 2)
    batch = vlog.next_batch()
    assert batch.chunk_count == 1
    vlog.complete_batch(batch)


def test_complete_without_flight_rejected(streamlet_factory, chunk_factory):
    vlog = make_vlog()
    stored, _ = fill(vlog, streamlet_factory, chunk_factory, 1)
    batch = vlog.next_batch()
    vlog.complete_batch(batch)
    with pytest.raises(ReplicationError):
        vlog.complete_batch(batch)


def test_abort_rewinds_for_reshipping(streamlet_factory, chunk_factory):
    vlog = make_vlog()
    stored, _ = fill(vlog, streamlet_factory, chunk_factory, 3)
    batch = vlog.next_batch()
    vlog.abort_batch(batch)
    assert not vlog.in_flight
    retry = vlog.next_batch()
    assert [r.stored for r in retry.refs] == stored
    vlog.complete_batch(retry)
    assert all(s.is_durable for s in stored)


def test_payload_bytes_includes_ref_metadata(streamlet_factory, chunk_factory):
    from repro.replication.chunk_ref import CHUNK_REF_WIRE_SIZE

    vlog = make_vlog()
    stored, _ = fill(vlog, streamlet_factory, chunk_factory, 2)
    batch = vlog.next_batch()
    expected = sum(s.length for s in stored) + 2 * CHUNK_REF_WIRE_SIZE
    assert batch.payload_bytes == expected


def test_backup_failure_repairs_durable_prefix(streamlet_factory, chunk_factory):
    vlog = make_vlog(nodes=5)
    stored, _ = fill(vlog, streamlet_factory, chunk_factory, 3)
    batch = vlog.next_batch()
    vlog.complete_batch(batch)
    failed = vlog.vsegs[0].backups[0]
    old_backups = vlog.vsegs[0].backups
    repairs = vlog.handle_backup_failure(failed)
    assert len(repairs) == 1
    repair = repairs[0]
    assert repair.repair
    # Repair re-ships the durable prefix to the replacement only.
    assert len(repair.refs) == 3
    assert len(repair.backups) == 1
    assert repair.backups[0] not in old_backups
    new_backups = vlog.vsegs[0].backups
    assert failed not in new_backups
    assert len(new_backups) == 2
    # Durability was never lost.
    assert all(s.is_durable for s in stored)
    # A repair batch is outside the flight table: there is nothing to
    # complete, and watermarks do not move.
    with pytest.raises(ReplicationError):
        vlog.complete_batch(repair)
    assert vlog.vsegs[0].durable_index == 3
    assert not vlog.in_flight


def test_backup_failure_unreplicated_refs_reship_to_new_set(
    streamlet_factory, chunk_factory
):
    vlog = make_vlog(nodes=5)
    stored, _ = fill(vlog, streamlet_factory, chunk_factory, 2)
    failed = None
    # Nothing shipped yet: failure should produce no repair batches but
    # future batches go to the repaired set.
    vseg = vlog.vsegs[-1] if vlog.vsegs else None
    batch = vlog.next_batch()
    failed = batch.backups[0]
    vlog.abort_batch(batch)
    repairs = vlog.handle_backup_failure(failed)
    assert repairs == []  # durable prefix empty
    retry = vlog.next_batch()
    assert failed not in retry.backups
    vlog.complete_batch(retry)
    assert all(s.is_durable for s in stored)
