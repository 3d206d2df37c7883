"""Coordinator catalog and recovery planning tests."""

import pytest

from repro.common.errors import ConfigError, RecoveryError, StorageError
from repro.kera.coordinator import Coordinator


def test_round_robin_assignment():
    coord = Coordinator([0, 1, 2, 3])
    meta = coord.create_stream(0, 8)
    # 8 streamlets over 4 brokers: 2 each.
    counts = [len(meta.streamlets_on(b)) for b in range(4)]
    assert counts == [2, 2, 2, 2]


def test_single_partition_streams_spread_by_stream_id():
    coord = Coordinator([0, 1, 2, 3])
    for stream_id in range(8):
        coord.create_stream(stream_id, 1)
    loads = [len(coord.partitions_on(b)) for b in range(4)]
    assert loads == [2, 2, 2, 2]


def test_duplicate_stream_rejected():
    coord = Coordinator([0, 1])
    coord.create_stream(0, 1)
    with pytest.raises(StorageError):
        coord.create_stream(0, 1)


def test_invalid_args():
    with pytest.raises(ConfigError):
        Coordinator([])
    coord = Coordinator([0])
    with pytest.raises(ConfigError):
        coord.create_stream(0, 0)
    with pytest.raises(StorageError):
        coord.stream(99)


def test_recovery_plan_reassigns_to_survivors():
    coord = Coordinator([0, 1, 2, 3])
    coord.create_stream(0, 8)
    before = coord.partitions_on(1)
    plan = coord.plan_recovery(1)
    assert plan.source == 1
    assert plan.survivors == [0, 2, 3]
    assert set(plan.reassignments) == set(before)
    for (stream, sid), target in plan.reassignments.items():
        assert target in plan.survivors
        assert coord.stream(stream).leaders[sid] == target
    assert coord.partitions_on(1) == []
    assert coord.live_brokers == [0, 2, 3]


def test_recovery_twice_rejected():
    coord = Coordinator([0, 1, 2])
    coord.create_stream(0, 3)
    coord.plan_recovery(0)
    with pytest.raises(RecoveryError):
        coord.plan_recovery(0)
    with pytest.raises(RecoveryError):
        coord.plan_recovery(42)


def test_streams_created_after_failure_avoid_dead_broker():
    coord = Coordinator([0, 1, 2, 3])
    coord.plan_recovery(2)
    meta = coord.create_stream(0, 6)
    assert 2 not in meta.leaders.values()


def test_deferred_recovery_leaves_routing_until_commit():
    coord = Coordinator([0, 1, 2, 3])
    coord.create_stream(0, 8)
    before = dict(coord.stream(0).leaders)
    owned = coord.partitions_on(1)
    plan = coord.plan_recovery(1, defer_routing=True)
    # The node is failed (no new streams land on it), the plan is full,
    # but every streamlet still routes to the fenced broker: clients get
    # typed refusals, not premature re-routes, while replay runs.
    assert set(plan.reassignments) == set(owned)
    assert coord.live_brokers == [0, 2, 3]
    assert coord.stream(0).leaders == before
    assert coord.partitions_on(1) == owned

    coord.commit_recovery(plan)
    assert coord.partitions_on(1) == []
    for (stream, sid), target in plan.reassignments.items():
        assert coord.stream(stream).leaders[sid] == target


def test_default_recovery_commits_immediately():
    coord = Coordinator([0, 1, 2, 3])
    coord.create_stream(0, 8)
    plan = coord.plan_recovery(1)
    assert coord.partitions_on(1) == []
    for (stream, sid), target in plan.reassignments.items():
        assert coord.stream(stream).leaders[sid] == target


def test_migration_plan_defers_routing_and_validates():
    coord = Coordinator([0, 1, 2, 3])
    coord.create_stream(0, 4)
    source = coord.stream(0).leaders[2]
    target = (source + 1) % 4
    plan = coord.plan_migration(0, 2, target)
    assert plan.source == source
    assert plan.reassignments == {(0, 2): target}
    assert coord.stream(0).leaders[2] == source  # until the commit
    coord.commit_recovery(plan)
    assert coord.stream(0).leaders[2] == target
    with pytest.raises(StorageError):
        coord.plan_migration(0, 2, target)  # already there
    with pytest.raises(StorageError):
        coord.plan_migration(0, 9, 0)  # no such streamlet
    with pytest.raises(StorageError):
        coord.plan_migration(0, 2, 7)  # no such broker


def test_commit_refused_when_another_move_rerouted_the_streamlet():
    """Two moves of one streamlet (its leader dies mid-migration): the
    second commit must not override the first — the first target may
    already hold acked writes the second lacks."""
    coord = Coordinator([0, 1, 2, 3])
    coord.create_stream(0, 4)
    victim = coord.stream(0).leaders[1]
    migration = coord.plan_migration(0, 1, (victim + 1) % 4)
    recovery = coord.plan_recovery(victim, defer_routing=True)
    coord.commit_recovery(migration)
    with pytest.raises(RecoveryError, match="under the move"):
        coord.commit_recovery(recovery)
    assert coord.stream(0).leaders[1] == (victim + 1) % 4
