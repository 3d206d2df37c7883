"""The replication ship loop, single-stepped.

The first four schedules drive the sans-IO :class:`ShipCore` directly,
through core events (``tests/replication/ship_harness.py``): replicate
calls park until the test answers them, in any order, with or without
an error. No threads, no sleeps — every schedule replays exactly.

The hand-off cases after them keep real threads on the thread shell,
:class:`PipelinedShipper`, over a hand-stepped transport: they park one
appender mid-turn on an event and kick from a second thread; the last
one races real threads on the threaded driver.
"""

import sys
import threading

import pytest

from repro.common.errors import ReplicationError, RpcError
from repro.common.units import KB
from repro.kera import KeraConfig, ThreadedKeraCluster
from repro.kera.live import LiveKeraCluster
from repro.replication.config import ReplicationConfig
from repro.runtime.inproc import InprocTransport
from repro.storage.config import StorageConfig
from repro.wire.chunk import ChunkBuilder
from repro.wire.record import Record
from tests.replication.ship_harness import Harness


def test_reverse_order_acks_apply_durability_in_issue_order():
    h = Harness()
    for seq in range(4):
        h.produce(seq)
    flights = h.flights()
    assert [len(f) for f in flights] == [3, 3, 3, 3]  # depth 4 × three backups
    # The window is full: later appends accumulate, nothing ships.
    h.produce(4)
    h.produce(5)
    assert len(h.flights()) == 4

    for flight in reversed(flights[1:]):
        h.ack(flight)
    # Three batches fully acked, none applied: the first is still out.
    assert h.outcomes == []
    assert h.broker.pending_chunks() == 6
    h.ack(flights[0][:2])
    assert h.outcomes == []
    h.ack(flights[0][2:])
    assert h.outcomes == [(0, None), (1, None), (2, None), (3, None)]
    assert h.wakes > 0  # references wait behind the freed slots

    # The freed slots take everything that accumulated, in one batch.
    h.core.pump()
    (consolidated,) = h.flights()
    assert len(consolidated[0][0].batch.refs) == 2
    h.ack(consolidated)
    assert h.outcomes[4:] == [(4, None), (5, None)]
    h.assert_quiescent()
    assert h.durable_seqs() == [0, 1, 2, 3, 4, 5]


def test_failed_ack_mid_window_unissues_it_and_its_later_siblings():
    h = Harness()
    for seq in range(4):
        h.produce(seq)
    first, second, third, fourth = h.flights()
    h.ack(first)
    assert h.outcomes == [(0, None)]
    doomed = h.refs_in_flight()
    assert len(doomed) == 3

    # One backup refuses the second batch; its other acks still land.
    h.ack(second[:1], RpcError("backup went away"))
    h.ack(second[1:])
    assert h.core.pump() is False
    # That batch and the two issued after it are un-issued, all credit
    # is back, and the produces waiting on the broker failed, typed.
    h.assert_quiescent()
    assert h.core.error is None
    assert [seq for seq, _ in h.outcomes[1:]] == [1, 2, 3]
    assert all(isinstance(err, ReplicationError) for _, err in h.outcomes[1:])
    # Late acks of the dropped siblings are ignored.
    h.ack(third)
    h.ack(fourth)
    h.assert_quiescent()
    assert h.broker.pending_chunks() == 3

    # The core lives: the next kick re-ships the same references.
    h.core.pump()
    assert [id(ref) for ref in h.refs_in_flight()] == [id(ref) for ref in doomed]
    for flight in h.flights():
        h.ack(flight)
    h.assert_quiescent()
    assert h.broker.pending_chunks() == 0
    # A retry of a failed produce acks as duplicates of durable chunks.
    h.produce(1, 2, 3)
    assert h.outcomes[-1] == (1, None)
    assert h.durable_seqs() == [0, 1, 2, 3]


def test_queued_repair_is_serviced_before_the_next_collect():
    h = Harness()
    h.produce(0)
    h.ack(h.flights()[0])
    assert h.outcomes == [(0, None)]
    for seq in range(1, 5):
        h.produce(seq)
    h.produce(5)  # window full: accumulates
    h.ack(h.flights()[0])  # frees one slot; nobody has pumped yet
    assert h.outcomes[-1] == (1, None)

    vseg = h.broker.manager.vlogs[0].vsegs[0]
    dead = vseg.backups[0]
    spare = next(n for n in range(1, 5) if n not in vseg.backups)
    before = list(h.parked)
    h.core.repair(dead)
    h.core.pump()
    fresh = [entry for entry in h.parked if entry not in before]
    # First the repair: the durable prefix (two chunks), to the spare
    # only. Then the collect, shipping to the repaired backup set.
    repair, backup = fresh[0]
    assert backup == spare and repair.batch.repair and len(repair.batch.refs) == 2
    assert len(fresh) == 4 and fresh[1][0] is not repair
    assert sorted(entry[1] for entry in fresh[1:]) == sorted(vseg.backups)
    assert dead not in vseg.backups and spare in vseg.backups

    while h.parked:
        h.ack(h.parked[:1])
    h.assert_quiescent()
    assert h.broker.pending_chunks() == 0
    assert all(error is None for _, error in h.outcomes)


def test_drain_deadline_unissues_every_batch_it_collected():
    """Four batches come out of one collect; credit covers the first and
    the shell's wait for more ends (a drain deadline). The other three
    are un-issued — not abandoned half-issued, not a core error."""
    h = Harness(max_batch_chunks=1, window=1)
    h.produce(0, 1, 2, 3)
    (sent,) = h.flights()
    assert h.core.error is None
    assert h.core.in_flight_batches() == 1
    assert len(h.refs_in_flight()) == 1
    (outcome,) = h.outcomes
    assert isinstance(outcome[1], ReplicationError)

    h.ack(sent)
    h.assert_quiescent()
    assert h.broker.pending_chunks() == 3


# -- the thread shell: the appender pumps, hand-off between two threads ----------


class SteppedTransport(InprocTransport):
    """Synchronous, except that replicate calls park until released."""

    def __init__(self):
        super().__init__()
        self.parked = []  # [dst, request, on_done]
        self.on_replicate = None  # called inside the shipper's send

    def call_async(self, src, dst, service, method, request, request_bytes=0, *, on_done):
        if method != "replicate":
            return super().call_async(
                src, dst, service, method, request, request_bytes, on_done=on_done
            )
        if self.on_replicate is not None:
            self.on_replicate()
        self.parked.append((dst, request, on_done))

    def release(self, entry):
        """Deliver one parked replicate call."""
        self.parked.remove(entry)
        dst, request, on_done = entry
        on_done(self.call(-1, dst, "backup", "replicate", request), None)


class SteppedCluster(LiveKeraCluster):
    def __init__(self, config):
        super().__init__(config, SteppedTransport())

    def _backup_binding(self, node_id):
        return self._local_backup(node_id, async_flush=False)


def make_cluster():
    config = KeraConfig(
        num_brokers=4,
        storage=StorageConfig(segment_size=64 * KB),
        replication=ReplicationConfig(
            replication_factor=4, vlogs_per_broker=1, pipeline_depth=4
        ),
        chunk_size=1 * KB,
    )
    cluster = SteppedCluster(config)
    cluster.create_stream(0, 1)
    return cluster


def chunk(seq):
    builder = ChunkBuilder(1 * KB, stream_id=0, streamlet_id=0, producer_id=7)
    assert builder.try_append(Record(value=f"v{seq}".encode()))
    return builder.build(chunk_seq=seq)


class Driver:
    """One leader's produce stream and the calls its ship loop parked."""

    def __init__(self, cluster):
        self.cluster = cluster
        self.leader = cluster.leader_of(0, 0)
        self.shipper = cluster.shipper(self.leader)
        self.core = cluster.brokers[self.leader]
        self.transport = cluster.transport
        self.outcomes = []  # (first chunk_seq, error) in completion order

    def produce(self, *seqs):
        self.cluster.submit_produce(
            self.leader,
            [chunk(seq) for seq in seqs],
            7,
            lambda _response, error, seq=seqs[0]: self.outcomes.append((seq, error)),
        )

    def flights(self):
        """Parked calls grouped by request, in issue order."""
        groups = {}
        for entry in self.transport.parked:
            groups.setdefault(id(entry[1]), []).append(entry)
        return list(groups.values())

    def ack(self, flight):
        for entry in flight:
            self.transport.release(entry)

    def assert_quiescent(self):
        assert self.shipper.in_flight_batches() == 0
        assert self.shipper.flow.in_flight_bytes == 0
        assert not any(vlog.in_flight for vlog in self.core.manager.vlogs)


class Gate:
    """Parks the first thread through it until the test opens it."""

    def __init__(self):
        self.reached = threading.Event()
        self.opened = threading.Event()

    def __call__(self):
        if not self.reached.is_set():
            self.reached.set()
            assert self.opened.wait(10.0)


def test_an_idle_pump_runs_on_the_appending_thread_with_no_append_lock_held():
    with make_cluster() as cluster:
        d = Driver(cluster)
        service = cluster.broker_service(d.leader)
        held = []
        d.transport.on_replicate = lambda: held.extend(
            key for key, lock in service._locks.items() if lock.locked()
        )
        d.produce(0)
        d.produce(1)
        assert len(d.flights()) == 2 and service._locks
        # One thread here: a locked sub-partition lock would be ours.
        assert held == []
        assert (d.shipper.inline_pumps, d.shipper.thread_pumps) == (2, 0)


@pytest.mark.parametrize("park_at", ["issue", "last-empty-collect"])
def test_a_kick_that_finds_the_pump_busy_returns_at_once_and_is_shipped(park_at):
    """Thread A holds the pump, parked either inside ``_issue`` or after
    the empty collect that would end its turn; the test's thread appends
    and kicks. The kick does not wait, and A — not a further kick — ships
    the reference before it lets the pump go."""
    with make_cluster() as cluster:
        d = Driver(cluster)
        gate = Gate()
        if park_at == "issue":
            d.transport.on_replicate = gate
        else:
            collect = d.core.collect_batches

            def collect_then_park():
                batches = collect()
                if not batches:
                    gate()
                return batches

            d.core.collect_batches = collect_then_park
        a = threading.Thread(target=d.produce, args=(0,))
        a.start()
        assert gate.reached.wait(10.0)
        turns = d.shipper.inline_pumps
        assert turns == 1

        d.produce(1)  # returns: the pump is A's, parked
        assert a.is_alive() and d.shipper.inline_pumps == turns
        assert d.core.pending_chunks() == 2
        shipped_before = len(d.flights())
        assert shipped_before == (0 if park_at == "issue" else 1)

        gate.opened.set()
        a.join(10.0)
        assert not a.is_alive()
        # Nobody kicked again, and chunk 1 is on its way behind chunk 0.
        flights = d.flights()
        assert [len(f[0][1].frames) for f in flights] == [1, 1]
        assert d.shipper.inline_pumps == turns + 1
        assert d.shipper.thread_pumps == 0
        for flight in flights:
            d.ack(flight)
        assert sorted(d.outcomes) == [(0, None), (1, None)]
        d.assert_quiescent()
        assert d.core.pending_chunks() == 0


def test_racing_appenders_lose_no_kick_and_keep_ship_order():
    """8 threads × 250 append+kick rounds on the threaded driver: every
    produce is acked, nothing is left unshipped, and each backup holds
    every producer's chunks in the order they were appended."""
    threads, rounds = 8, 250
    config = KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=64 * KB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=3, vlogs_per_broker=2, pipeline_depth=2
        ),
        chunk_size=1 * KB,
    )
    with ThreadedKeraCluster(config) as cluster:
        cluster.create_stream(0, 2)
        acks = [[] for _ in range(threads)]
        done = threading.Semaphore(0)

        def work(pid):
            streamlet = pid % 2
            leader = cluster.leader_of(0, streamlet)

            def on_complete(_response, error):
                acks[pid].append(error)
                done.release()

            for seq in range(rounds):
                builder = ChunkBuilder(
                    1 * KB, stream_id=0, streamlet_id=streamlet, producer_id=pid
                )
                assert builder.try_append(Record(value=b"p%d-%d" % (pid, seq)))
                cluster.submit_produce(
                    leader, [builder.build(chunk_seq=seq)], pid, on_complete
                )

        workers = [threading.Thread(target=work, args=(pid,)) for pid in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more interleavings per round
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for _ in range(threads * rounds):
            assert done.acquire(timeout=30.0)
        assert acks == [[None] * rounds] * threads

        leaders = {cluster.leader_of(0, streamlet) for streamlet in range(2)}
        for leader in leaders:
            shipper = cluster.shipper(leader)
            assert shipper.error is None
            assert shipper.in_flight_batches() == 0
            assert cluster.brokers[leader].pending_chunks() == 0
            assert shipper.inline_pumps > 0
            for backup in cluster.system.node_ids:
                order = {}
                for _vseg, chunks in cluster.backup_recovery_chunks(backup, leader):
                    for c in chunks:
                        order.setdefault((c.producer_id, c.streamlet_id), []).append(
                            c.chunk_seq
                        )
                for seqs in order.values():
                    assert seqs == list(range(rounds))
        assert cluster.inflight_produce_count() == 0
