"""A ship core on a real broker core, with a shell that parks every call.

:class:`Harness` is the fake shell the core's tests drive: a
:class:`KeraBrokerCore` over metadata-only storage, the
:class:`ShipCore` shipping it, and replicate calls that sit in
``parked`` until the test answers them — in any order, with or without
an error. No threads, no clocks: every schedule replays exactly.
"""

from contextlib import nullcontext

from repro.common.errors import ReplicationError
from repro.common.units import KB
from repro.kera.broker import KeraBrokerCore
from repro.kera.messages import ProduceRequest
from repro.replication.config import ReplicationConfig
from repro.replication.ship_core import CreditWindow, ShipCore
from repro.storage.config import StorageConfig
from repro.wire.chunk import Chunk

PRODUCER = 7


class Injected(Exception):
    """A failure the test injected (a refused call, a dead node, no credit)."""


class Runaway(BaseException):
    """The core kept sending: not an error it may catch and carry on from."""


class Harness:
    def __init__(
        self,
        *,
        nodes=5,
        replication_factor=4,
        vlogs=1,
        streamlets=1,
        pipeline_depth=4,
        window=0,
        max_batch_chunks=0,
    ):
        config = ReplicationConfig(
            replication_factor=replication_factor,
            vlogs_per_broker=vlogs,
            pipeline_depth=pipeline_depth,
            ship_window_bytes=window,
            max_batch_chunks=max_batch_chunks,
        )
        self.broker = KeraBrokerCore(
            broker_id=0,
            nodes=list(range(nodes)),
            storage_config=StorageConfig(materialize=False, segment_size=64 * KB),
            replication_config=config,
            on_request_complete=self._completed,
        )
        self.broker.create_stream(0, range(streamlets))
        self.flow = CreditWindow(window)
        self.core = ShipCore(self.broker, self, self.flow, nullcontext())
        self.parked = []  # (flight, backup), in send order
        self.dead = set()  # sends to these raise
        self.claimed = set()  # a failover plane takes these
        self.answer_inline = False  # answer each call inside its send
        self.wakes = 0
        self.send_limit = 10_000
        self.outcomes = []  # (first chunk_seq, error), in resolution order
        self.ship_errors = []  # what fail_produces was handed
        self._pending = {}  # request id -> first chunk_seq
        self._failed = set()  # request ids failed before the broker completed them
        self._completed_ids = set()
        self._next_id = 0

    # -- the test's side ----------------------------------------------------------

    def produce(self, *seqs, streamlet=0):
        """Append chunks ``seqs`` of ``streamlet`` and kick."""
        request = ProduceRequest(
            request_id=self._next_id,
            producer_id=PRODUCER,
            chunks=[
                Chunk.meta(
                    stream_id=0,
                    streamlet_id=streamlet,
                    producer_id=PRODUCER,
                    chunk_seq=seq,
                    record_count=1,
                    payload_len=100,
                )
                for seq in seqs
            ],
        )
        self._next_id += 1
        self._pending[request.request_id] = seqs[0]
        if not self.broker.handle_produce(request).pending:
            self._resolve(request.request_id, None)
        self.core.pump()

    def flights(self):
        """Parked calls grouped by flight, in issue order."""
        groups = {}
        for entry in self.parked:
            groups.setdefault(entry[0], []).append(entry)
        return list(groups.values())

    def ack(self, entries, error=None):
        for entry in list(entries):
            self.parked.remove(entry)
            self.core.resolve(entry[0], entry[1], error)

    def refs_in_flight(self):
        vlog = self.broker.manager.vlogs[0]
        return [ref for batch in vlog._inflight.values() for ref in batch.refs]

    def durable_seqs(self):
        vsegs = self.broker.manager.vlogs[0].vsegs
        return [r.stored.chunk_seq for v in vsegs for r in v.refs[: v.durable_index]]

    def unresolved(self):
        return dict(self._pending)

    def assert_quiescent(self):
        assert self.core.in_flight_batches() == 0, "a flight is left in the table"
        assert self.flow.in_flight_bytes == 0, "credit is left taken"
        # A backup owes answers exactly while calls to it are parked.
        owing = self.core.backup_acks()[1]
        assert owing == {b for _, b in self.parked}, f"owed calls left: {owing}"
        vlogs = self.broker.manager.vlogs
        assert not any(v.in_flight for v in vlogs), "a virtual log holds an issued batch"

    # -- the core's shell -----------------------------------------------------------

    def send(self, flight):
        self.send_limit -= 1
        if self.send_limit < 0:
            raise Runaway("the core re-sends without end")
        nbytes = flight.batch.payload_bytes
        if not self.flow.try_acquire(nbytes):
            raise Injected("no credit before the drain deadline")
        flight.nbytes = nbytes
        for backup in flight.batch.backups:
            self.core.owe(flight, backup)
            if backup in self.dead:
                raise Injected(f"send to dead node {backup}")
            if self.answer_inline:
                self.core.resolve(flight, backup, None)
            else:
                self.parked.append((flight, backup))

    def wake(self):
        self.wakes += 1

    def claim_backup(self, node, error):
        return node in self.claimed

    def fail_produces(self, error):
        self.ship_errors.append(error)
        failure = ReplicationError(f"replication from broker 0 failed: {error!r}")
        for request_id in list(self._pending):
            self._failed.add(request_id)
            self._resolve(request_id, failure)

    def turn_started(self):
        pass

    # -- produce bookkeeping --------------------------------------------------------

    def _completed(self, request_id):
        assert request_id not in self._completed_ids, f"request {request_id} completed twice"
        self._completed_ids.add(request_id)
        if request_id in self._pending:
            self._resolve(request_id, None)
        else:
            # Durable after its produce failed: a retry would ack it.
            assert request_id in self._failed, f"completion of unknown request {request_id}"

    def _resolve(self, request_id, error):
        self.outcomes.append((self._pending.pop(request_id), error))
