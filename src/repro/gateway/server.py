"""The asyncio front door: many client connections, one cluster.

One event loop on a dedicated thread serves every connection. Produce is
**completion-driven**: the loop decodes and enrolls the request with the
:class:`_ProduceCoalescer`, which merges small chunks from many
connections heading to the same broker into one ``ProduceRequest``,
submits it via :meth:`LiveKeraCluster.submit_produce`, and resolves each
covered request's future back on the loop (``call_soon_threadsafe``) when
the broker's completion callback fires — thousands of produces can be in
flight with **zero threads parked on an ack**. A lane's flush runs to
completion on one executor thread — batched CRC, append, the ship loop's
pump, the sends to the backups — and stays off the loop because it can
block on replication credit or a full pipe. Fetch is **planned on the
loop**: the broker cores live in this process and plan under a short
mutex, so an empty response, or one made only of cache hits, is planned,
encoded and written without leaving the loop thread; a plan that must
*admit* frames (the boundary CRC of a cache miss) does that on a worker
and comes back to the loop to write. A fetch that finds nothing
and carries ``max_wait_ms`` **parks** — an ``asyncio`` future, no thread
— until a chunk of one of its streamlets turns durable (the core's
watcher registry wakes it), its deadline passes, a leader it waits on is
fenced, or its connection closes; then it re-plans once and answers.
Only create-stream and the coalescer's flushes still use the executor
pool. Concurrency shape per connection:

* the **reader coroutine** pulls frames and spawns one task per request —
  per-connection pipelining: a slow produce does not block the fetch
  behind it, responses correlate by request id, not arrival order;
* the **write side** makes one transport call per response:
  :func:`~repro.wire.netframe.write_frame_async` hands the header and
  every part to ``StreamWriter.writelines`` at once, so a response
  costs one ``send()`` while the transport's buffer is empty, however
  many parts it has (CPython 3.11 joins them into one ``bytes`` first,
  3.12+ sends them as one vectored ``sendmsg``). Slow responses write
  and drain under a per-connection lock, so drain backpressure reaches
  the writer task; a produce ack is written from a done callback with
  no await, so it cannot split another frame either.

Fetch responses are served through the cluster's one read path: the
chunk-frame memoryviews coming out of the shared fan-out cache go to
the transport with the response's small headers — many consumer
connections polling the same hot chunks hit one cached, CRC-validated
frame, and the gateway never decodes a record.

Failure containment: a request that raises server-side returns a
``GW_ERROR`` frame carrying the message; a connection that sends garbage
(bad magic, oversized length) is dropped — a byte stream cannot resync —
without touching any other connection.
"""

from __future__ import annotations

import asyncio
import struct
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from typing import Any

from repro.common.checksum import crc32c_many
from repro.common.errors import ChecksumError, RpcError
from repro.wire.netframe import (
    DEFAULT_MAX_FRAME_BYTES,
    FrameProtocolError,
    read_frame_async,
    write_frame_async,
)
from repro.gateway import protocol
from repro.kera.live import LiveKeraCluster
from repro.kera.messages import FetchPosition, FetchResponse, ProduceResponse
from repro.wire.chunk import Chunk

#: Threads for blocking cluster calls (create-stream), lane flushes and
#: fetch cache admissions.
_EXECUTOR_WORKERS = 16

#: Longest a fetch may park, whatever ``max_wait_ms`` it asked for.
_MAX_FETCH_WAIT_S = 30.0

#: How a parked fetch was resolved.
_WOKEN, _EXPIRED, _DROPPED = "woken", "expired", "dropped"

#: Monotonic counters a gateway maintains; reads aggregate across shards.
_STAT_FIELDS = (
    "connections_accepted",
    "connections_open",
    "requests_served",
    "produce_requests",
    "fetch_requests",
    "errors_returned",
    "chunks_in",
    "chunks_out",
    "produce_batches",
    "produce_batched_chunks",
    "fetches_parked",
    "fetch_wakeups",
    "fetch_timeouts",
)


class _StatShard:
    """One thread's private counter set — bumped without any lock."""

    __slots__ = _STAT_FIELDS

    def __init__(self) -> None:
        for name in _STAT_FIELDS:
            setattr(self, name, 0)


class GatewayStats:
    """Sharded gateway counters.

    ``bump`` writes a per-thread shard (``threading.local``) with no
    locking at all — the loop and the executor threads never contend —
    and attribute reads aggregate across shards. Counters are monotonic
    per shard, so a read concurrent with writers is just slightly stale,
    never torn; a shard outlives its thread (the registry keeps a strong
    reference), so counts are never lost. ``connections_open`` and
    ``fetches_parked`` are gauges kept the same way (+1/−1); every fetch
    that parked ends as one ``fetch_wakeups`` (durability or fence) or one
    ``fetch_timeouts``, unless its connection went away first.

    The one genuinely shared datum — the ``inflight_produces`` gauge for
    the completion-driven produce path — goes up and down, so it keeps a
    dedicated lock; it is touched twice per produce, not per bump.
    """

    def __init__(self) -> None:
        self._shards_lock = threading.Lock()
        self._shards: list[_StatShard] = []  # guarded-by: _shards_lock
        self._local = threading.local()
        self._gauge_lock = threading.Lock()
        self._inflight = 0  # guarded-by: _gauge_lock
        self._inflight_peak = 0  # guarded-by: _gauge_lock

    def _shard(self) -> _StatShard:
        shard = getattr(self._local, "shard", None)
        if shard is None:
            shard = _StatShard()
            with self._shards_lock:
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    def bump(self, **deltas: int) -> None:
        shard = self._shard()
        for name, delta in deltas.items():
            setattr(shard, name, getattr(shard, name) + delta)

    def __getattr__(self, name: str) -> int:
        # Only fires for names not found normally — i.e. the aggregated
        # counter reads; real instance attributes never reach here.
        if name in _STAT_FIELDS:
            with self._shards_lock:
                shards = list(self._shards)
            return sum(getattr(shard, name) for shard in shards)
        raise AttributeError(name)

    # -- inflight gauge -------------------------------------------------------

    def produce_begin(self) -> None:
        with self._gauge_lock:
            self._inflight += 1
            if self._inflight > self._inflight_peak:
                self._inflight_peak = self._inflight

    def produce_end(self) -> None:
        with self._gauge_lock:
            self._inflight -= 1

    @property
    def inflight_produces(self) -> int:
        """Gateway produce requests accepted but not yet resolved."""
        with self._gauge_lock:
            return self._inflight

    @property
    def inflight_produces_peak(self) -> int:
        """High-water mark of :attr:`inflight_produces`."""
        with self._gauge_lock:
            return self._inflight_peak


class _GatewayProduce:
    """One client produce request riding the coalesced async path."""

    __slots__ = ("request_id", "future", "assignments", "remaining", "error")

    def __init__(
        self, request_id: int, future: "asyncio.Future[list[Any]]", nchunks: int
    ) -> None:
        self.request_id = request_id
        self.future = future
        self.assignments: list[Any] = [None] * nchunks
        self.remaining = 0  # broker groups still outstanding
        self.error: BaseException | None = None


class _Lane:
    """Per-target-broker coalescing state."""

    __slots__ = ("slices", "busy")

    def __init__(self) -> None:
        # Each slice: (greq, producer_id, [(orig_index, chunk), ...]).
        self.slices: list[tuple[_GatewayProduce, int, list[tuple[int, Chunk]]]] = []
        self.busy = False  # append token: a thread is in _flush for this lane


class _ProduceCoalescer:
    """Merges produce chunks from many connections per target broker.

    Enrollment happens synchronously on the loop thread (so a pipelining
    producer's requests enroll in frame order); each lane holds at most
    one merged :class:`ProduceRequest` *appending and shipping* at a time
    — the thread that holds the lane's token submits the next merge only
    once ``submit_produce`` returned from the previous one's append and
    pump turn, which preserves per-streamlet ``chunk_seq`` order at the
    broker and keeps at most one pool thread per lane in a replication
    credit wait — while replication acks for earlier merges still
    overlap. No linger: an idle lane ships at once, a busy one batches
    what arrives while its thread is in ``submit_produce``.
    Completion fans back out: every covered gateway request is acked (its
    future resolved on the loop) when its covering broker response lands.
    """

    def __init__(self, server: "GatewayServer") -> None:
        self._server = server
        self._lock = threading.Lock()
        self._lanes: dict[int, _Lane] = {}  # guarded-by: _lock

    # -- loop thread ----------------------------------------------------------

    def enroll(
        self, greq: _GatewayProduce, chunks: list[Chunk], producer_id: int
    ) -> None:
        cluster = self._server.cluster
        by_broker: dict[int, list[tuple[int, Chunk]]] = defaultdict(list)
        for index, chunk in enumerate(chunks):
            leader = cluster.leader_of(chunk.stream_id, chunk.streamlet_id)
            by_broker[leader].append((index, chunk))
        greq.remaining = len(by_broker)
        flush_now: list[int] = []
        with self._lock:
            for broker_id, items in by_broker.items():
                lane = self._lanes.get(broker_id)
                if lane is None:
                    lane = self._lanes[broker_id] = _Lane()
                lane.slices.append((greq, producer_id, items))
                if not lane.busy:  # else: the token's holder takes it next
                    lane.busy = True
                    flush_now.append(broker_id)
        for broker_id in flush_now:
            self._server._executor.submit(self._flush, broker_id)

    # -- executor threads -----------------------------------------------------

    def _flush(self, broker_id: int) -> None:
        """Holding the lane's token (``busy``): merge everything pending
        for one broker into one request and verify, append, pump and send
        it here (may block on replication credit) — then whatever arrived
        meanwhile, until the lane is empty and the token frees."""
        while True:
            with self._lock:
                lane = self._lanes[broker_id]
                slices, lane.slices = lane.slices, []
                if not slices:
                    lane.busy = False
                    return
            slices = self._verify_slices(slices)
            if not slices:
                continue  # every pending slice failed verification
            merged: list[Chunk] = []
            covers: list[tuple[_GatewayProduce, int, list[int]]] = []
            for greq, _producer_id, items in slices:
                base = len(merged)
                merged.extend(chunk for _, chunk in items)
                covers.append((greq, base, [index for index, _ in items]))
            self._server.stats.bump(
                produce_batches=1, produce_batched_chunks=len(merged)
            )
            # The merged request carries the first slice's producer id;
            # dedup at the broker keys off each *chunk's* producer id, so
            # merging across producers is safe.
            self._server.cluster.submit_produce(
                broker_id,
                merged,
                slices[0][1],
                lambda response, error, covers=covers: self._completed(
                    covers, response, error
                ),
            )

    def _verify_slices(
        self,
        slices: list[tuple[_GatewayProduce, int, list[tuple[int, Chunk]]]],
    ) -> list[tuple[_GatewayProduce, int, list[tuple[int, Chunk]]]]:
        """Pay the trust boundary's deferred CRC re-validation, batched.

        Produce frames decode on the loop thread with ``verify=False`` so
        the loop never burns checksum time; the chunks arrive here still
        ``verified=False`` and one vectorized :func:`crc32c_many` pass
        over the whole merge window settles the debt. A slice with a
        corrupt chunk resolves its gateway request with
        :class:`ChecksumError` and drops out of the merge — the other
        connections' slices ship unaffected.
        """
        unverified = [
            chunk
            for _, _, items in slices
            for _, chunk in items
            if chunk.payload is not None and not chunk.verified
        ]
        if not unverified:
            return slices
        actuals = crc32c_many([chunk.payload for chunk in unverified])
        bad: dict[int, int] = {}
        for chunk, actual in zip(unverified, actuals):
            if actual == chunk.payload_crc:
                chunk.verified = True
            else:
                bad[id(chunk)] = actual
        if not bad:
            return slices
        good: list[tuple[_GatewayProduce, int, list[tuple[int, Chunk]]]] = []
        for entry in slices:
            greq, _producer_id, items = entry
            corrupt = next((c for _, c in items if id(c) in bad), None)
            if corrupt is None:
                good.append(entry)
                continue
            self._completed(
                [(greq, 0, [])],
                None,
                ChecksumError(
                    corrupt.payload_crc,
                    bad[id(corrupt)],
                    f"produce chunk (stream {corrupt.stream_id}, "
                    f"streamlet {corrupt.streamlet_id})",
                ),
            )
        return good

    # -- transport / shipper threads ------------------------------------------

    def _completed(
        self,
        covers: list[tuple[_GatewayProduce, int, list[int]]],
        response: ProduceResponse | None,
        error: BaseException | None,
    ) -> None:
        """Fan a broker response (or failure) out to covered requests."""
        resolved: list[_GatewayProduce] = []
        with self._lock:
            for greq, base, indices in covers:
                if error is not None or response is None:
                    if greq.error is None:
                        greq.error = error or RpcError("produce returned no response")
                else:
                    for offset, orig_index in enumerate(indices):
                        greq.assignments[orig_index] = response.assignments[
                            base + offset
                        ]
                greq.remaining -= 1
                if greq.remaining == 0:
                    resolved.append(greq)
        loop = self._server._loop
        for greq in resolved:
            try:
                assert loop is not None
                loop.call_soon_threadsafe(self._server._resolve_produce, greq)
            except RuntimeError:  # pragma: no cover - loop closed mid-shutdown
                pass


class _Connection:
    """What the requests of one client connection share."""

    __slots__ = ("handler", "writer", "write_lock", "tasks", "parked")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.handler = asyncio.current_task()
        self.writer = writer
        self.write_lock = asyncio.Lock()
        self.tasks: set[asyncio.Task[None]] = set()
        #: Futures of this connection's parked fetches.
        self.parked: set["asyncio.Future[str]"] = set()

    def drop_parked(self) -> None:
        """Resolve every parked fetch unanswered: nobody is left to read
        the reply, and a dead connection must not wait out ``max_wait``."""
        for waiter in self.parked:
            _resolve(waiter, _DROPPED)


class GatewayServer:
    """Fronts a live cluster with an asyncio TCP endpoint."""

    def __init__(
        self,
        cluster: LiveKeraCluster,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES,
    ) -> None:
        self.cluster = cluster
        self.host = host
        self.port = port
        self.max_frame_bytes = max_frame_bytes
        self.stats = GatewayStats()
        self._executor = ThreadPoolExecutor(
            max_workers=_EXECUTOR_WORKERS, thread_name_prefix="gateway-call"
        )
        self._coalescer = _ProduceCoalescer(self)
        self._connections: set[_Connection] = set()  # loop thread only
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.Server | None = None
        self._address: tuple[str, int] | None = None
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._startup_error: BaseException | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind and serve on the loop thread; returns the bound address."""
        if self._thread is not None:
            raise RpcError("gateway already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="gateway-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(30.0):
            raise RpcError("gateway failed to start within 30s")
        if self._startup_error is not None:
            raise RpcError(f"gateway failed to bind: {self._startup_error}")
        assert self._address is not None
        return self._address

    def shutdown(self) -> None:
        loop = self._loop
        if loop is not None and self._stop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already closing
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._executor.shutdown(wait=False)

    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RpcError("gateway not started")
        return self._address

    def __enter__(self) -> "GatewayServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.shutdown()

    def _run_loop(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, reuse_address=True
            )
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            return
        sockname = self._server.sockets[0].getsockname()
        self._address = (sockname[0], sockname[1])
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            self._server.close()
            open_connections = list(self._connections)
            for conn in open_connections:
                # Parked fetches must not hold shutdown up; closing the
                # transport ends the reader coroutine with EOF.
                conn.drop_parked()
                conn.writer.close()
            if open_connections:
                await asyncio.wait([c.handler for c in open_connections], timeout=2.0)
            await self._server.wait_closed()

    # -- per-connection ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.stats.bump(connections_accepted=1, connections_open=1)
        loop = asyncio.get_running_loop()
        conn = _Connection(writer)
        self._connections.add(conn)
        try:
            while True:
                record = await read_frame_async(
                    reader, max_frame_bytes=self.max_frame_bytes
                )
                if record is None:
                    break  # client closed cleanly
                kind, payload = record
                if kind == protocol.GW_PRODUCE:
                    # Hot path: no task per frame — enroll inline (frame
                    # receipt order IS append order) and answer from the
                    # future's done callback.
                    self._produce_fast(payload, writer)
                    continue
                # One task per request: pipelining. The payload is owned
                # bytes (readexactly), so tasks never alias a shared
                # receive buffer.
                task = loop.create_task(self._serve_request(kind, payload, conn))
                conn.tasks.add(task)
                task.add_done_callback(conn.tasks.discard)
        except (FrameProtocolError, ConnectionError, asyncio.IncompleteReadError):
            pass  # garbage or mid-frame drop: this connection only
        finally:
            self._connections.discard(conn)
            # Parked fetches go first: the gather below must not hold a
            # dead connection for their max_wait.
            conn.drop_parked()
            if conn.tasks:
                await asyncio.gather(*conn.tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - peer gone
                pass
            except asyncio.CancelledError:
                # Loop teardown cancelled us mid-close; the transport is
                # already closing, so finish quietly instead of ending as
                # a cancelled task (streams' connection_made callback
                # re-raises a cancelled task's state as loop noise).
                pass
            self.stats.bump(connections_open=-1)

    async def _serve_request(self, kind: int, payload: bytes, conn: _Connection) -> None:
        try:
            request_id = protocol.peek_request_id(payload)
        except struct.error:
            return  # not even a request id: nothing to address a reply to
        try:
            if kind == protocol.GW_FETCH:
                reply = await self._do_fetch(payload, conn)
                if reply is None:
                    return  # dropped while parked: the connection is gone
                out_kind, parts = reply
            elif kind == protocol.GW_CREATE_STREAM:
                out_kind, parts = await self._on_worker(self._do_create_stream, payload)
            elif kind == protocol.GW_META:
                out_kind, parts = self._do_meta(payload)
            else:
                raise protocol.GatewayError(f"unknown request kind {kind}")
        except BaseException as exc:  # noqa: BLE001 - relayed to the client
            self.stats.bump(errors_returned=1)
            out_kind, parts = protocol.GW_ERROR, protocol.encode_error(request_id, exc)
        self.stats.bump(requests_served=1)
        async with conn.write_lock:
            # The frame goes to the transport in one call; the drain
            # inside the lock applies the transport's backpressure to
            # this response's writer task.
            write_frame_async(conn.writer, out_kind, parts)
            await conn.writer.drain()

    def _on_worker(self, fn: Any, *args: Any) -> "asyncio.Future[Any]":
        """Run blocking or CPU-heavy ``fn`` on the executor pool; await
        the result from the loop."""
        return asyncio.wrap_future(self._executor.submit(fn, *args))

    # -- produce path (completion-driven) -------------------------------------

    def _produce_fast(self, payload: bytes, writer: asyncio.StreamWriter) -> None:
        """Loop-side produce path: no task, no write lock.

        The frame handler calls this synchronously on frame receipt, so
        enrollment (and therefore append order) still follows wire order.
        The response is written from the future's done callback — one
        synchronous ``write_frame_async``, one transport call, so frames
        never interleave with the locked writers used by the slow paths.
        Drain is skipped: produce acks are tens of bytes and the client
        is, by construction, reading acks.
        """
        try:
            request_id = protocol.peek_request_id(payload)
        except struct.error:
            return  # not even a request id: nothing to address a reply to
        try:
            future = self._submit_produce(payload)
        except BaseException as exc:  # noqa: BLE001 - relayed to the client
            self.stats.bump(errors_returned=1, requests_served=1)
            if not writer.is_closing():
                write_frame_async(
                    writer, protocol.GW_ERROR, protocol.encode_error(request_id, exc)
                )
            return

        def _respond(fut: "asyncio.Future[list[Any]]") -> None:
            try:
                assignments = fut.result()
            except BaseException as exc:  # noqa: BLE001 - relayed to the client
                self.stats.bump(errors_returned=1)
                out_kind, parts = (
                    protocol.GW_ERROR,
                    protocol.encode_error(request_id, exc),
                )
            else:
                out_kind = protocol.GW_PRODUCE_OK
                parts = protocol.encode_produce_ok(request_id, assignments)
            self.stats.bump(requests_served=1)
            if writer.is_closing():
                return  # connection torn down while the ack was pending
            try:
                write_frame_async(writer, out_kind, parts)
            except (ConnectionError, RuntimeError):  # pragma: no cover - peer gone
                pass

        future.add_done_callback(_respond)

    def _submit_produce(self, payload: bytes) -> "asyncio.Future[list[Any]]":
        """Decode, count, and enroll one produce; returns the future its
        assignments resolve on. Loop thread, synchronous."""
        # Structural decode only: CRC re-validation is deferred to the
        # coalescer's executor flush (one batched pass per merge window)
        # so the loop thread stays free to pull the next frame.
        request_id, producer_id, chunks = protocol.decode_produce(payload, verify=False)
        self.stats.bump(produce_requests=1, chunks_in=len(chunks))
        self.stats.produce_begin()
        loop = self._loop
        assert loop is not None
        greq = _GatewayProduce(request_id, loop.create_future(), len(chunks))
        self._coalescer.enroll(greq, chunks, producer_id)
        return greq.future

    def _resolve_produce(self, greq: _GatewayProduce) -> None:
        """Resolve one gateway produce on the loop thread."""
        self.stats.produce_end()
        if greq.future.cancelled():  # pragma: no cover - connection torn down
            return
        if greq.error is not None:
            greq.future.set_exception(greq.error)
        else:
            greq.future.set_result(greq.assignments)

    # -- fetch path (planned on the loop, parks without a thread) ---------------

    async def _do_fetch(
        self, payload: bytes, conn: _Connection
    ) -> tuple[int, list[Any]] | None:
        request_id, consumer_id, max_chunks, max_wait_ms, positions = (
            protocol.decode_fetch(payload)
        )
        self.stats.bump(fetch_requests=1)
        wait = min(max_wait_ms / 1000.0, _MAX_FETCH_WAIT_S)
        # The waiter doubles as the watch token: if every leader plans
        # empty, each core has registered it in the same critical section
        # as its plan, so no chunk turns durable unseen before we park.
        waiter: "asyncio.Future[str] | None" = None
        if wait > 0:
            waiter = asyncio.get_running_loop().create_future()
        try:
            responses = self._plan_fetch(consumer_id, max_chunks, positions, waiter)
            if waiter is not None and not any(r.chunk_count for r in responses):
                if await self._park(waiter, wait, conn) == _DROPPED:
                    return None
                responses = self._plan_fetch(consumer_id, max_chunks, positions, None)
        finally:
            if waiter is not None:
                self.cluster.unwatch(waiter)
        if any(r.admit is not None for r in responses):
            responses = await self._on_worker(_admit, responses)
        entries = []
        nchunks = 0
        for response in responses:
            for entry in response.entries:
                frames = [chunk.frame for chunk in entry.chunks]  # type: ignore[union-attr]
                nchunks += len(frames)
                entries.append((entry.position, entry.next_position, frames))
        self.stats.bump(chunks_out=nchunks)
        return protocol.GW_FETCH_OK, protocol.encode_fetch_ok(request_id, entries)

    def _plan_fetch(
        self,
        consumer_id: int,
        max_chunks: int,
        positions: list[FetchPosition],
        waiter: "asyncio.Future[str] | None",
    ) -> list[FetchResponse]:
        """One planning pass over the leaders, on the loop thread; cache
        misses come back unserved (``response.admit``)."""
        return self.cluster.fetch(
            positions,
            consumer_id=consumer_id,
            max_chunks_per_entry=max_chunks,
            defer_admission=True,
            watch=None if waiter is None else (self._on_durable, waiter),
        )

    async def _park(
        self, waiter: "asyncio.Future[str]", wait: float, conn: _Connection
    ) -> str:
        """Hold a fetch that found nothing until its waiter resolves: a
        durability (or fence) notification, the deadline, or the
        connection closing. Returns which."""
        deadline = asyncio.get_running_loop().call_later(
            wait, _resolve, waiter, _EXPIRED
        )
        conn.parked.add(waiter)
        self.stats.bump(fetches_parked=1)
        try:
            outcome = await waiter
        finally:
            deadline.cancel()
            conn.parked.discard(waiter)
            self.stats.bump(fetches_parked=-1)
        if outcome == _WOKEN:
            self.stats.bump(fetch_wakeups=1)
        elif outcome == _EXPIRED:
            self.stats.bump(fetch_timeouts=1)
        return outcome

    def _on_durable(self, waiters: list[Any]) -> None:
        """The cores' watch notification (shipper / transport threads):
        one loop callback for everything a completed batch woke."""
        loop = self._loop
        assert loop is not None
        try:
            loop.call_soon_threadsafe(_resolve_all, waiters)
        except RuntimeError:  # loop closed mid-shutdown: nobody is parked
            pass

    # -- request handlers -----------------------------------------------------

    def _do_create_stream(self, payload: bytes) -> tuple[int, list[Any]]:
        request_id, stream_id, num_streamlets = protocol.decode_create_stream(payload)
        self.cluster.create_stream(stream_id, num_streamlets)
        return protocol.GW_OK, protocol.encode_ok(request_id)

    def _do_meta(self, payload: bytes) -> tuple[int, list[Any]]:
        request_id, stream_id = protocol.decode_meta(payload)
        metadata = self.cluster.coordinator.stream(stream_id)
        config = self.cluster.config
        return protocol.GW_META_OK, protocol.encode_meta_ok(
            request_id,
            config.storage.q_active_groups,
            config.chunk_size,
            list(metadata.streamlet_ids),
        )


def _resolve(waiter: "asyncio.Future[str]", outcome: str) -> None:
    if not waiter.done():
        waiter.set_result(outcome)


def _resolve_all(waiters: list["asyncio.Future[str]"]) -> None:
    for waiter in waiters:
        _resolve(waiter, _WOKEN)


def _admit(responses: list[FetchResponse]) -> list[FetchResponse]:
    """Worker side of a fetch with cache misses: admit the deferred plans."""
    return [r if r.admit is None else r.admit() for r in responses]
