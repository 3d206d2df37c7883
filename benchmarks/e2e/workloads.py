"""The four workloads of the e2e benchmark.

``run(spec)`` runs one workload and returns a :class:`Result` carrying the
end-to-end metrics (each marked as a *main* or a *fill* cell, see
``cells.MAIN_CELLS``), the informational values, the per-layer metrics of a
traced run, operation counts and the verdict of the output check.
``README.md`` says what each workload is for; ``cells.py`` holds the
matrix of which workload measures which metric.

Everything is on the wall clock, except that phases bound by the load
generator's own thread are put on its measured speed
(``harness.MachineSpeed``); the repeatability rules are ``harness.Rules``.
"""

from __future__ import annotations

import asyncio
import gc
import os
import statistics
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from cells import FILL_CELLS, MAIN_CELLS
from harness import (
    RECORD_SIZE,
    VALUE_SIZE,
    BenchFailure,
    MachineSpeed,
    Rules,
    Samples,
    Slices,
    SutProcess,
    calib_mops,
    rss_bytes,
    tree_cpu,
)

from repro.common.checksum import crc32c_concat
from repro.common.errors import ReproError
from repro.common.units import KB, MB
from repro.gateway import AsyncConsumer, AsyncGatewayClient, AsyncProducer
from repro.kera import InprocKeraCluster, KeraConfig, KeraConsumer
from repro.replication.config import ReplicationConfig
from repro.storage.config import StorageConfig
from repro.wire.chunk import ChunkBuilder
from repro.wire.record import RECORD_FIXED_HEADER, encode_keyless_values_with_crcs

WORKLOADS = ("core-inproc", "gw-ingest", "gw-tail", "gw-scan")

#: Every record value starts with (producer id, per-producer index, due
#: instant); the rest is seeded filler. The output check reads them back.
_HEAD = struct.Struct("<IQd")
_FILLER = VALUE_SIZE - _HEAD.size
_FILLERS = 1024

#: Times a workload's set-up is run; ``setup_s`` is the median (the
#: driver's contract: "set up several times in a run and report the median").
SETUP_REPEATS = 3
WARMUP_RECORDS = 20_000
WARMUP_STREAM = 9
MAIN_STREAM = 0

#: Shortest timed phase a number may come from.
GATEWAY_PHASE_S = 20.0
CORE_PHASE_S = 8.0
#: core-inproc runs its two phases in this many rounds, each on a fresh
#: cluster: 8 s of phase A on one cluster would hold ~3 GB.
CORE_ROUNDS = 4
#: Share of core-inproc's ``--seconds`` that phase A gets (phase B reads
#: everything back, which takes about three times as long).
CORE_PRODUCE_SHARE = 0.4

#: gw-ingest reads the SUT's memory when this many records of the main
#: phase are acked (30 MB of user bytes; a third of the phase).
INGEST_MEMORY_RECORDS = 300_000
#: core-inproc reads its memory when this many records of round 1 are
#: produced, and again when as many are read back (30 MB of user bytes; a
#: third of the round).
CORE_MEMORY_RECORDS = 300_000

#: 32 MB: fits the 64 MB/broker fan-out cache.
SCAN_RECORDS = 320_000
#: A slice of a read is the fetch rounds it takes to deliver this many
#: records (two full rounds of a scan; rounds shrink where cursors cross
#: group ends, so single rounds are not equal work).
READ_SLICE_RECORDS = 10_240

#: Share of a traced run's main phase that runs with the tracer off, as
#: the reference rate ``trace.overhead_frac`` is measured against.
REFERENCE_SHARE = 0.3

#: Failures a request may raise without it being a harness bug.
REQUEST_ERRORS = (ReproError, ConnectionError, asyncio.TimeoutError)


@dataclass
class RunSpec:
    workload: str
    seed: int = 1
    seconds: float = GATEWAY_PHASE_S
    trace: bool = False
    #: Shrinks the fixed-size parts (preload, warm-up, set-up repeats) and
    #: lifts the rules, for the smoke test; its numbers mean nothing.
    smoke: bool = False
    #: Test hook: withhold one consumed record from the output check.
    drop_record: bool = False

    @property
    def rules(self) -> Rules:
        return Rules(strict=not (self.smoke or self.trace))

    def slices(self, units: int) -> Slices:
        """Equal-work slices of ``units`` (an eighth of that in a smoke
        run, whose phases are too short for full ones)."""
        return Slices(units // 8 if self.smoke else units)


@dataclass
class Result:
    workload: str
    #: Held against the main cells; a fill cell only states its sample count.
    rules: Rules
    #: name -> (value, samples)
    metrics: dict[str, tuple[float, int]] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = False
    errors: list[str] = field(default_factory=list)
    config: dict = field(default_factory=dict)

    def source(self, name: str) -> str:
        if name in MAIN_CELLS[self.workload]:
            return "main"
        return f"fill: {FILL_CELLS[self.workload][name]}"

    def rules_for(self, name: str) -> Rules:
        return self.rules if name in MAIN_CELLS[self.workload] else Rules(strict=False)

    def put(self, name: str, value: float, samples: int) -> None:
        self.metrics[name] = (float(value), int(samples))

    # ``slowdown`` (MachineSpeed) is given by phases bound by the load
    # generator's own thread: their durations are divided by it, and the
    # wall-clock value is printed beside as ``loadgen.wall_<metric>``.

    def _put_timed(self, name: str, wall: float, samples: int, factor: float) -> float:
        self.put(name, wall * factor, samples)
        if factor != 1.0:
            self.info[f"loadgen.wall_{name}"] = wall
        return wall * factor

    def put_rate(self, name: str, slices: Slices, slowdown: float = 1.0) -> float:
        rate = slices.rate(self.rules_for(name), f"{self.workload}/{name}")
        return self._put_timed(name, rate, slices.n, slowdown)

    def put_latency(
        self, stem: str, samples: Samples, slowdown: float = 1.0, *, ages: bool = False
    ) -> None:
        """``<stem>_p50_ms`` and ``<stem>_p90_ms``. Ages are set by the
        phase lengths, not by bursts: the plain quantile of the phase."""
        for q, name in ((0.50, f"{stem}_p50_ms"), (0.90, f"{stem}_p90_ms")):
            if ages:
                value = samples.whole_ms(q)
            else:
                value = samples.ms(q, self.rules_for(name), f"{self.workload}/{name}")
            self._put_timed(name, value, samples.n, 1 / slowdown)

    def put_cpu(self, cpu_s: float, records: int, slowdown: float = 1.0) -> None:
        self.rules.cpu(f"{self.workload}/cpu_s_per_mrec", cpu_s)
        self._put_timed("cpu_s_per_mrec", cpu_s / (records / 1e6), 1, 1 / slowdown)
        self.info["loadgen.cpu_s"] = cpu_s

    def put_memory(self, grown: int, user_bytes: int) -> None:
        name = "mem_bytes_per_user_byte"
        self.rules_for(name).volume(f"{self.workload}/{name}", user_bytes)
        self.put(name, grown / user_bytes, 1)
        self.info["loadgen.rss_grown_mb"] = grown / 1e6
        self.info["loadgen.user_mb"] = user_bytes / 1e6

    def put_tail_info(self, stem: str, samples: Samples) -> None:
        self.info[f"loadgen.{stem}_p99_ms"] = samples.whole_ms(0.99)
        self.info[f"loadgen.{stem}_max_ms"] = samples.whole_ms(1.0)


# -- seeded inputs and the output check -------------------------------------------


class Payloads:
    """Record values and streamlet orders made from ``--seed``."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.fillers = self.rng.integers(0, 256, (_FILLERS, _FILLER), dtype=np.uint8)
        self._filler_bytes = [row.tobytes() for row in self.fillers]

    def values(self, pid: int, start: int, count: int, due: float) -> list[bytes]:
        pack = _HEAD.pack
        fillers = self._filler_bytes
        base = start + pid * 131
        return [
            pack(pid, start + i, due) + fillers[(base + i) % _FILLERS]
            for i in range(count)
        ]

    def streamlet_order(self, streamlets: list[int]) -> list[int]:
        order = list(streamlets)
        self.rng.shuffle(order)
        return order


class OutputCheck:
    """Every acked record read back exactly once, in per-(producer,
    streamlet) ``chunk_seq`` order, with the bytes that were sent."""

    def __init__(self, payloads: Payloads, *, drop_record: bool = False) -> None:
        self.payloads = payloads
        self.expected: dict[int, int] = {}
        self.seen: dict[int, np.ndarray] = {}
        self.next_seq: dict[tuple[int, int], int] = {}
        self.last_index: dict[tuple[int, int], int] = {}
        self.errors: list[str] = []
        self._drop = drop_record

    def expect(self, pid: int, count: int) -> None:
        """Producer ``pid`` had ``count`` records acked (indices 0..count-1).

        May be called after the records were consumed: an open-loop run
        only knows its acked count at the end."""
        self.expected[pid] = count

    def _error(self, message: str) -> None:
        if len(self.errors) < 8:
            self.errors.append(message)

    def _seen(self, pid: int, upto: int) -> np.ndarray:
        seen = self.seen.get(pid)
        if seen is None or len(seen) <= upto:
            grown = np.zeros(max(2 * upto + 2, self.expected.get(pid, 0)), dtype=bool)
            if seen is not None:
                grown[: len(seen)] = seen
            seen = self.seen[pid] = grown
        return seen

    def chunk(self, chunk, values: np.ndarray) -> None:
        """One consumed chunk; ``values`` is its (n, 90) value matrix."""
        pid = chunk.producer_id
        key = (pid, chunk.streamlet_id)
        want = self.next_seq.get(key, 0)
        if chunk.chunk_seq != want:
            self._error(
                f"producer {pid} streamlet {key[1]}: chunk_seq {chunk.chunk_seq}, "
                f"expected {want}"
            )
        self.next_seq[key] = chunk.chunk_seq + 1
        if self._drop:
            self._drop = False
            values = values[:-1]
        if len(values) == 0:
            return
        head = np.ascontiguousarray(values[:, : _HEAD.size])
        pids = head[:, 0:4].view("<u4").ravel()
        index = head[:, 4:12].view("<u8").ravel().astype(np.int64)
        if (pids != pid).any():
            self._error(f"chunk of producer {pid} carries records of another producer")
            return
        if index[0] <= self.last_index.get(key, -1) or (np.diff(index) <= 0).any():
            self._error(f"producer {pid} streamlet {key[1]}: records out of order")
            return
        self.last_index[key] = int(index[-1])
        seen = self._seen(pid, int(index[-1]))
        if seen[index].any():
            self._error(f"producer {pid}: record read back twice")
        seen[index] = True
        expected = self.payloads.fillers[(index + pid * 131) % _FILLERS]
        if not np.array_equal(values[:, _HEAD.size :], expected):
            self._error(f"producer {pid}: record bytes differ from what was sent")

    def finish(self) -> bool:
        for pid in sorted(set(self.expected) | set(self.seen)):
            count = self.expected.get(pid, 0)
            seen = self._seen(pid, count)
            missing = int(count - seen[:count].sum())
            if missing:
                self._error(f"producer {pid}: {missing} acked records never read back")
            if seen[count:].any():
                self._error(f"producer {pid}: read back records that were never acked")
        return not self.errors


def payload_values(chunk) -> np.ndarray:
    """(n, 90) value matrix straight from a chunk's uniform payload."""
    matrix = np.frombuffer(chunk.payload, dtype=np.uint8).reshape(-1, RECORD_SIZE)
    return matrix[:, RECORD_FIXED_HEADER:]


def decoded_values(records) -> np.ndarray:
    """(n, 90) value matrix from decoded records or record views."""
    blob = b"".join([r.value for r in records])
    return np.frombuffer(blob, dtype=np.uint8).reshape(-1, VALUE_SIZE)


def dues(values: np.ndarray) -> np.ndarray:
    """The due instants stamped into a value matrix's records."""
    return np.ascontiguousarray(values[:, 12:20]).view("<f8").ravel()


# -- gateway building blocks -------------------------------------------------------


@dataclass
class Gateway:
    """A started SUT plus the load generator's two connections."""

    sut: SutProcess
    producer_conn: AsyncGatewayClient
    consumer_conn: AsyncGatewayClient
    rss_ready: int
    user_bytes: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def conns(self) -> list[AsyncGatewayClient]:
        return [self.producer_conn, self.consumer_conn]

    @property
    def cpu_pids(self) -> list[int]:
        return [os.getpid(), *self.sut.pids]

    async def close(self) -> None:
        for conn in self.conns:
            try:
                await conn.close()
            except Exception:  # noqa: BLE001 - teardown must reach sut.close()
                pass
        self.sut.close()


async def make_producers(
    conns: list[AsyncGatewayClient], payloads: Payloads, stream_id: int, count: int,
    first_pid: int,
) -> list[AsyncProducer]:
    """``count`` logical producers multiplexed over ``conns``, each with
    its own seeded streamlet order."""
    _, chunk_size, streamlets = await conns[0].meta(stream_id)
    return [
        AsyncProducer(
            conns[i % len(conns)],
            first_pid + i,
            stream_id=stream_id,
            chunk_size=chunk_size,
            streamlet_ids=payloads.streamlet_order(streamlets),
        )
        for i in range(count)
    ]


async def closed_loop_produce(
    gw: Gateway,
    producers: list[AsyncProducer],
    payloads: Payloads,
    *,
    per_request: int = 40,
    deadline: float | None = None,
    requests_each: int | None = None,
    slices: Slices | None = None,
    latency: Samples | None = None,
    acked: dict[int, int] | None = None,
    checkpoint: tuple[int, object] | None = None,
) -> dict[int, int]:
    """Each logical producer loops ``send_many`` -> ``await flush()``.

    Runs until ``deadline`` (timed phases) or for ``requests_each``
    requests (fixed-size warm-up and preload). Returns records acked per
    producer id; pass that back as ``acked`` to continue the same
    producers in a further window. ``checkpoint=(n, hook)`` calls
    ``hook()`` once, when the ``n``-th record of this call is acked.
    """
    acked = dict(acked) if acked else {p.producer_id: 0 for p in producers}
    total = 0
    pending = [checkpoint] if checkpoint else []

    async def one(producer: AsyncProducer) -> None:
        nonlocal total
        pid = producer.producer_id
        sent = first = acked[pid]
        while True:
            start = time.perf_counter()
            if deadline is not None and start >= deadline:
                return
            if requests_each is not None and sent - first >= requests_each * per_request:
                return
            producer.send_many(payloads.values(pid, sent, per_request, start))
            start = time.perf_counter()
            gw.attempted += 1
            try:
                await producer.flush()
            except REQUEST_ERRORS:
                gw.failed += 1
                return
            end = time.perf_counter()
            sent += per_request
            acked[pid] = sent
            total += per_request
            if latency is not None:
                latency.add(end - start)
            if slices is not None:
                slices.mark(total, end)
            if pending and total >= pending[0][0]:
                pending.pop()[1]()

    if slices is not None:
        slices.start()
    await asyncio.gather(*(one(p) for p in producers))
    gw.user_bytes += total * RECORD_SIZE
    return acked


async def read_back(
    gw: Gateway,
    check: OutputCheck,
    *,
    stream_id: int,
    consumer_id: int,
    expected: int,
    decode: bool,
    max_chunks_per_entry: int = 16,
    slices: Slices | None = None,
    ages: Samples | None = None,
    speed: MachineSpeed | None = None,
) -> int:
    """Consume ``expected`` records from offset 0 and feed the check.

    ``decode=True`` goes through ``Chunk.records()`` — exactly what
    ``AsyncConsumer.poll()`` does — and checks the decoded values;
    ``decode=False`` checks the CRC-verified payload bytes directly.
    ``slices`` is marked after every fetch round, so its slices are made
    of whole rounds; ``ages`` gets one sample per chunk; ``speed`` is
    sampled between rounds, when no request is in flight.
    """
    consumer = await AsyncConsumer.open(gw.consumer_conn, consumer_id, stream_id=stream_id)
    got = 0
    idle = 0
    if slices is not None:
        slices.start()
    while got < expected:
        gw.attempted += 1
        try:
            chunks = await consumer.poll_chunks(max_chunks_per_entry)
        except REQUEST_ERRORS:
            gw.failed += 1
            break
        count = 0
        sent = []
        for chunk in chunks:
            values = decoded_values(chunk.records()) if decode else payload_values(chunk)
            check.chunk(chunk, values)
            count += chunk.record_count
            sent.append(dues(values[:1])[0])
        got += count
        now = time.perf_counter()
        if slices is not None:
            slices.mark(got, now)
        if speed is not None:
            speed.maybe(now)
        if ages is not None and sent:
            ages.extend(now - np.array(sent))
        idle = idle + 1 if count == 0 else 0
        if idle > 200:
            break  # acked records are missing; finish() reports them
        if count == 0:
            await asyncio.sleep(0.005)
    return got


@dataclass
class TailStats:
    ack: Samples
    e2e: Samples
    lateness: Samples
    produce_slices: Slices
    consume_slices: Slices
    polls: int = 0
    empty_polls: int = 0
    acked: int = 0
    consumed: int = 0
    #: records acked / consumed inside the measured window
    measured_acked: int = 0
    measured_consumed: int = 0
    start: float = 0.0
    end: float = 0.0
    cpu_s: float = 0.0


async def tail_phase(
    gw: Gateway,
    payloads: Payloads,
    check: OutputCheck,
    *,
    duration: float,
    exclude: float,
    tick_s: float = 0.010,
    per_tick: int = 50,
    logical: int = 4,
    at_fraction: tuple[float, object] | None = None,
) -> TailStats:
    """Open loop: ``per_tick`` records every ``tick_s`` on a fixed
    timetable, a tailing consumer beside it; latencies from the due instant.

    Tick *k* uses logical producer *k* mod ``logical`` and never waits for
    an earlier tick's ack. The first ``exclude`` seconds load the system
    but are not measured. ``at_fraction=(f, hook)`` calls ``hook(stats)``
    from the generator once the share ``f`` of the measured window has
    been sent (a traced run opens its traced window there).
    """
    producers = await make_producers([gw.producer_conn], payloads, MAIN_STREAM, logical, 0)
    consumer = await AsyncConsumer.open(gw.consumer_conn, 1, stream_id=MAIN_STREAM)
    nticks = int(round((duration + exclude) / tick_s))
    first_measured = int(round(exclude / tick_s))
    hook_tick = -1
    if at_fraction is not None:
        hook_tick = first_measured + int(at_fraction[0] * (nticks - first_measured))
    # Achieved rates against the timetable: slices of half a second.
    rate_slice = per_tick * max(int(round(0.5 / tick_s)), 1)
    stats = TailStats(
        ack=Samples(nticks + 1),
        e2e=Samples(nticks * per_tick + 1),
        lateness=Samples(nticks + 1),
        produce_slices=Slices(rate_slice),
        consume_slices=Slices(rate_slice),
    )
    locks = [asyncio.Lock() for _ in producers]
    sent = [0] * logical
    producing = True
    cpu_start = 0.0
    t0 = time.perf_counter() + 0.02
    measure_from = t0 + first_measured * tick_s

    async def tick(k: int, due: float) -> None:
        slot = k % logical
        producer = producers[slot]
        async with locks[slot]:
            start = sent[slot]
            sent[slot] = start + per_tick
            producer.send_many(payloads.values(producer.producer_id, start, per_tick, due))
            gw.attempted += 1
            try:
                await producer.flush()
            except REQUEST_ERRORS:
                gw.failed += 1
                sent[slot] = start  # nothing acked: the check must not expect it
                return
        now = time.perf_counter()
        stats.acked += per_tick
        if k >= first_measured:
            stats.ack.add(now - due)
            stats.measured_acked += per_tick
            stats.produce_slices.mark(stats.measured_acked, now)

    async def generate() -> None:
        nonlocal producing, cpu_start
        tasks = []
        for k in range(nticks):
            due = t0 + k * tick_s
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            if k == first_measured:
                cpu_start = tree_cpu(gw.cpu_pids)
                stats.start = time.perf_counter()
                stats.produce_slices.start()
            if k == hook_tick:
                at_fraction[1](stats)
            if k >= first_measured:
                stats.lateness.add(time.perf_counter() - due)
            tasks.append(asyncio.create_task(tick(k, due)))
        await asyncio.gather(*tasks)
        producing = False

    async def tail() -> None:
        quiet_since = None
        slices = stats.consume_slices
        while True:
            gw.attempted += 1
            try:
                chunks = await consumer.poll_chunks()
            except REQUEST_ERRORS:
                gw.failed += 1
                return
            stats.polls += 1
            if not chunks:
                stats.empty_polls += 1
                if not producing:
                    if stats.consumed >= stats.acked:
                        return
                    quiet_since = quiet_since or time.perf_counter()
                    if time.perf_counter() - quiet_since > 10.0:
                        return  # acked records never showed up; finish() reports them
                await asyncio.sleep(0.0005)
                continue
            quiet_since = None
            matrices = []
            for chunk in chunks:
                values = decoded_values(chunk.records())
                check.chunk(chunk, values)
                matrices.append(values)
            now = time.perf_counter()
            values = matrices[0] if len(matrices) == 1 else np.concatenate(matrices)
            due = dues(values)
            measured = due[due >= measure_from - 1e-9]
            stats.e2e.extend(now - measured)
            stats.consumed += len(values)
            if len(measured):
                if stats.measured_consumed == 0:
                    slices.start()
                stats.measured_consumed += len(measured)
                slices.mark(stats.measured_consumed, now)

    await asyncio.gather(generate(), tail())
    stats.end = time.perf_counter()
    stats.cpu_s = tree_cpu(gw.cpu_pids) - cpu_start
    for producer, count in zip(producers, sent):
        check.expect(producer.producer_id, count)
    gw.user_bytes += stats.acked * RECORD_SIZE
    return stats


async def gateway_setup(spec: RunSpec, payloads: Payloads, streamlets: int) -> Gateway:
    """Spawn the SUT, connect, create the streams, warm up."""
    sut = SutProcess(trace=spec.trace).start()
    try:
        rss_ready = sut.rss()
        host, port = sut.address
        gw = Gateway(
            sut,
            await AsyncGatewayClient.connect(host, port),
            await AsyncGatewayClient.connect(host, port),
            rss_ready,
        )
    except BaseException:
        sut.close()
        raise
    try:
        await gw.producer_conn.create_stream(WARMUP_STREAM, 4)
        await gw.producer_conn.create_stream(MAIN_STREAM, streamlets)
        # Fixed warm-up through both paths: CRC tables, buffer pools,
        # asyncio machinery, the fetch path and the client decoder.
        warm = await make_producers(gw.conns, payloads, WARMUP_STREAM, 8, 900)
        requests = (WARMUP_RECORDS // 10 if spec.smoke else WARMUP_RECORDS) // (8 * 40)
        acked = await closed_loop_produce(gw, warm, payloads, requests_each=requests)
        check = OutputCheck(payloads)
        for pid, count in acked.items():
            check.expect(pid, count)
        await read_back(
            gw, check, stream_id=WARMUP_STREAM, consumer_id=900,
            expected=sum(acked.values()), decode=True,
        )
        if not check.finish():
            raise BenchFailure(f"warm-up read-back failed: {check.errors}")
    except BaseException:
        await gw.close()
        raise
    return gw


async def timed_setups(spec: RunSpec, streamlets: int) -> tuple[Gateway, Payloads, list[float]]:
    """Run the set-up ``SETUP_REPEATS`` times; keep the last one.

    Every repeat is the full thing — process spawn to ready for the first
    timed operation — and the earlier ones are torn down completely before
    the next starts. Returns the wall time of each.
    """
    times = []
    gw = payloads = None
    for _ in range(1 if spec.smoke else SETUP_REPEATS):
        if gw is not None:
            await gw.close()
        payloads = Payloads(spec.seed)
        start = time.perf_counter()
        gw = await gateway_setup(spec, payloads, streamlets)
        times.append(time.perf_counter() - start)
    return gw, payloads, times


def _window(spec: RunSpec, gw: Gateway | None = None):
    """The traced window of a ``--trace 1`` run, or None."""
    if not spec.trace:
        return None
    import tracing

    return tracing.Window(gw=gw)


def _layers(result: Result, window, **kwargs) -> None:
    if window is None:
        return
    result.layers = window.layers(**kwargs)
    result.info.update(window.extra)
    window.dump(result.workload)


def _finish_gateway(result: Result, gw: Gateway, checks: list[OutputCheck]) -> None:
    result.attempted = gw.attempted
    result.failed = gw.failed
    result.correct = gw.failed == 0
    for check in checks:
        if not check.finish():
            result.correct = False
            result.errors.extend(check.errors)
    result.config = gw.sut.info.get("config", {})


def _memory_metric(result: Result, gw: Gateway) -> None:
    """(peak RSS of the SUT parent + children − RSS at ready) ÷ user bytes
    acked so far, warm-up included."""
    result.put_memory(gw.sut.rss(peak=True) - gw.rss_ready, gw.user_bytes)


# -- gw-ingest --------------------------------------------------------------------


async def _gw_ingest(spec: RunSpec) -> Result:
    rules = spec.rules
    result = Result("gw-ingest", rules)
    gw, payloads, setups = await timed_setups(spec, 32)
    try:
        window = _window(spec, gw)
        producers = await make_producers(gw.conns, payloads, MAIN_STREAM, 16, 0)
        result.put("setup_s", statistics.median(setups), len(setups))
        result.info["machine.calib_mops.before"] = calib_mops()
        main_s = spec.seconds
        slice_records = 40 * 40  # 40 requests of 40 records
        acked = None
        reference = spec.slices(slice_records)
        gc.collect()
        if window is not None:
            acked = await closed_loop_produce(
                gw, producers, payloads, slices=reference,
                deadline=time.perf_counter() + REFERENCE_SHARE * main_s,
            )
            main_s *= 1 - REFERENCE_SHARE
            window.begin()
        before = sum(acked.values()) if acked else 0
        latency = Samples(int(main_s * 20_000) + 1000)
        slices = spec.slices(slice_records)
        cpu0 = tree_cpu(gw.cpu_pids)
        t0 = time.perf_counter()
        # Memory is read when a fixed number of records is in, not at the
        # end of a fixed time: how much a run gets done in its seconds
        # depends on the machine, and bytes per byte must not.
        mark = INGEST_MEMORY_RECORDS // 100 if spec.smoke else INGEST_MEMORY_RECORDS
        memory: list[int] = []
        user_before = gw.user_bytes
        acked = await closed_loop_produce(
            gw, producers, payloads, deadline=t0 + main_s,
            slices=slices, latency=latency, acked=acked,
            checkpoint=(mark - before, lambda: memory.append(gw.sut.rss())),
        )
        t1 = time.perf_counter()
        cpu_s = tree_cpu(gw.cpu_pids) - cpu0
        total = sum(acked.values())
        produced = total - before
        rules.phase("gw-ingest produce phase", t1 - t0, GATEWAY_PHASE_S)
        rules.need(bool(memory), f"only {total} records acked: memory is read at {mark}")
        if memory:
            result.put_memory(memory[0] - gw.rss_ready, user_before + (mark - before) * RECORD_SIZE)
        else:
            result.put("mem_bytes_per_user_byte", 0.0, 0)
        result.put_cpu(cpu_s, produced)
        rate = result.put_rate("produce_rec_per_s", slices)
        result.put_latency("produce_ack", latency)
        result.put_tail_info("ack", latency)
        info = result.info
        info["loadgen.produce_total_over_elapsed"] = produced / (t1 - t0)
        info["loadgen.records_produced"] = produced

        # Read-back: every acked record, CRC-verified frames, cache-cold.
        # It is the output check; being real fetch work of known size it
        # also fills this workload's consume and e2e cells.
        check = OutputCheck(payloads, drop_record=spec.drop_record)
        for pid, count in acked.items():
            check.expect(pid, count)
        read_slices = spec.slices(READ_SLICE_RECORDS)
        ages = Samples(total // 40 + 1000)
        await read_back(
            gw, check, stream_id=MAIN_STREAM, consumer_id=1, expected=total,
            decode=False, max_chunks_per_entry=4, slices=read_slices, ages=ages,
        )
        if window is not None:
            window.end()
        info["machine.calib_mops.after"] = calib_mops()
        result.put_rate("consume_rec_per_s", read_slices)
        result.put_latency("e2e", ages, ages=True)
        _layers(
            result, window, produced=produced, consumed=total,
            rate_ref=reference.rate(rules, "reference") if window else 0.0, rate_traced=rate,
        )
        _finish_gateway(result, gw, [check])
    finally:
        await gw.close()
    return result


# -- gw-tail ------------------------------------------------------------------------


async def _gw_tail(spec: RunSpec) -> Result:
    rules = spec.rules
    result = Result("gw-tail", rules)
    gw, payloads, setups = await timed_setups(spec, 4)
    try:
        window = _window(spec, gw)
        result.put("setup_s", statistics.median(setups), len(setups))
        result.info["machine.calib_mops.before"] = calib_mops()
        check = OutputCheck(payloads, drop_record=spec.drop_record)
        switch: dict[str, float] = {}

        def open_window(stats: TailStats) -> None:
            switch.update(
                cpu=tree_cpu(gw.cpu_pids),
                acked=stats.measured_acked,
                consumed=stats.measured_consumed,
            )
            window.begin()

        gc.collect()
        stats = await tail_phase(
            gw, payloads, check, duration=spec.seconds, exclude=min(2.0, 0.1 * spec.seconds),
            at_fraction=(REFERENCE_SHARE, open_window) if window else None,
        )
        cpu_end = tree_cpu(gw.cpu_pids)
        if window is not None:
            window.end()
        result.info["machine.calib_mops.after"] = calib_mops()
        # The timetable's own length: the measured ticks span exactly this.
        rules.phase("gw-tail measured window", spec.seconds, GATEWAY_PHASE_S)
        result.put_latency("produce_ack", stats.ack)
        result.put_latency("e2e", stats.e2e)
        for stem, samples in (("ack", stats.ack), ("e2e", stats.e2e)):
            result.put_tail_info(stem, samples)
        info = result.info
        info["loadgen.lateness_p50_ms"] = stats.lateness.whole_ms(0.50)
        result.put_tail_info("lateness", stats.lateness)
        info["loadgen.empty_poll_ratio"] = stats.empty_polls / max(stats.polls, 1)
        info["loadgen.utilisation_cpus"] = stats.cpu_s / (stats.end - stats.start)
        result.put_rate("produce_rec_per_s", stats.produce_slices)
        result.put_rate("consume_rec_per_s", stats.consume_slices)
        _memory_metric(result, gw)
        measured = stats.measured_acked + stats.measured_consumed
        result.put_cpu(stats.cpu_s, measured)
        if window is not None:
            # The timetable fixes the record rate, so tracing cannot slow
            # it: the rate compared is records per CPU-second.
            ref_records = switch["acked"] + switch["consumed"]
            ref_cpu = max(switch["cpu"] - (cpu_end - stats.cpu_s), 1e-9)
            _layers(
                result, window,
                produced=stats.measured_acked - switch["acked"],
                consumed=stats.measured_consumed - switch["consumed"],
                rate_ref=ref_records / ref_cpu,
                rate_traced=(measured - ref_records) / max(stats.cpu_s - ref_cpu, 1e-9),
                polls=stats.polls, empty_polls=stats.empty_polls,
            )
        _finish_gateway(result, gw, [check])
    finally:
        await gw.close()
    return result


# -- gw-scan ------------------------------------------------------------------------


async def _gw_scan(spec: RunSpec) -> Result:
    rules = spec.rules
    result = Result("gw-scan", rules)
    seconds = spec.seconds
    gw, payloads, setups = await timed_setups(spec, 32)
    try:
        window = _window(spec, gw)
        # The preload belongs to the set-up; it runs once (three times
        # would cost 20 s) and its wall time is added to the median of
        # the repeated part. Being this workload's only produce traffic
        # it also fills the produce-side cells.
        records = SCAN_RECORDS // 20 if spec.smoke else SCAN_RECORDS
        producers = await make_producers(gw.conns, payloads, MAIN_STREAM, 16, 0)
        preload_slices = spec.slices(40 * 40)
        preload_latency = Samples(records // 40 + 1)
        t_preload = time.perf_counter()
        acked = await closed_loop_produce(
            gw, producers, payloads, requests_each=records // (16 * 40),
            slices=preload_slices, latency=preload_latency,
        )
        total = sum(acked.values())
        preload_s = time.perf_counter() - t_preload
        result.put("setup_s", statistics.median(setups) + preload_s, len(setups))
        result.put_rate("produce_rec_per_s", preload_slices)
        result.put_latency("produce_ack", preload_latency)
        info = result.info
        info["loadgen.preload_s"] = preload_s
        info["machine.calib_mops.before"] = calib_mops()

        cold = spec.slices(READ_SLICE_RECORDS)
        warm = spec.slices(READ_SLICE_RECORDS)
        reference = spec.slices(READ_SLICE_RECORDS)
        ages = Samples(1 << 18)
        # A pass is two thirds client decode: the load generator's thread
        # is the saturated one, and the timed passes are on its speed.
        speed = MachineSpeed()
        checks = []
        traced_records = 0
        passes = 0
        gc.collect()
        cpu0 = tree_cpu(gw.cpu_pids)
        t0 = time.perf_counter()
        # Whole passes only, so every pass can be checked for completeness;
        # at least three: one cold, and warm ones either side of the
        # reference pass a traced run makes with the tracer off.
        while passes < 3 or time.perf_counter() - t0 < seconds:
            traced = window is not None and passes != 1
            if traced:
                window.begin()
            check = OutputCheck(payloads, drop_record=spec.drop_record and passes == 0)
            for pid, count in acked.items():
                check.expect(pid, count)
            if passes == 0:
                slices = cold
            else:
                slices = reference if window is not None and passes == 1 else warm
            got = await read_back(
                gw, check, stream_id=MAIN_STREAM, consumer_id=10 + passes,
                expected=total, decode=True, max_chunks_per_entry=2, slices=slices, ages=ages,
                speed=speed,
            )
            if traced:
                window.end()
                traced_records += got
            passes += 1
            checks.append(check)
        t1 = time.perf_counter()
        cpu_s = tree_cpu(gw.cpu_pids) - cpu0
        info["machine.calib_mops.after"] = calib_mops()
        rules.phase("gw-scan timed passes", t1 - t0, GATEWAY_PHASE_S)
        _memory_metric(result, gw)
        slowdown = info["machine.slowdown"] = speed.slowdown()
        result.put_cpu(cpu_s - speed.cpu_s, total * passes, slowdown)
        # Pass 1 is cache-cold and reported on its own; the rate is the
        # median slice of the warm passes (in a traced run: of the traced
        # warm passes, pass 2 being the untraced reference).
        rate = result.put_rate("consume_rec_per_s", warm, slowdown)
        result.put_latency("e2e", ages, ages=True)
        info["loadgen.cold_pass_rec_per_s"] = cold.rate(Rules(strict=False), "cold pass")
        info["loadgen.consume_total_over_elapsed"] = total * passes / (t1 - t0)
        info["loadgen.passes"] = passes
        info["loadgen.records_per_pass"] = total
        _layers(
            result, window, produced=0, consumed=traced_records,
            rate_ref=reference.rate(rules, "reference") if window else 0.0,
            rate_traced=rate / slowdown,
        )
        _finish_gateway(result, gw, checks)
    finally:
        await gw.close()
    return result


# -- core-inproc ------------------------------------------------------------------


def _core_config() -> KeraConfig:
    return KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=8 * MB),
        replication=ReplicationConfig(replication_factor=3),
        chunk_size=16 * KB,
    )


class _CoreProducer:
    """Public wire API -> ``cluster.produce``, ten chunks per request."""

    chunks_per_request = 10

    def __init__(self, cluster, payloads: Payloads, stream_id: int, pid: int, sent: int = 0) -> None:
        self.cluster = cluster
        self.payloads = payloads
        self.pid = pid
        streamlets = cluster.coordinator.stream(stream_id).streamlet_ids
        self.order = payloads.streamlet_order(list(streamlets))
        self.capacity = cluster.config.chunk_size
        self.per_chunk = self.capacity // RECORD_SIZE
        self.builders = {
            s: ChunkBuilder(self.capacity, stream_id=stream_id, streamlet_id=s, producer_id=pid)
            for s in streamlets
        }
        self.seqs = dict.fromkeys(streamlets, 0)
        self.sent = sent
        self.cursor = 0

    def request(self) -> int:
        chunks = []
        due = time.perf_counter()
        for _ in range(self.chunks_per_request):
            streamlet = self.order[self.cursor % len(self.order)]
            self.cursor += 1
            values = self.payloads.values(self.pid, self.sent, self.per_chunk, due)
            encoded, crcs = encode_keyless_values_with_crcs(values)
            builder = self.builders[streamlet]
            if not builder.try_append_encoded(
                encoded, self.per_chunk, payload_crc=crc32c_concat(crcs, RECORD_SIZE)
            ):
                raise BenchFailure("a chunk's worth of records did not fit its chunk")
            chunks.append(builder.build(chunk_seq=self.seqs[streamlet]))
            self.seqs[streamlet] += 1
            self.sent += self.per_chunk
        self.cluster.produce(chunks, self.pid)
        return self.per_chunk * self.chunks_per_request


def _core_consume(consumer: KeraConsumer, check: OutputCheck, ages: Samples | None = None) -> int:
    """One ``poll_views`` round, walking every record view's value."""
    count = 0
    for view in consumer.poll_views():
        values = decoded_values(view.record_views())
        check.chunk(view, values)
        count += len(values)
        if ages is not None:
            ages.add(time.perf_counter() - dues(values[:1])[0])
    return count


def _core_cluster(stream_id: int, streamlets: int) -> InprocKeraCluster:
    cluster = InprocKeraCluster(_core_config())
    cluster.create_stream(stream_id, streamlets)
    return cluster


def _core_setup(spec: RunSpec):
    """Cluster, streams and the fixed warm-up through both paths."""
    payloads = Payloads(spec.seed)
    cluster = _core_cluster(WARMUP_STREAM, 4)
    rss_ready = rss_bytes(os.getpid())
    cluster.create_stream(MAIN_STREAM, 8)
    warm = _CoreProducer(cluster, payloads, WARMUP_STREAM, 900)
    target = WARMUP_RECORDS // 10 if spec.smoke else WARMUP_RECORDS
    while warm.sent < target:
        warm.request()
    check = OutputCheck(payloads)
    check.expect(900, warm.sent)
    consumer = KeraConsumer(cluster, 900, [WARMUP_STREAM])
    while _core_consume(consumer, check):
        pass
    if not check.finish():
        cluster.shutdown()
        raise BenchFailure(f"warm-up read-back failed: {check.errors}")
    return cluster, payloads, rss_ready


def run_core_inproc(spec: RunSpec) -> Result:
    rules = spec.rules
    result = Result("core-inproc", rules)
    # A traced run wraps the layers before the first cluster is built.
    window = _window(spec)
    setups = []
    cluster = None
    for _ in range(1 if spec.smoke else SETUP_REPEATS):
        if cluster is not None:
            cluster.shutdown()
            del cluster
            gc.collect()
        start = time.perf_counter()
        cluster, payloads, rss_ready = _core_setup(spec)
        setups.append(time.perf_counter() - start)
    me = os.getpid()
    info = result.info
    attempted = failed = 0
    try:
        result.put("setup_s", statistics.median(setups), len(setups))
        info["machine.calib_mops.before"] = calib_mops()
        per_request = (16 * KB // RECORD_SIZE) * _CoreProducer.chunks_per_request
        produce_slices = spec.slices(10 * per_request)
        consume_slices = spec.slices(2 * READ_SLICE_RECORDS)
        reference = spec.slices(10 * per_request)
        latency = Samples(1 << 16)
        ages = Samples(1 << 18)
        check = OutputCheck(payloads, drop_record=spec.drop_record)
        round_s = CORE_PRODUCE_SHARE * spec.seconds / CORE_ROUNDS
        produce_s = consume_s = cpu_s = 0.0
        produced = consumed = round0 = 0
        speed = MachineSpeed()
        mark = CORE_MEMORY_RECORDS // 500 if spec.smoke else CORE_MEMORY_RECORDS
        memory: list[int] = []
        for number in range(CORE_ROUNDS):
            if number:
                # A fresh cluster bounds the memory the run holds; the
                # process stays warm.
                cluster.shutdown()
                cluster = None
                gc.collect()
                cluster = _core_cluster(MAIN_STREAM, 8)
            # In a traced run round 0 is the untraced reference.
            tracing_round = window is not None and number > 0
            if tracing_round:
                window.cluster = cluster
                window.begin()
            # Phase A: encode + build + produce, closed loop.
            producer = _CoreProducer(cluster, payloads, MAIN_STREAM, 1, sent=produced)
            slices = produce_slices if window is None or tracing_round else reference
            cpu0 = tree_cpu([me])
            t0 = time.perf_counter()
            slices.start(produced)
            while True:
                start = time.perf_counter()
                if start - t0 >= round_s:
                    break
                attempted += 1
                try:
                    produced += producer.request()
                except ReproError:
                    failed += 1
                    break
                end = time.perf_counter()
                latency.add(end - start)
                slices.mark(produced, end)
                speed.maybe(end)
                if not memory and produced >= mark:
                    memory.append(rss_bytes(me))
            t1 = time.perf_counter()
            # Phase B: read all of it back through zero-copy views. Each
            # round's index range continues the last, so one check sees
            # every record of the run exactly once.
            check.next_seq.clear()
            consumer = KeraConsumer(cluster, 1, [MAIN_STREAM])
            consume_slices.start(consumed)
            if number == 0:
                memory.append(rss_bytes(me))
            while consumed < produced:
                attempted += 1
                try:
                    step = _core_consume(consumer, check, ages)
                except ReproError:
                    failed += 1
                    break
                if step == 0:
                    break
                consumed += step
                now = time.perf_counter()
                consume_slices.mark(consumed, now)
                speed.maybe(now)
                if len(memory) == 2 and consumed >= mark:
                    memory.append(rss_bytes(me))
            t2 = time.perf_counter()
            cpu_s += tree_cpu([me]) - cpu0
            produce_s += t1 - t0
            consume_s += t2 - t1
            if tracing_round:
                window.end()
            if number == 0:
                round0 = produced
        info["machine.calib_mops.after"] = calib_mops()
        # One thread does everything here, so everything timed is on its speed.
        slowdown = info["machine.slowdown"] = speed.slowdown()
        check.expect(1, produced)
        rules.phase("core-inproc phase A", produce_s, CORE_PHASE_S)
        rules.phase("core-inproc phase B", consume_s, CORE_PHASE_S)
        # Memory at a fixed volume, in round 1 (later rounds reuse what the
        # allocator kept): what writing the first `mark` records added plus
        # what reading as many back added — how much a round moves in its
        # seconds depends on the machine, and bytes per byte must not.
        rules.need(len(memory) == 3, f"round 1 moved {round0} records: memory is read at {mark}")
        if len(memory) == 3:
            written, read_start, read_mark = memory
            result.put_memory((written - rss_ready) + (read_mark - read_start), mark * RECORD_SIZE)
        else:
            result.put("mem_bytes_per_user_byte", 0.0, 0)
        rate = result.put_rate("produce_rec_per_s", produce_slices, slowdown)
        result.put_rate("consume_rec_per_s", consume_slices, slowdown)
        result.put_latency("produce_ack", latency, slowdown)
        result.put_latency("e2e", ages, ages=True)
        result.put_cpu(cpu_s - speed.cpu_s, produced + consumed, slowdown)
        info["loadgen.produce_total_over_elapsed"] = produced / produce_s
        info["loadgen.consume_total_over_elapsed"] = consumed / consume_s
        info["loadgen.records_produced"] = produced
        info["loadgen.rss_peak_mb"] = rss_bytes(me, peak=True) / 1e6
        if window is not None:
            traced = produced - round0  # rounds 1.., produced and consumed alike
            _layers(
                result, window, produced=traced, consumed=traced,
                rate_ref=reference.rate(rules, "reference"), rate_traced=rate / slowdown,
            )
        result.attempted, result.failed = attempted, failed
        result.correct = check.finish() and failed == 0
        result.errors = check.errors
        config = cluster.config
        result.config = {
            "driver": "InprocKeraCluster",
            "brokers": config.num_brokers,
            "replication_factor": config.replication.replication_factor,
            "vlogs_per_broker": config.replication.vlogs_per_broker,
            "chunk_size": config.chunk_size,
            "segment_size": config.storage.segment_size,
            "flush_policy": "none (no persist_dir)",
        }
    finally:
        if cluster is not None:
            cluster.shutdown()
    return result


def run(spec: RunSpec) -> Result:
    """Run one workload to completion and return its result."""
    if spec.workload == "core-inproc":
        return run_core_inproc(spec)
    body = {"gw-ingest": _gw_ingest, "gw-tail": _gw_tail, "gw-scan": _gw_scan}[spec.workload]
    return asyncio.run(body(spec))
