"""Spans around the public entry points of each layer, installed from here.

``install()`` replaces the functions and methods listed in ``TARGETS`` with
timing wrappers — in the load generator and in the SUT launcher, before
the cluster is built; backup children are not wrapped and report through
``backup_stats()``. Nothing under ``src/`` knows about it.

A span is ``(layer.name, start, end, parent, thread, request id)``. Spans
nest per thread; a span's *self time* is its duration minus the time its
child spans cover, so the self times of one thread never add up to more
than its wall time. Aggregates (calls, total, self, units) are kept per
thread without locks and summed on read; the first ``SPAN_CAP`` raw spans
of each thread are kept for ``dump()``. ``async def`` entry points get
wall-clock "call" spans that do not take part in nesting: between their
awaits other requests run on the same thread.

The tracer starts disabled; a workload enables it for its traced window
only, so set-up, warm-up and the untraced reference window cost one
branch per wrapped call.
"""

from __future__ import annotations

import array
import asyncio
import functools
import importlib
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from harness import cpu_seconds, tree_cpu

SPAN_CAP = 100_000
OUT_DIR = Path(__file__).resolve().parent / "out"

_clock = time.perf_counter


def _n_values(args, result):
    return len(args[0])


def _n_result(args, result):
    return len(result)


def _nbytes(args, result):
    data = args[0]
    return data.nbytes if isinstance(data, memoryview) else len(data)


def _nbytes_many(args, result):
    return sum(len(b) for b in args[0])


def _nbytes_lanes16(args, result):
    return args[0].size * 2


def _nbytes_lanes(args, result):
    return args[0].size


def _nbytes_update(args, result):
    return len(args[1])


def _produce_chunks(args, result):
    return len(args[1].chunks)


def _fetch_chunks(args, result):
    return sum(len(entry.chunks) for entry in result.entries)


def _replicate_chunks(args, result):
    request = args[1]
    return len(request.frames if request.frames is not None else request.chunks)


def _req_attr(args):
    return getattr(args[1], "request_id", 0)


def _req_arg2(args):
    return args[2]


#: (span name, module, attribute path, units extractor, request-id extractor).
#: The first dotted component of the span name is the layer.
TARGETS = [
    # wire
    ("wire.encode", "repro.wire.record", "encode_records", _n_values, None),
    ("wire.encode", "repro.wire.record", "encode_keyless_values", _n_values, None),
    ("wire.encode", "repro.wire.record", "encode_keyless_values_with_crcs", _n_values, None),
    ("wire.decode_records", "repro.wire.record", "decode_records", _n_result, None),
    ("wire.decode_records", "repro.wire.views", "ChunkView.records", None, None),
    ("wire.chunk_build", "repro.wire.chunk", "ChunkBuilder.try_append_encoded", None, None),
    ("wire.chunk_seal", "repro.wire.chunk", "ChunkBuilder.build", None, None),
    ("wire.decode_chunk", "repro.wire.chunk", "decode_chunk", None, None),
    ("wire.netframe_send", "repro.wire.netframe", "send_frame", None, None),
    ("wire.netframe_send", "repro.wire.netframe", "write_frame_async", None, None),
    # common.checksum
    # crc32c() only forwards to crc32c_update(): one span per checksum.
    ("checksum.crc", "repro.common.checksum", "crc32c_update", _nbytes_update, None),
    ("checksum.crc", "repro.common.checksum", "crc32c_bulk", _nbytes, None),
    ("checksum.crc", "repro.common.checksum", "crc32c_many", _nbytes_many, None),
    ("checksum.crc", "repro.common.checksum", "crc32c_lanes", _nbytes_lanes, None),
    ("checksum.crc", "repro.common.checksum", "crc32c_lanes16", _nbytes_lanes16, None),
    ("checksum.algebra", "repro.common.checksum", "crc32c_concat", None, None),
    ("checksum.algebra", "repro.common.checksum", "crc32c_append", None, None),
    ("checksum.algebra", "repro.common.checksum", "crc32c_combine", None, None),
    ("checksum.algebra", "repro.common.checksum", "crc32c_u32le_lanes", None, None),
    ("checksum.algebra", "repro.common.checksum", "crc32c_shift_many", None, None),
    # storage
    ("storage.append", "repro.storage.streamlet", "Streamlet.append", None, None),
    ("storage.fancache_get", "repro.storage.fancache", "FanoutCache.get", None, None),
    ("storage.index_locate", "repro.storage.index", "SegmentOffsetIndex.locate", None, None),
    # replication
    ("replication.vlog_append", "repro.replication.virtual_log", "VirtualLog.append", None, None),
    ("replication.backup_append", "repro.replication.backup_store", "BackupStore.append_frames", None, None),
    ("replication.backup_append", "repro.replication.backup_store", "BackupStore.append_batch", None, None),
    # kera
    ("kera.broker_produce", "repro.kera.broker", "KeraBrokerCore.handle_produce", _produce_chunks, _req_attr),
    ("kera.broker_fetch", "repro.kera.broker", "KeraBrokerCore.handle_fetch", _fetch_chunks, _req_attr),
    ("kera.backup_replicate", "repro.kera.backup", "KeraBackupCore.handle_replicate", _replicate_chunks, None),
    ("kera.submit_produce", "repro.kera.live", "LiveKeraCluster.submit_produce", None, None),
    ("kera.live_fetch", "repro.kera.live", "LiveKeraCluster.fetch", None, None),
    # runtime (concurrent transports only: the in-process transport is a
    # plain function call and core-inproc installs neither this layer nor
    # the gateway's)
    ("runtime.call_async", "repro.runtime.threaded", "ThreadedTransport.call_async", None, None),
    ("runtime.call_async", "repro.runtime.socket_transport", "SocketTransport.call_async", None, None),
    ("runtime.credit_wait", "repro.replication.flow", "FlowController.acquire", None, None),
    ("runtime.completion", "repro.runtime.completion", "CompletionTracker.register", None, _req_arg2),
    ("runtime.completion", "repro.runtime.completion", "CompletionTracker.complete", None, _req_arg2),
    # gateway
    ("gateway.client_produce_call", "repro.gateway.client", "AsyncGatewayClient.produce", None, None),
    ("gateway.client_fetch_call", "repro.gateway.client", "AsyncGatewayClient.fetch", None, None),
    ("gateway.decode_produce", "repro.gateway.protocol", "decode_produce", None, None),
    ("gateway.encode_fetch_ok", "repro.gateway.protocol", "encode_fetch_ok", None, None),
    ("gateway.codec_other", "repro.gateway.protocol", "encode_produce", None, None),
    ("gateway.codec_other", "repro.gateway.protocol", "decode_produce_ok", None, None),
    ("gateway.codec_other", "repro.gateway.protocol", "encode_produce_ok", None, None),
    ("gateway.codec_other", "repro.gateway.protocol", "encode_fetch", None, None),
    ("gateway.codec_other", "repro.gateway.protocol", "decode_fetch", None, None),
    ("gateway.codec_other", "repro.gateway.protocol", "decode_fetch_ok", None, None),
]

CORE_LAYERS = ("wire", "checksum", "storage", "replication", "kera")
ALL_LAYERS = (*CORE_LAYERS, "runtime", "gateway")


class _ThreadState:
    __slots__ = ("name", "stack", "agg", "spans", "top")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[list] = []
        self.agg: dict[int, list] = {}
        self.spans: list[tuple] = []
        self.top = 0.0


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.names: list[str] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        #: replicate RPC round trips, seconds (appends are atomic under the GIL)
        self.rtt = array.array("d")

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
        return state

    # -- wrappers ---------------------------------------------------------------

    def wrap_sync(self, name: str, fn, units, req):
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            state = tracer.state()
            stack = state.stack
            parent = stack[-1] if stack else None
            # frame: [name id, time covered by child spans, request id, span index]
            frame = [name_id, 0.0, parent[2] if parent else 0, len(state.spans)]
            if req is not None:
                frame[2] = req(args)
            stack.append(frame)
            result = None
            start = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                agg = state.agg.get(name_id)
                if agg is None:
                    agg = state.agg[name_id] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    same = parent[0] == name_id
                else:
                    state.top += duration
                    same = False
                # Units (bytes, chunks, records) count once per outermost
                # span of a name: crc32c -> crc32c_update reads the bytes once.
                if units is not None and not same and result is not None:
                    agg[3] += units(args, result)
                if len(state.spans) < SPAN_CAP:
                    state.spans.append(
                        (name_id, start, end, parent[3] if parent else -1, frame[2])
                    )

        wrapper.__wrapped_by_e2e__ = True
        return wrapper

    def wrap_async(self, name: str, fn):
        name_id = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await fn(*args, **kwargs)
            state = tracer.state()
            start = _clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _clock()
                agg = state.agg.get(name_id)
                if agg is None:
                    agg = state.agg[name_id] = [0, 0.0, 0.0, 0]
                agg[0] += 1
                agg[1] += end - start
                if len(state.spans) < SPAN_CAP:
                    state.spans.append((name_id, start, end, -1, 0))

        return wrapper

    def wrap_replicate_rtt(self, fn):
        """``SocketTransport.call_async``: time replicate calls to their acks."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(self_, src, dst, service, method, request, request_bytes=0, *, on_done):
            if tracer.enabled and method == "replicate":
                start = _clock()
                inner = on_done

                def on_done(response, error):
                    tracer.rtt.append(_clock() - start)
                    inner(response, error)

            return fn(self_, src, dst, service, method, request, request_bytes, on_done=on_done)

        return wrapper

    # -- reading ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Aggregates summed over threads: name -> [calls, total, self, units]."""
        with self._lock:
            threads = list(self._threads)
        totals: dict[str, list] = {}
        per_thread_self = []
        for state in threads:
            thread_self = 0.0
            for name_id, agg in list(state.agg.items()):
                calls, total, self_s, units = agg
                into = totals.setdefault(self.names[name_id], [0, 0.0, 0.0, 0])
                into[0] += calls
                into[1] += total
                into[2] += self_s
                into[3] += units
                if not self.names[name_id].endswith("_call"):
                    thread_self += self_s
            per_thread_self.append(thread_self)
        rtt = np.frombuffer(self.rtt, dtype=np.float64) if len(self.rtt) else np.zeros(0)
        return {
            "spans": totals,
            "covered_s": sum(state.top for state in threads),
            "max_thread_self_s": max(per_thread_self, default=0.0),
            "rtt_n": int(len(rtt)),
            "rtt_p50_ms": float(np.percentile(rtt, 50)) * 1e3 if len(rtt) else 0.0,
            "rtt_p90_ms": float(np.percentile(rtt, 90)) * 1e3 if len(rtt) else 0.0,
        }

    def dump(self, path: str) -> int:
        """Write the kept raw spans as JSON lines; returns how many."""
        with self._lock:
            threads = list(self._threads)
        written = 0
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w") as out:
            for state in threads:
                for name_id, start, end, parent, request_id in state.spans:
                    layer, _, name = self.names[name_id].partition(".")
                    out.write(
                        json.dumps(
                            {
                                "layer": layer,
                                "name": name,
                                "start": start,
                                "end": end,
                                "parent": parent,
                                "thread": state.name,
                                "request": request_id,
                            }
                        )
                        + "\n"
                    )
                    written += 1
        return written


_TRACER: Tracer | None = None


def _resolve(module, path: str):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(layers: tuple[str, ...] = ALL_LAYERS) -> Tracer:
    """Wrap every target of ``layers`` in this process; idempotent."""
    global _TRACER
    if _TRACER is not None:
        return _TRACER
    tracer = _TRACER = Tracer()
    # Everything must be imported before rebinding, so that modules which
    # did ``from x import f`` hold the name we are about to replace.
    importlib.import_module("repro.kera")
    importlib.import_module("repro.gateway")
    for name, module_name, path, units, req in TARGETS:
        if name.partition(".")[0] not in layers:
            continue
        module = importlib.import_module(module_name)
        owner, attr = _resolve(module, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if asyncio.iscoroutinefunction(original):
            wrapped = tracer.wrap_async(name, original)
        else:
            wrapped = tracer.wrap_sync(name, original, units, req)
            if path == "SocketTransport.call_async":
                wrapped = tracer.wrap_replicate_rtt(wrapped)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            # Rebind every ``from module import name`` made before now.
            for other in list(sys.modules.values()):
                if other is not None and getattr(other, attr, None) is original:
                    setattr(other, attr, wrapped)
    return tracer


# -- a traced window and the per-layer metrics computed from it ----------------------


class Window:
    """One traced window: tracer on in the load generator and, for a
    gateway workload, in the SUT; counters read at both edges."""

    def __init__(self, gw=None, cluster=None) -> None:
        self.gw = gw
        self.cluster = cluster
        self.tracer = install(ALL_LAYERS if gw is not None else CORE_LAYERS)
        #: (counters at begin, counters at end) of every begin/end pair.
        self.edges: list[tuple[dict, dict]] = []
        self.cpu: dict[str, float] = {}
        self.wall = 0.0

    def _counters(self) -> dict:
        if self.gw is not None:
            return self.gw.sut.stats()
        from sut import cluster_counters

        return {"cluster": cluster_counters(self.cluster), "gateway": {}, "backups": []}

    def _cpu(self) -> dict[str, float]:
        import os

        if self.gw is None:
            return {"loadgen": cpu_seconds(os.getpid()), "sut": 0.0, "children": 0.0}
        return {
            "loadgen": cpu_seconds(os.getpid()),
            "sut": cpu_seconds(self.gw.sut.pid),
            "children": tree_cpu(self.gw.sut.children),
        }

    def begin(self) -> None:
        self._before = self._counters()
        self._cpu0 = self._cpu()
        self._t0 = _clock()
        if self.gw is not None:
            self.gw.sut.command("trace on")
        self.tracer.enabled = True

    def end(self) -> None:
        self.tracer.enabled = False
        if self.gw is not None:
            self.gw.sut.command("trace off")
        self.wall += _clock() - self._t0
        now = self._cpu()
        for key, value in now.items():
            self.cpu[key] = self.cpu.get(key, 0.0) + value - self._cpu0[key]
        self.edges.append((self._before, self._counters()))

    def dump(self, workload: str) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.tracer.dump(str(OUT_DIR / f"spans-{workload}-loadgen.jsonl"))
        if self.gw is not None:
            self.gw.sut.command(f"dump {OUT_DIR / f'spans-{workload}-sut.jsonl'}")

    def layers(
        self,
        *,
        produced: int,
        consumed: int,
        rate_ref: float,
        rate_traced: float,
        polls: int = 0,
        empty_polls: int = 0,
    ) -> dict[str, float]:
        """Every per-layer metric of ``BENCHMARK.json``, for this window.

        ``produced``/``consumed`` are the records the load generator moved
        while the window was open; ``rate_ref``/``rate_traced`` are the
        workload's primary rate with the tracer off and on.
        """
        local = self.tracer.snapshot()
        last = self.edges[-1][1]
        remote = last.get("trace") or {"spans": {}, "covered_s": 0.0, "max_thread_self_s": 0.0}
        spans: dict[str, list] = {}
        for source in (local["spans"], remote["spans"]):
            for name, agg in source.items():
                into = spans.setdefault(name, [0, 0.0, 0.0, 0])
                for i in range(4):
                    into[i] += agg[i]

        def calls(name):
            return spans.get(name, (0, 0.0, 0.0, 0))[0]

        def total(name):
            return spans.get(name, (0, 0.0, 0.0, 0))[1]

        def self_s(*names):
            return sum(spans.get(n, (0, 0.0, 0.0, 0))[2] for n in names)

        def units(name):
            return spans.get(name, (0, 0.0, 0.0, 0))[3]

        def per_m(seconds, count):
            return seconds / (count / 1e6) if count else 0.0

        def delta(group, key):
            return sum(
                after.get(group, {}).get(key, 0) - before.get(group, {}).get(key, 0)
                for before, after in self.edges
            )

        def backup(key):
            return sum(
                sum(b[key] for b in after.get("backups", []))
                - sum(b[key] for b in before.get("backups", []))
                for before, after in self.edges
            )

        records = produced + consumed
        user_bytes = (produced or consumed) * 100
        chunks_built = calls("wire.chunk_seal")
        chunks_decoded = calls("wire.decode_chunk")
        hits, misses = delta("cluster", "fancache_hits"), delta("cluster", "fancache_misses")
        batches = delta("cluster", "batches_shipped")
        gw_batches = delta("gateway", "produce_batches")
        fetch_chunks = units("kera.broker_fetch")
        out = {
            "wire.encode_s_per_mrec": per_m(self_s("wire.encode"), produced),
            "wire.chunk_build_s_per_mchunk": per_m(
                self_s("wire.chunk_build", "wire.chunk_seal"), chunks_built
            ),
            "wire.decode_chunk_s_per_mchunk": per_m(self_s("wire.decode_chunk"), chunks_decoded),
            "wire.decode_records_s_per_mrec": per_m(self_s("wire.decode_records"), consumed),
            "wire.records_per_chunk": (
                produced / chunks_built if chunks_built
                else consumed / chunks_decoded if chunks_decoded
                else 0.0
            ),
            "wire.netframe_send_s_per_mframe": per_m(
                self_s("wire.netframe_send"), calls("wire.netframe_send")
            ),
            "checksum.crc_s_per_mrec": per_m(self_s("checksum.crc", "checksum.algebra"), records),
            "checksum.bytes_per_user_byte": units("checksum.crc") / user_bytes if user_bytes else 0.0,
            "checksum.calls": calls("checksum.crc") + calls("checksum.algebra"),
            "storage.append_s_per_mchunk": per_m(self_s("storage.append"), calls("storage.append")),
            "storage.fancache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "storage.fancache_decodes": delta("cluster", "fancache_decodes"),
            "storage.fancache_evictions": delta("cluster", "fancache_evictions"),
            "storage.index_locates": calls("storage.index_locate"),
            "storage.segments_rolled": delta("cluster", "segments"),
            "replication.vlog_append_s_per_mchunk": per_m(
                self_s("replication.vlog_append"), calls("replication.vlog_append")
            ),
            "replication.chunks_per_batch": delta("cluster", "chunks_shipped") / batches if batches else 0.0,
            "replication.batches_shipped": batches,
            "replication.bytes_shipped_per_user_byte": (
                delta("cluster", "bytes_shipped") / (produced * 100) if produced else 0.0
            ),
            "replication.backup_append_s_per_mchunk": per_m(
                self_s("replication.backup_append"), units("kera.backup_replicate")
            ),
            "kera.broker_produce_s_per_mchunk": per_m(
                self_s("kera.broker_produce"), units("kera.broker_produce")
            ),
            "kera.broker_fetch_s_per_mchunk": per_m(self_s("kera.broker_fetch"), fetch_chunks),
            "kera.backup_replicate_s_per_mchunk": per_m(
                self_s("kera.backup_replicate"), units("kera.backup_replicate")
            ),
            "kera.submit_produce_s_per_mreq": per_m(
                self_s("kera.submit_produce"), calls("kera.submit_produce")
            ),
            "kera.live_fetch_s_per_mreq": per_m(self_s("kera.live_fetch"), calls("kera.live_fetch")),
            "kera.shipper_inflight_peak": last.get("shipper_inflight_peak", 0),
            "kera.duplicate_chunks": delta("cluster", "duplicate_chunks"),
            "kera.produce_requests": calls("kera.broker_produce"),
            "runtime.call_async_s_per_mcall": per_m(
                self_s("runtime.call_async"), calls("runtime.call_async")
            ),
            "runtime.replicate_rtt_p50_ms": remote.get("rtt_p50_ms", 0.0),
            "runtime.replicate_rtt_p90_ms": remote.get("rtt_p90_ms", 0.0),
            "runtime.credit_wait_s": total("runtime.credit_wait"),
            "runtime.completion_s_per_mreq": per_m(
                self_s("runtime.completion"), calls("kera.submit_produce")
            ),
            "runtime.calls": calls("runtime.call_async"),
            "runtime.backup_child_cpu_s_per_mrec": per_m(self.cpu.get("children", 0.0), records),
            "runtime.backup_chunks_received": backup("chunks_received") if self.gw else 0,
            "runtime.backup_batches_received": backup("batches_received") if self.gw else 0,
            "gateway.client_produce_call_s_per_mreq": per_m(
                total("gateway.client_produce_call"), calls("gateway.client_produce_call")
            ),
            "gateway.client_fetch_call_s_per_mreq": per_m(
                total("gateway.client_fetch_call"), calls("gateway.client_fetch_call")
            ),
            "gateway.decode_produce_s_per_mreq": per_m(
                self_s("gateway.decode_produce"), calls("gateway.decode_produce")
            ),
            "gateway.encode_fetch_ok_s_per_mreq": per_m(
                self_s("gateway.encode_fetch_ok"), calls("gateway.encode_fetch_ok")
            ),
            "gateway.coalesce_chunks_per_batch": (
                delta("gateway", "produce_batched_chunks") / gw_batches if gw_batches else 0.0
            ),
            "gateway.inflight_produces_peak": last.get("gateway", {}).get(
                "inflight_produces_peak", 0
            ),
            "gateway.requests_served": delta("gateway", "requests_served"),
            "gateway.fetch_requests": delta("gateway", "fetch_requests"),
            "gateway.empty_fetch_ratio": empty_polls / polls if polls else 0.0,
            "gateway.errors_returned": delta("gateway", "errors_returned"),
            "gateway.sut_parent_cpu_s_per_mrec": per_m(self.cpu.get("sut", 0.0), records),
        }
        traced_cpu = self.cpu.get("loadgen", 0.0) + self.cpu.get("sut", 0.0)
        covered = local["covered_s"] + remote["covered_s"]
        total_spans = sum(agg[0] for agg in spans.values())
        out["trace.overhead_frac"] = 1.0 - rate_traced / rate_ref if rate_ref else 0.0
        out["trace.unattributed_frac"] = max(0.0, 1.0 - covered / traced_cpu) if traced_cpu else 0.0
        out["trace.spans"] = total_spans
        self.extra = {
            "trace.max_thread_self_s": max(local["max_thread_self_s"], remote["max_thread_self_s"]),
            "trace.window_wall_s": self.wall,
            "trace.covered_s": covered,
            "trace.traced_cpu_s": traced_cpu,
            "trace.rate_untraced": rate_ref,
            "trace.rate_traced": rate_traced,
        }
        return out
