"""System-under-test launcher: a socket cluster behind a gateway, in its own process.

Started by :class:`harness.SutProcess`; constructs only public classes
(``SocketKeraCluster`` + ``GatewayServer`` with default arguments) and then
serves a line-oriented control channel on stdin/stdout:

* on start it prints one JSON line ``{"ready": true, "host", "port",
  "pid", "children", "config"}``;
* ``stats``  -> one JSON line of counters read at that instant (gateway
  stats, per-broker cores, fan-out caches, virtual logs, ``backup_stats()``
  of every child, and in a traced run the span aggregates);
* ``trace on|off`` -> open or close the traced window (traced run);
* ``dump <path>`` -> write the in-memory spans to ``path`` (traced run);
* ``quit`` or EOF on stdin -> clean shutdown (gateway, then cluster:
  close-then-drain of the backup children), exit code 0.

EOF is the watchdog: if the load generator dies, its end of the pipe
closes and the SUT tears itself down instead of lingering.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
_SRC = _HERE.parent.parent / "src"
if not (_SRC / "repro").is_dir():
    raise SystemExit(f"sut.py: no source tree at {_SRC}")
sys.path.insert(0, str(_SRC))
sys.path.insert(0, str(_HERE))


def gateway_cluster_config():
    """The gateway workloads' cluster: 3 brokers, R=3, 2 vlogs/broker."""
    from repro.common.units import KB, MB
    from repro.kera import KeraConfig
    from repro.replication.config import ReplicationConfig
    from repro.storage.config import StorageConfig

    return KeraConfig(
        num_brokers=3,
        storage=StorageConfig(segment_size=1 * MB, q_active_groups=2),
        replication=ReplicationConfig(
            replication_factor=3,
            vlogs_per_broker=2,
            pipeline_depth=4,
            ship_window_bytes=2 * MB,
        ),
        chunk_size=4 * KB,
    )


def cluster_counters(cluster) -> dict:
    """Counts read straight off the public cores (no wrappers needed)."""
    brokers = list(cluster.brokers.values())
    out = {
        "chunks_ingested": sum(b.chunks_ingested for b in brokers),
        "records_ingested": sum(b.records_ingested for b in brokers),
        "bytes_ingested": sum(b.bytes_ingested for b in brokers),
        "duplicate_chunks": sum(b.duplicates_dropped for b in brokers),
        "batches_shipped": sum(b.manager.total_batches() for b in brokers),
        "chunks_shipped": sum(b.manager.total_chunks_shipped() for b in brokers),
        "bytes_shipped": sum(
            v.bytes_shipped for b in brokers for v in b.manager.vlogs
        ),
        "vlogs": sum(b.manager.vlog_count for b in brokers),
        "segments": sum(b.allocator.segments_allocated for b in brokers),
    }
    for name in ("hits", "misses", "evictions", "decodes"):
        out[f"fancache_{name}"] = sum(getattr(b.fancache, name).value for b in brokers)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()

    from repro.gateway import GatewayServer
    from repro.kera import SocketKeraCluster

    config = gateway_cluster_config()
    control_out = os.fdopen(os.dup(1), "w", buffering=1)
    # Anything the SUT prints by accident must not corrupt the channel.
    os.dup2(2, 1)

    def reply(obj: dict) -> None:
        control_out.write(json.dumps(obj) + "\n")
        control_out.flush()

    with SocketKeraCluster(config, ack_timeout=30.0) as cluster:
        with GatewayServer(cluster) as gateway:
            host, port = gateway.address()
            nodes = list(cluster.system.node_ids)
            children = [cluster.transport.worker_pid(n, "backup") for n in nodes]
            inflight_peak = [0]
            stop_sampler = threading.Event()

            def sample_shippers() -> None:
                while not stop_sampler.wait(0.01):
                    if not tracer.enabled:
                        continue
                    now = sum(cluster.shipper(n).in_flight_batches() for n in nodes)
                    if now > inflight_peak[0]:
                        inflight_peak[0] = now

            sampler = None
            if tracer is not None:
                sampler = threading.Thread(target=sample_shippers, daemon=True)
                sampler.start()
            reply(
                {
                    "ready": True,
                    "host": host,
                    "port": port,
                    "pid": os.getpid(),
                    "children": children,
                    "config": {
                        "driver": "SocketKeraCluster",
                        "brokers": config.num_brokers,
                        "replication_factor": config.replication.replication_factor,
                        "vlogs_per_broker": config.replication.vlogs_per_broker,
                        "chunk_size": config.chunk_size,
                        "segment_size": config.storage.segment_size,
                        "flush_policy": "none (no persist_dir)",
                    },
                }
            )
            for line in sys.stdin:
                command = line.split()
                if not command:
                    continue
                if command[0] == "quit":
                    break
                if command[0] == "stats":
                    stats = gateway.stats
                    snapshot = {
                        "t": time.perf_counter(),
                        "gateway": {
                            name: getattr(stats, name)
                            for name in (
                                "requests_served",
                                "produce_requests",
                                "fetch_requests",
                                "errors_returned",
                                "chunks_in",
                                "chunks_out",
                                "produce_batches",
                                "produce_batched_chunks",
                                "inflight_produces_peak",
                            )
                        },
                        "cluster": cluster_counters(cluster),
                        "backups": [cluster.backup_stats(n) for n in nodes],
                        "shipper_inflight_peak": inflight_peak[0],
                    }
                    if tracer is not None:
                        snapshot["trace"] = tracer.snapshot()
                    reply(snapshot)
                elif command[0] == "trace" and tracer is not None:
                    tracer.enabled = command[1] == "on"
                    reply({"tracing": tracer.enabled})
                elif command[0] == "dump" and tracer is not None:
                    reply({"spans_written": tracer.dump(command[1])})
                else:
                    reply({"error": f"unknown command {line.strip()!r}"})
            stop_sampler.set()
            if sampler is not None:
                sampler.join(timeout=1.0)
    reply({"stopped": True})
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
