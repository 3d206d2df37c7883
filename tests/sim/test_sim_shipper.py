"""The simulator ships through the live drivers' ship core.

The credit window is a real sim axis, and a golden run of four figure
points pins the simulator's output, so its ship loop cannot drift
silently.
"""

import pytest

from repro.bench.workload import kera_point
from repro.common.units import KB
from repro.kera import KeraConfig, SimKeraCluster
from repro.replication.config import ReplicationConfig
from repro.simdriver import SimWorkload
from repro.storage.config import StorageConfig


def test_sim_never_has_more_unacked_replicate_bytes_than_the_window():
    window = 4 * KB
    config = KeraConfig(
        num_brokers=4,
        storage=StorageConfig(materialize=False),
        replication=ReplicationConfig(
            replication_factor=3,
            vlogs_per_broker=4,
            pipeline_depth=4,
            ship_window_bytes=window,
        ),
        chunk_size=1 * KB,
    )
    workload = SimWorkload.many_streams(
        64, num_producers=4, num_consumers=0, duration=0.02, warmup=0.005
    )
    cluster = SimKeraCluster(config, workload)
    # Per broker: replicate requests some backup has not answered yet.
    unacked = {node: {} for node in cluster.broker_nodes}
    calls = {}
    peaks = []
    real_call = cluster.fabric.call

    def call(src, dst, service, method, request, request_bytes):
        process = real_call(src, dst, service, method, request, request_bytes)
        if method == "replicate":
            flights = unacked[src]
            flights[id(request)] = request_bytes
            calls[id(request)] = calls.get(id(request), 0) + 1
            peaks.append((sum(flights.values()), len(flights)))

            def answered(_event, key=id(request)):
                calls[key] -= 1
                if not calls[key]:
                    del flights[key]

            process.callbacks.append(answered)
        return process

    cluster.fabric.call = call
    result = cluster.run()
    assert result.records_acked > 0
    # Over the window only as the one batch admitted alone.
    over = [(total, n) for total, n in peaks if total > window and n > 1]
    assert over == []
    # The window, not the pipeline slots, is what bound the flights.
    assert max(total for total, _ in peaks) > window // 2


# Fig. 13's three series at 128 streams, and Fig. 14's R2 series at one
# virtual log: (Mrec/s, records acked, replication RPCs) at 0.05 s.
GOLDEN = [
    ("fig13 1 vlogs @128", 1, 3, 1.2287999999999997, 56672, 112),
    ("fig13 2 vlogs @128", 2, 3, 2.5919999999999996, 112224, 448),
    ("fig13 4 vlogs @128", 4, 3, 4.127999999999999, 191584, 1642),
    ("fig14 R2 @1 vlog", 1, 2, 1.5359999999999998, 66912, 60),
]


@pytest.mark.parametrize(
    "label,vlogs,r,mrps,acked,rpcs", GOLDEN, ids=[g[0] for g in GOLDEN]
)
def test_golden_figure_points(label, vlogs, r, mrps, acked, rpcs):
    point = kera_point(
        series=label, x=vlogs, streams=128, producers=8, r=r, vlogs=vlogs, duration=0.05
    )
    run = point.run()
    assert (run.mrps, run.result.records_acked, run.result.replication_rpcs) == (
        mrps,
        acked,
        rpcs,
    )
