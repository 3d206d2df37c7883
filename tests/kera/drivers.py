"""The four live drivers by name, for driver-parametrized tests.

A test that must hold on every driver takes ``driver="inproc"`` as a
defaulted parameter (pytest does not treat those as fixtures, so the
plain test keeps its name and runs on the synchronous driver) and the
module's ``test_…on_every_other_driver`` matrix (case × driver) re-runs
each such case on the concurrent ones.
"""

from repro.kera import InprocKeraCluster, ThreadedKeraCluster
from repro.kera.process import ProcessKeraCluster
from repro.kera.socket_cluster import SocketKeraCluster

DRIVERS = {
    "inproc": InprocKeraCluster,
    "threaded": ThreadedKeraCluster,
    "process": ProcessKeraCluster,
    "socket": SocketKeraCluster,
}
CONCURRENT = ("threaded", "process", "socket")


def chunks_received(cluster) -> int:
    """Chunks every backup has taken in, wherever the backups live."""
    return sum(
        cluster.backup_stats(node)["chunks_received"]
        for node in cluster.system.node_ids
    )
