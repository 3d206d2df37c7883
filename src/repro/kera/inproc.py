"""In-process KerA cluster: the live, real-bytes synchronous driver.

Every core runs in this process and every call is synchronous; chunk
payloads are real encoded records end to end (produce → segment bytes →
replication RPC → backup segment bytes → fetch → decode). There is no
timing here — this driver exists to prove the *data path* and to host the
integration tests and examples; performance questions go to
:mod:`repro.kera.cluster_sim`, concurrency questions to
:mod:`repro.kera.threaded`.

The cluster assembly, the broker service, the produce path and the
replication ship loop live in :class:`repro.kera.live.LiveKeraCluster`;
this module contributes only :class:`repro.runtime.InprocTransport` and
inline backup flushes. It starts no thread: the shippers pump on the
thread that kicks them, and the synchronous transport resolves every
replicate call before it returns, so a produce is durable by the time
its append call returns.
"""

from __future__ import annotations

from repro.runtime.inproc import InprocTransport
from repro.kera.config import KeraConfig
from repro.kera.live import LiveKeraCluster


class InprocKeraCluster(LiveKeraCluster):
    """A whole KerA cluster in one process."""

    def __init__(self, config: KeraConfig | None = None) -> None:
        super().__init__(config, InprocTransport())

    def _backup_binding(self, node_id: int) -> object:
        # Inline flushes: this driver stays single-threaded.
        return self._local_backup(node_id, async_flush=False)
