"""Transport-agnostic cluster runtime.

The broker, backup, and coordinator cores are sans-IO state machines;
this package owns everything around them that used to be hand-wired per
driver: request completion tracking, core construction, stream catalog
plumbing, and the simulator's ship-loop shell. A driver now only picks a
:class:`Transport` and contributes thin per-transport effect handlers
(cost charging in the simulator, locking in the threaded live mode).

* :class:`Transport` — how a request reaches a service on a node and how
  its response comes back (``repro.runtime.transport``);
* :class:`ClusterRuntime` — wires coordinator + system cores + completion
  tracking once, for every transport (``repro.runtime.runtime``);
* :class:`KeraSystem` / :class:`KafkaSystem` — system adapters
  contributing only their cores and effect handlers
  (``repro.runtime.system``);
* :class:`SimTransport` — the discrete-event fabric
  (``repro.runtime.sim``), :class:`InprocTransport` — synchronous
  in-process calls, :class:`ThreadedTransport` — one bounded request
  queue and worker-thread pool per (node, service),
  :class:`WorkerTransport` — the threaded transport plus bindings hosted
  in worker processes, reached over the pipe their spec picks
  (:class:`ProcessServiceSpec`: shared-memory rings,
  :class:`SocketServiceSpec`: framed TCP). ``ProcessTransport`` and
  ``SocketTransport`` both name that one class.

Import discipline: this package is imported *by* ``repro.kera`` and
``repro.kafka`` (their drivers run on it), so every import of those
packages' cores happens lazily inside methods — never at module level.
"""

from repro.runtime.completion import CompletionTracker
from repro.runtime.transport import Transport
from repro.runtime.runtime import ClusterRuntime
from repro.runtime.system import SystemAdapter, KeraSystem, KafkaSystem
from repro.runtime.inproc import InprocTransport
from repro.runtime.threaded import ThreadedTransport
from repro.runtime.worker import WorkerTransport, WorkerSpec
from repro.runtime.process import ProcessTransport, ProcessServiceSpec
from repro.runtime.socket_transport import SocketTransport, SocketServiceSpec
from repro.runtime.sim import SimTransport

__all__ = [
    "CompletionTracker",
    "Transport",
    "ClusterRuntime",
    "SystemAdapter",
    "KeraSystem",
    "KafkaSystem",
    "InprocTransport",
    "ThreadedTransport",
    "WorkerTransport",
    "WorkerSpec",
    "ProcessTransport",
    "ProcessServiceSpec",
    "SocketTransport",
    "SocketServiceSpec",
    "SimTransport",
]
