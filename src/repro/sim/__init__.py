"""Deterministic discrete-event simulation substrate.

This package replaces the paper's Grid'5000 testbed (repro band 2/5: we
have neither the cluster nor a language that can push millions of
records/second through real sockets). It provides:

* :mod:`repro.sim.engine` — a seedable, deterministic event engine with
  generator-based processes (a lean re-implementation of the SimPy model:
  events, timeouts, process interrupts, and/all conditions);
* :mod:`repro.sim.resources` — counted resources (CPU worker pools, NIC
  serialization);
* :mod:`repro.sim.network` — a NIC/latency network model: per-message
  sender and receiver serialization at link bandwidth plus propagation
  delay;
* :mod:`repro.sim.disk` — the backups' secondary storage (asynchronous
  flushes only: the paper's producer path never waits on disk);
* :mod:`repro.sim.costmodel` — the calibrated cost constants (per-RPC
  dispatch cost, per-chunk append cost, memcpy bandwidth, link speed)
  shared by the KerA and Kafka cluster drivers.

Nothing in this package reads the wall clock; two runs with the same seed
produce identical traces.
"""

from repro.sim.engine import (
    Environment,
    Event,
    Process,
    Timeout,
    Interrupt,
    AllOf,
    AnyOf,
)
from repro.sim.resources import Resource
from repro.sim.network import NetworkModel, Nic
from repro.sim.disk import DiskModel
from repro.sim.costmodel import CostModel

__all__ = [
    "Environment",
    "Event",
    "Process",
    "Timeout",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Resource",
    "NetworkModel",
    "Nic",
    "DiskModel",
    "CostModel",
]
