"""Asyncio client gateway: the cluster's network front door.

A single-process ``asyncio`` server that multiplexes thousands of
concurrent producer/consumer connections onto a live KerA cluster.
Clients speak the same length-prefixed frame protocol as the socket
transport (:mod:`repro.wire.netframe`) with gateway-specific frame kinds
(:mod:`repro.gateway.protocol`): produce requests carry encoded chunk
frames verbatim, fetch responses stream zero-copy chunk-frame views
straight out of the broker's fan-out cache.

* :class:`~repro.gateway.server.GatewayServer` — the front door: one
  event loop on a dedicated thread, per-connection request pipelining
  (each request is its own task; responses correlate by request id, not
  order), one transport call (one ``send()`` while the buffer is empty)
  per response frame, and blocking cluster calls bridged off the loop;
* :class:`~repro.gateway.client.AsyncGatewayClient` — the wire client:
  request-id multiplexing over one connection, any number of requests in
  flight;
* :class:`~repro.gateway.client.AsyncProducer` /
  :class:`~repro.gateway.client.AsyncConsumer` — the high-level pair
  mirroring :class:`~repro.kera.client.KeraProducer` /
  :class:`~repro.kera.client.KeraConsumer` over the gateway wire.
"""

from repro.gateway.protocol import GatewayError
from repro.gateway.server import GatewayServer
from repro.gateway.client import AsyncGatewayClient, AsyncProducer, AsyncConsumer

__all__ = [
    "GatewayError",
    "GatewayServer",
    "AsyncGatewayClient",
    "AsyncProducer",
    "AsyncConsumer",
]
