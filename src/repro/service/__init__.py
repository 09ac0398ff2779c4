"""Streaming gateway service — the paper's §III scenario as a system.

The in-memory API (`repro.core.api`) compresses one buffer at a time;
this package turns it into a long-running, traffic-serving pipeline:

- :mod:`repro.service.protocol` — a length-prefixed frame protocol
  wrapping the CULZSS container with stream id, sequence number, flags
  (raw passthrough for incompressible frames) and CRCs;
- :mod:`repro.service.pipeline` — bounded-queue ingress/egress stages
  with compression fanned out across a process pool (the CPU-bound
  encoder is the bottleneck, mirroring the paper's CPU/GPU overlap)
  while frame reassembly preserves sequence order;
- :mod:`repro.service.gateway` — an asyncio TCP gateway server and
  client with per-connection timeouts, bounded retry-with-backoff, and
  graceful drain on shutdown.

Each pipeline and endpoint records its frame/byte counters, queue-depth
gauges and ratio/latency histograms into a
:class:`repro.obs.MetricRegistry` — its own by default, or the one
passed as ``metrics=`` — and everything comes out of one
``snapshot()`` dict.
"""

from repro.service.gateway import (
    GatewayClient,
    GatewayServer,
    StreamAck,
    retry_with_backoff,
)
from repro.service.pipeline import (
    EgressPipeline,
    IngressPipeline,
    decode_payload,
    encode_payload,
)
from repro.service.protocol import (
    FLAG_ACK,
    FLAG_END,
    FLAG_RAW,
    FRAME_HEADER_SIZE,
    Frame,
    FrameError,
    decode_frame,
    encode_frame,
    read_frame,
    write_frame,
)

__all__ = [
    "EgressPipeline",
    "FLAG_ACK",
    "FLAG_END",
    "FLAG_RAW",
    "FRAME_HEADER_SIZE",
    "Frame",
    "FrameError",
    "GatewayClient",
    "GatewayServer",
    "IngressPipeline",
    "StreamAck",
    "decode_frame",
    "decode_payload",
    "encode_frame",
    "encode_payload",
    "read_frame",
    "retry_with_backoff",
    "write_frame",
]
