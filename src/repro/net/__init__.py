"""Network edges: the resilient serving gateway and the non-resilient baseline.

- :class:`KarGateway` -- asyncio HTTP/1.1 REST server exposing the KAR
  sidecar API (actor calls/tells, state, reminders, system views) over a
  real socket, bridged onto the simulation kernel by :class:`KernelBridge`.
- :class:`GatewayMetrics` -- per-route counters and latency histograms,
  surfaced at ``GET /system/stats`` and ``app.stats("gateway")``.
- :class:`DirectHttpBaseline` -- the paper's Table 2 "Direct HTTP"
  baseline: a non-resilient request/response transport inside the
  simulation.
"""

from repro.net.baseline import DirectHttpBaseline
from repro.net.gateway import ERROR_STATUS, KarGateway, KernelBridge, map_error
from repro.net.metrics import GatewayMetrics, LatencyHistogram

__all__ = [
    "DirectHttpBaseline",
    "ERROR_STATUS",
    "GatewayMetrics",
    "KarGateway",
    "KernelBridge",
    "LatencyHistogram",
    "map_error",
]
