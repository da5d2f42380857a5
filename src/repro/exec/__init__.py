"""Pluggable execution backends for route and traffic simulation.

The one place that knows how simulation requests turn into work:

* :class:`CentralizedBackend` — in-process (optionally the chunked
  Figure-1 runner with a memory budget);
* :class:`DistributedBackend` — master/worker framework on a thread
  pool, chaos/retry passthrough;
* :class:`IncrementalBackend` — warm-start decorator splicing partial
  re-simulations into base state.

All other layers (pipeline, diagnosis, k-failure, benchmarks, CLI) build
requests and call :meth:`ExecutionBackend.run_routes` /
:meth:`ExecutionBackend.run_traffic`; none of them construct
``CentralizedRunner`` or ``DistributedRouteSimulation`` directly.
"""

from repro.exec.base import (
    BACKEND_NAMES,
    ExecutionBackend,
    RouteSimOutcome,
    RouteSimRequest,
    TrafficSimOutcome,
    TrafficSimRequest,
    make_backend,
)
from repro.exec.centralized import CentralizedBackend
from repro.exec.distributed import DistributedBackend
from repro.exec.incremental import IncrementalBackend, WarmStart

__all__ = [
    "BACKEND_NAMES",
    "CentralizedBackend",
    "DistributedBackend",
    "ExecutionBackend",
    "IncrementalBackend",
    "RouteSimOutcome",
    "RouteSimRequest",
    "TrafficSimOutcome",
    "TrafficSimRequest",
    "WarmStart",
    "make_backend",
]
