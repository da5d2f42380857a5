"""Verification-as-a-service: the ``repro serve`` daemon.

Production Hoyan is a continuously-available service inside Alibaba's WAN
operations loop — verification requests arrive through a GUI and a REST API
and are answered by standing engines that keep expensive per-network state
warm (§6). This package is the reproduction's equivalent: a long-lived
daemon that holds hot state across requests and runs concurrent verify /
simulate / what-if jobs through the :mod:`repro.exec` backend layer.

* :mod:`repro.serve.protocol` — the NDJSON wire protocol (requests,
  responses, streamed progress events);
* :mod:`repro.serve.jobs` — job records, lifecycle states, and the store;
* :mod:`repro.serve.state` — the hot-state cache: parsed models keyed by
  content hash, prepared verifiers (base worlds + base traffic spreads),
  and the snapshot-keyed result cache;
* :mod:`repro.serve.runner` — executes one job against the hot state;
* :mod:`repro.serve.scheduler` — the asyncio admission queue: priority
  classes, per-tenant quotas, bounded worker slots (thread or
  killed-process isolation), cancellation, graceful drain;
* :mod:`repro.serve.server` — the asyncio TCP daemon;
* :mod:`repro.serve.client` — the blocking client the CLI's ``repro
  submit`` / ``status`` / ``result`` commands use.

See ``docs/server.md`` for the protocol and operational notes.
"""

from repro.serve.client import ServeClient, ServerError
from repro.serve.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    JobRecord,
    JobStore,
    QUEUED,
    RUNNING,
)
from repro.serve.protocol import DEFAULT_HOST, DEFAULT_PORT
from repro.serve.scheduler import (
    DrainingError,
    QuotaExceeded,
    QuotaPolicy,
    Scheduler,
)
from repro.serve.server import ServeDaemon
from repro.serve.state import HotState

__all__ = [
    "CANCELLED",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DONE",
    "DrainingError",
    "FAILED",
    "HotState",
    "JobRecord",
    "JobStore",
    "QUEUED",
    "QuotaExceeded",
    "QuotaPolicy",
    "RUNNING",
    "Scheduler",
    "ServeClient",
    "ServeDaemon",
    "ServerError",
]
