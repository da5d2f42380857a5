"""The pluggable execution-backend interface.

Every consumer of route- and traffic-simulation — the change-verification
pipeline, diagnosis, k-failure checking, the benchmark harnesses, the CLI —
dispatches through one :class:`ExecutionBackend` instead of branching on
"centralized vs distributed vs incremental" at each call site. A backend
takes a :class:`RouteSimRequest` / :class:`TrafficSimRequest` and returns a
:class:`RouteSimOutcome` / :class:`TrafficSimOutcome`; *how* the work runs
(in-process, thread workers, process workers, warm-started) is the
backend's business.

Implementations:

* :class:`~repro.exec.centralized.CentralizedBackend` — in-process
  simulation (optionally the chunked Figure-1 runner with a memory budget);
* :class:`~repro.exec.distributed.DistributedBackend` — the master/worker
  framework with thread or process pools;
* :class:`~repro.exec.incremental.IncrementalBackend` — a decorator that
  warm-starts route simulation from the base world's RIBs when the request
  carries a :class:`~repro.exec.incremental.WarmStart`.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.net.model import NetworkModel
from repro.obs import RunContext, peak_rss_bytes
from repro.routing import interning
from repro.routing.inputs import InputRoute
from repro.routing.isis import IgpState
from repro.routing.rib import DeviceRib, WithGlobalRib
from repro.traffic.flow import Flow
from repro.traffic.simulator import SpreadReuse, TrafficSimulator


@contextmanager
def resource_accounting(ctx: RunContext) -> Iterator[None]:
    """Record memory / interning behaviour of one dispatch on ``ctx``.

    On exit, attaches ``routes.interned`` / ``routes.unique`` (the delta of
    the process-wide interning totals over the guarded block — allocations
    saved vs. first-sighting routes) to the calling thread's current span,
    and updates the ``memory.peak_rss_bytes`` high-water gauge on the root
    span. Backends open this inside their ``route_sim`` / ``traffic_sim``
    spans so the interning counters land on the dispatch that produced them.
    """
    before = interning.stats_snapshot()
    try:
        yield
    finally:
        delta = interning.stats_snapshot().delta_since(before)
        if delta.route_hits:
            ctx.count("routes.interned", delta.route_hits)
        if delta.route_misses:
            ctx.count("routes.unique", delta.route_misses)
        ctx.set_max("memory.peak_rss_bytes", peak_rss_bytes())


@dataclass
class RouteSimRequest:
    """One route-simulation dispatch.

    ``subtasks``/``workers``/``partitioner``/``worker_config`` override the
    backend's configured defaults for this call (distributed backends only);
    ``warm_start`` is honored by :class:`IncrementalBackend` and ignored by
    the terminal backends.
    """

    model: NetworkModel
    inputs: Sequence[InputRoute]
    igp: Optional[IgpState] = None
    include_local_inputs: bool = False
    max_rounds: int = 50
    subtasks: Optional[int] = None
    workers: Optional[int] = None
    partitioner: Any = None
    worker_config: Any = None
    task_name: str = "route-task"
    warm_start: Any = None
    #: blast-radius region scope: set by :class:`IncrementalBackend` when
    #: the warm start's delta is confined to one topology region, letting a
    #: modular inner backend re-simulate that region alone against the base
    #: border summaries. Terminal backends other than modular ignore it.
    region_scope: Optional[str] = None


@dataclass
class RouteSimOutcome(WithGlobalRib):
    """Merged result of a route-simulation dispatch, backend-agnostic.

    ``device_ribs``/``igp`` are always populated. ``result`` carries the
    in-process :class:`~repro.routing.simulator.SimulationResult` when the
    backend ran centralized, ``task`` the distributed
    :class:`~repro.distsim.master.RouteTaskResult` (store/DB/report/
    makespan model) when it ran distributed, and ``splice`` the
    :class:`~repro.incremental.engine.SpliceResult` when a warm start
    spliced base state back in.
    """

    device_ribs: Dict[str, DeviceRib]
    igp: IgpState
    backend: str = "centralized"
    skipped_subtasks: int = 0
    rib_rows: Optional[int] = None
    result: Any = None
    task: Any = None
    splice: Any = None
    resimulated_inputs: Optional[int] = None

    @property
    def subtask_durations(self) -> List[float]:
        return list(self.task.subtask_durations) if self.task is not None else []

    def makespan(self, servers: int) -> float:
        if self.task is None:
            raise ValueError("makespan model requires a distributed run")
        return self.task.makespan(servers)

    @property
    def report(self):
        """The distributed run's :class:`RunReport` (None when centralized)."""
        return self.task.report if self.task is not None else None


@dataclass
class TrafficSimRequest:
    """One traffic-simulation dispatch.

    ``device_ribs`` drives the in-process path. ``route_outcome`` — a
    :class:`RouteSimOutcome` whose ``task`` holds the route store/DB —
    enables genuinely distributed traffic subtasks with RIB-file dependency
    reduction; without it a distributed backend falls back to the
    in-process simulator over the merged RIBs. ``reuse`` lets the
    in-process path keep base spreads the change cannot reach; distributed
    traffic subtasks ignore it.
    """

    model: NetworkModel
    flows: Sequence[Flow]
    device_ribs: Optional[Dict[str, DeviceRib]] = None
    igp: Optional[IgpState] = None
    route_outcome: Optional[RouteSimOutcome] = None
    subtasks: Optional[int] = None
    workers: Optional[int] = None
    partitioner: Any = None
    worker_config: Any = None
    task_name: str = "traffic-task"
    reuse: Optional[SpreadReuse] = None


@dataclass
class TrafficSimOutcome:
    """Merged result of a traffic-simulation dispatch."""

    loads: Any
    paths: Dict = field(default_factory=dict)
    backend: str = "centralized"
    #: in-process TrafficSimulationResult (None for distributed subtasks)
    result: Any = None
    #: distributed TrafficTaskResult (None for in-process runs)
    task: Any = None

    def makespan(self, servers: int) -> float:
        if self.task is None:
            raise ValueError("makespan model requires a distributed run")
        return self.task.makespan(servers)

    @property
    def loaded_rib_fractions(self) -> List[float]:
        return list(self.task.loaded_rib_fractions) if self.task is not None else []


def run_traffic_in_process(
    request: TrafficSimRequest,
    ctx: RunContext,
    backend: str,
    workers: Optional[int] = None,
    parallel_mode: str = "thread",
) -> TrafficSimOutcome:
    """The in-process traffic path every backend shares.

    Simulates over ``request.device_ribs`` (or the route outcome's) inside
    one ``traffic_sim`` span tagged ``backend``; ``request.workers``
    overrides the backend's default ``workers``.
    """
    route = request.route_outcome
    device_ribs = request.device_ribs
    if device_ribs is None and route is not None:
        device_ribs = route.device_ribs
    if device_ribs is None:
        raise ValueError("traffic simulation needs device_ribs or route_outcome")
    igp = request.igp
    if igp is None and route is not None:
        igp = route.igp
    if request.workers is not None:
        workers = request.workers
    with ctx.span("traffic_sim", backend=backend, flows=len(request.flows)), \
            resource_accounting(ctx):
        ctx.count("traffic_sim.calls")
        simulator = TrafficSimulator(request.model, device_ribs, igp=igp)
        result = simulator.simulate(
            request.flows,
            ctx=ctx,
            workers=workers,
            parallel_mode=parallel_mode,
            reuse=request.reuse,
        )
        ctx.count("traffic_sim.cost_units", result.cost_units)
        return TrafficSimOutcome(
            loads=result.loads,
            paths=result.paths,
            backend=backend,
            result=result,
        )


class ExecutionBackend(abc.ABC):
    """Strategy interface: how simulation requests are executed."""

    #: human-readable backend identity ("centralized", "distributed-thread", ...)
    name: str = "backend"
    #: True when subtasks run through the distributed master/worker framework
    is_distributed: bool = False

    @abc.abstractmethod
    def run_routes(
        self, request: RouteSimRequest, ctx: Optional[RunContext] = None
    ) -> RouteSimOutcome:
        """Execute a route-simulation request."""

    @abc.abstractmethod
    def run_traffic(
        self, request: TrafficSimRequest, ctx: Optional[RunContext] = None
    ) -> TrafficSimOutcome:
        """Execute a traffic-simulation request."""


#: Backend names accepted by :func:`make_backend` and the CLI ``--backend``.
BACKEND_NAMES = (
    "centralized",
    "distributed-thread",
    "distributed-process",
    "modular",
)


def make_backend(name: str = "centralized", **options: Any) -> ExecutionBackend:
    """Build a terminal backend by name.

    ``options`` are forwarded to the backend constructor; distributed names
    accept ``route_subtasks``/``traffic_subtasks``/``workers``/``chaos``/
    ``retry``/``worker_config``, centralized accepts ``max_rounds`` and the
    chunked-runner knobs, modular accepts ``exchange_rounds``/``assume``/
    ``summary_store``.
    """
    from repro.exec.centralized import CentralizedBackend
    from repro.exec.distributed import DistributedBackend
    from repro.exec.modular import ModularBackend

    if name == "centralized":
        return CentralizedBackend(**options)
    if name == "distributed-thread":
        return DistributedBackend(mode="thread", **options)
    if name == "distributed-process":
        return DistributedBackend(mode="process", **options)
    if name == "modular":
        return ModularBackend(**options)
    raise ValueError(f"unknown backend {name!r}; expected one of {BACKEND_NAMES}")
