"""Distributed execution backend: master/worker with a thread pool.

Each ``run_routes`` builds a fresh
:class:`~repro.distsim.master.DistributedRouteSimulation` (fresh MQ, object
store, and subtask DB — matching the historical per-call behavior), so
chaos fault injection and retry accounting start clean per task. Traffic
simulation runs distributed only when the request carries the preceding
route outcome (whose task holds the shared store/DB that lets traffic
workers discover RIB result files); otherwise it falls back to the
in-process simulator over the merged RIBs, which is what the verification
pipeline always did.
"""

from __future__ import annotations

from typing import List, Optional

from repro.distsim.chaos import ChaosPolicy
from repro.distsim.master import (
    DistributedRouteSimulation,
    DistributedTrafficSimulation,
    RetryPolicy,
)
from repro.distsim.worker import WorkerConfig
from repro.exec.base import (
    ExecutionBackend,
    RouteSimOutcome,
    RouteSimRequest,
    TrafficSimOutcome,
    TrafficSimRequest,
    resource_accounting,
    run_traffic_in_process,
)
from repro.obs import RunContext, ensure_context
from repro.routing.connected import install_connected_routes
from repro.routing.inputs import InputRoute, build_local_input_routes


class DistributedBackend(ExecutionBackend):
    """Execution through the distributed master/worker framework."""

    is_distributed = True
    name = "distributed-thread"

    def __init__(
        self,
        route_subtasks: int = 100,
        traffic_subtasks: int = 128,
        workers: int = 1,
        chaos: Optional[ChaosPolicy] = None,
        retry: Optional[RetryPolicy] = None,
        worker_config: Optional[WorkerConfig] = None,
    ) -> None:
        self.route_subtasks = route_subtasks
        self.traffic_subtasks = traffic_subtasks
        self.workers = workers
        self.chaos = chaos
        self.retry = retry
        self.worker_config = worker_config

    def run_routes(
        self, request: RouteSimRequest, ctx: Optional[RunContext] = None
    ) -> RouteSimOutcome:
        ctx = ensure_context(ctx)
        inputs: List[InputRoute] = list(request.inputs)
        if request.include_local_inputs:
            inputs = list(build_local_input_routes(request.model)) + inputs
        subtasks = request.subtasks if request.subtasks is not None else self.route_subtasks
        workers = request.workers if request.workers is not None else self.workers
        with ctx.span(
            "route_sim", backend=self.name, inputs=len(inputs), subtasks=subtasks
        ), resource_accounting(ctx):
            ctx.count("route_sim.calls")
            ctx.count("route_sim.inputs", len(inputs))
            sim = DistributedRouteSimulation(
                request.model,
                igp=request.igp,
                worker_config=request.worker_config or self.worker_config,
                chaos=self.chaos,
                retry=self.retry,
                max_rounds=request.max_rounds,
            )
            task = sim.run(
                inputs,
                subtasks=subtasks,
                workers=workers,
                partitioner=request.partitioner,
                task_name=request.task_name,
                ctx=ctx,
            )
            install_connected_routes(
                request.model, task.device_ribs, request.connected_filter
            )
            return RouteSimOutcome(
                device_ribs=task.device_ribs,
                igp=sim.igp,
                backend=self.name,
                skipped_subtasks=task.skipped_subtasks,
                task=task,
            )

    def run_traffic(
        self, request: TrafficSimRequest, ctx: Optional[RunContext] = None
    ) -> TrafficSimOutcome:
        ctx = ensure_context(ctx)
        route = request.route_outcome
        if route is not None and route.task is not None:
            subtasks = (
                request.subtasks if request.subtasks is not None else self.traffic_subtasks
            )
            workers = request.workers if request.workers is not None else self.workers
            with ctx.span(
                "traffic_sim", backend=self.name, flows=len(request.flows),
                subtasks=subtasks,
            ), resource_accounting(ctx):
                ctx.count("traffic_sim.calls")
                sim = DistributedTrafficSimulation(
                    request.model,
                    igp=request.igp if request.igp is not None else route.igp,
                    store=route.task.store,
                    db=route.task.db,
                    worker_config=request.worker_config or self.worker_config,
                    chaos=self.chaos,
                    retry=self.retry,
                )
                task = sim.run(
                    request.flows,
                    subtasks=subtasks,
                    workers=workers,
                    partitioner=request.partitioner,
                    task_name=request.task_name,
                    ctx=ctx,
                )
                return TrafficSimOutcome(
                    loads=task.loads,
                    paths=task.paths,
                    backend=self.name,
                    task=task,
                )
        # No route-task artifacts to share: run in-process over merged RIBs.
        return run_traffic_in_process(request, ctx, "centralized")
