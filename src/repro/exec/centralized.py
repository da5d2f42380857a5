"""In-process execution backend.

Two flavors behind one class: the default path runs
:class:`~repro.routing.simulator.RouteSimulator` directly (what the
pipeline's non-distributed mode always did), while ``memory_limit_rows`` /
``chunked=True`` selects the chunked Figure-1 runner with its simulated
memory budget (raising :class:`~repro.distsim.centralized.MemoryExhausted`
when exceeded and reporting ``rib_rows``).
"""

from __future__ import annotations

from typing import List, Optional

from repro.distsim.centralized import CentralizedRunner
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
from repro.routing.isis import compute_igp
from repro.routing.simulator import RouteSimulator


class CentralizedBackend(ExecutionBackend):
    """Single-server execution: everything in the calling process."""

    is_distributed = False

    def __init__(
        self,
        chunked: bool = False,
        memory_limit_rows: Optional[int] = None,
        chunk_size: int = 64,
    ) -> None:
        self.chunked = chunked or memory_limit_rows is not None
        self.memory_limit_rows = memory_limit_rows
        self.chunk_size = chunk_size
        self.name = "centralized-chunked" if self.chunked else "centralized"

    def run_routes(
        self, request: RouteSimRequest, ctx: Optional[RunContext] = None
    ) -> RouteSimOutcome:
        ctx = ensure_context(ctx)
        inputs: List[InputRoute] = list(request.inputs)
        if request.include_local_inputs:
            inputs = list(build_local_input_routes(request.model)) + inputs
        igp = request.igp if request.igp is not None else compute_igp(request.model)
        with ctx.span("route_sim", backend=self.name, inputs=len(inputs)), \
                resource_accounting(ctx):
            ctx.count("route_sim.calls")
            ctx.count("route_sim.inputs", len(inputs))
            if self.chunked:
                runner = CentralizedRunner(
                    request.model,
                    igp=igp,
                    memory_limit_rows=self.memory_limit_rows,
                    chunk_size=self.chunk_size,
                    max_rounds=request.max_rounds,
                )
                chunked = runner.run(inputs, ctx=ctx)
                ctx.count("route_sim.rib_rows", chunked.rib_rows)
                install_connected_routes(
                    request.model, chunked.device_ribs, request.connected_filter
                )
                return RouteSimOutcome(
                    device_ribs=chunked.device_ribs,
                    igp=igp,
                    backend=self.name,
                    rib_rows=chunked.rib_rows,
                )
            simulator = RouteSimulator(
                request.model,
                igp=igp,
                max_rounds=request.max_rounds,
                sessions=request.sessions,
                connected_filter=request.connected_filter,
            )
            result = simulator.simulate(inputs, include_local_inputs=False, ctx=ctx)
            ctx.count("route_sim.cost_units", result.cost_units)
            return RouteSimOutcome(
                device_ribs=result.device_ribs,
                igp=result.igp,
                backend=self.name,
                result=result,
            )

    def run_traffic(
        self, request: TrafficSimRequest, ctx: Optional[RunContext] = None
    ) -> TrafficSimOutcome:
        return run_traffic_in_process(request, ensure_context(ctx), self.name)
