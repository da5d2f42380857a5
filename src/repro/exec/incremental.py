"""Incremental warm-start as an execution-backend decorator.

:class:`IncrementalBackend` wraps any terminal backend. Requests without a
:class:`WarmStart` pass straight through; requests carrying one re-simulate
only the blast-radius-covered inputs — by filtering the input list on an
in-process inner backend (centralized), or with a
:class:`~repro.distsim.partition.CoveredSubsetPartitioner` on a distributed
one (splitting the *full* list first keeps subtask grouping identical to a
full run, and empty chunks are skipped entirely) — then splice the partial
result into the unaffected base state via the
:class:`~repro.incremental.engine.IncrementalEngine`. A widened radius
covers every input: the run is a full one, and the splice still keeps the
base RIB of every device whose slots it leaves unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional

from repro.distsim.partition import CoveredSubsetPartitioner
from repro.exec.base import (
    ExecutionBackend,
    RouteSimOutcome,
    RouteSimRequest,
    TrafficSimOutcome,
    TrafficSimRequest,
)
from repro.incremental.blast import BlastRadius
from repro.incremental.engine import IncrementalEngine
from repro.obs import RunContext, ensure_context
from repro.routing.inputs import InputRoute
from repro.routing.rib import DeviceRib


@dataclass
class WarmStart:
    """Everything a warm-started route simulation needs from the base run."""

    blast: BlastRadius
    base_ribs: Dict[str, DeviceRib]
    #: devices the splice compares at every slot, not only the covered
    #: ones — failed routers in k-failure scenarios, whose cold-run RIBs
    #: are empty at every prefix, covered or not.
    full_devices: FrozenSet[str] = frozenset()


class IncrementalBackend(ExecutionBackend):
    """Warm-start decorator around a terminal execution backend."""

    def __init__(self, inner: ExecutionBackend, engine: IncrementalEngine) -> None:
        self.inner = inner
        self.engine = engine
        self.name = f"incremental+{inner.name}"

    @property
    def is_distributed(self) -> bool:  # type: ignore[override]
        return self.inner.is_distributed

    def run_routes(
        self, request: RouteSimRequest, ctx: Optional[RunContext] = None
    ) -> RouteSimOutcome:
        warm = request.warm_start
        if warm is None:
            return self.inner.run_routes(request, ctx)
        ctx = ensure_context(ctx)
        # the inputs inside the blast radius, in original (full-run) order
        covered: List[InputRoute] = [
            item for item in request.inputs if warm.blast.covers(item.route.prefix)
        ]
        with ctx.span(
            "incremental_route_sim",
            backend=self.inner.name,
            covered=len(covered),
            total=len(request.inputs),
        ):
            if self.inner.is_distributed:
                # Split the full input list, then filter per chunk: chunk
                # assignment matches a full run and empty chunks are skipped.
                partitioner = CoveredSubsetPartitioner(
                    lambda item: warm.blast.covers(item.route.prefix),
                    inner=request.partitioner,
                )
                inner_request = replace(
                    request, partitioner=partitioner, warm_start=None
                )
            else:
                inner_request = replace(request, inputs=covered, warm_start=None)
            partial = self.inner.run_routes(inner_request, ctx)
            splice = self.engine.splice(
                warm.base_ribs,
                partial.device_ribs,
                warm.blast,
                ctx=ctx,
                full_devices=warm.full_devices,
            )
            return RouteSimOutcome(
                device_ribs=splice.device_ribs,
                igp=partial.igp,
                backend=self.name,
                skipped_subtasks=partial.skipped_subtasks,
                result=partial.result,
                task=partial.task,
                splice=splice,
                resimulated_inputs=len(covered),
            )

    def run_traffic(
        self, request: TrafficSimRequest, ctx: Optional[RunContext] = None
    ) -> TrafficSimOutcome:
        return self.inner.run_traffic(request, ctx)
