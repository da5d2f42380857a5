"""The original centralized simulation (the Figure 1 baseline).

Runs the whole input set through a single-server simulation, with a memory
model: the run aborts with :class:`MemoryExhausted` once the accumulated RIB
row count exceeds the configured budget — reproducing the paper's
observation that centralized Hoyan could simulate only part of the WAN+DCN
prefixes before running out of memory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.distsim.partition import OrderingPartitioner
from repro.net.model import NetworkModel
from repro.routing.inputs import InputRoute
from repro.routing.isis import IgpState, compute_igp
from repro.routing.rib import DeviceRib
from repro.routing.simulator import RouteSimulator


class MemoryExhausted(MemoryError):
    """The simulated memory budget was exceeded."""

    def __init__(self, completed_fraction: float, rows: int) -> None:
        super().__init__(
            f"memory budget exceeded after {completed_fraction:.0%} of inputs "
            f"({rows} RIB rows)"
        )
        self.completed_fraction = completed_fraction
        self.rows = rows


@dataclass
class CentralizedResult:
    device_ribs: Dict[str, DeviceRib]
    elapsed_seconds: float
    rib_rows: int
    completed_fraction: float = 1.0


class CentralizedRunner:
    """Single-server simulation with an optional row-count memory budget."""

    def __init__(
        self,
        model: NetworkModel,
        igp: Optional[IgpState] = None,
        memory_limit_rows: Optional[int] = None,
        chunk_size: int = 64,
        max_rounds: int = 50,
    ) -> None:
        self.model = model
        self.igp = igp if igp is not None else compute_igp(model)
        self.memory_limit_rows = memory_limit_rows
        self.chunk_size = chunk_size
        self.max_rounds = max_rounds

    def run(
        self, input_routes: Sequence[InputRoute], ctx=None
    ) -> CentralizedResult:
        """Simulate everything on one server, chunk by chunk.

        Chunking models the original Hoyan's per-prefix processing: memory
        grows as more prefixes' RIB rows accumulate, and the budget check
        happens between chunks.
        """
        started = time.perf_counter()
        ordered = OrderingPartitioner().split_routes(
            list(input_routes),
            max(1, (len(input_routes) + self.chunk_size - 1) // self.chunk_size),
        )
        # Connected/static routes are skipped per chunk (they would be
        # duplicated across chunks); only the BGP results are accumulated.
        simulator = RouteSimulator(
            self.model,
            igp=self.igp,
            max_rounds=self.max_rounds,
            include_connected=False,
        )
        merged: Dict[str, DeviceRib] = {}
        rows = 0
        done = 0
        total = sum(len(chunk) for chunk in ordered)
        for chunk in ordered:
            if not chunk:
                continue
            result = simulator.simulate(chunk, include_local_inputs=False, ctx=ctx)
            for name, chunk_rib in result.device_ribs.items():
                rib = merged.get(name)
                if rib is None:
                    rib = merged[name] = DeviceRib(name)
                for row in chunk_rib.all_rows():
                    rib.install(row.route, vrf=row.vrf, route_type=row.route_type)
                    rows += 1
            done += len(chunk)
            if self.memory_limit_rows is not None and rows > self.memory_limit_rows:
                raise MemoryExhausted(done / total if total else 1.0, rows)
        return CentralizedResult(
            device_ribs=merged,
            elapsed_seconds=time.perf_counter() - started,
            rib_rows=rows,
            completed_fraction=1.0,
        )
