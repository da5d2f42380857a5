"""Traffic simulation: flows, forwarding along RIBs, link loads.

This is the Jingubang/Yu capability folded into Hoyan (§1): given simulated
RIBs and the input flows, compute every flow's forwarding path and every
link's traffic load.
"""

from repro.traffic.flow import Flow, make_flow
from repro.traffic.forwarding import FastPathStats, FlowPath, ForwardingEngine
from repro.traffic.load import LinkLoadMap
from repro.traffic.simulator import (
    SpreadReuse,
    TrafficSimulationResult,
    TrafficSimulator,
)

__all__ = [
    "SpreadReuse",
    "FastPathStats",
    "Flow",
    "make_flow",
    "FlowPath",
    "ForwardingEngine",
    "LinkLoadMap",
    "TrafficSimulationResult",
    "TrafficSimulator",
]
