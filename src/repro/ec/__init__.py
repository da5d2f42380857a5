"""Equivalence-class computation for input routes and flows (§3.1).

Route ECs cut the number of simulated input routes ~4x on the paper's WAN;
flow ECs cut simulated flows by about two orders of magnitude.
"""

from repro.ec.route_ec import (
    PrefixGroupEc,
    PrefixGroupEcIndex,
    RouteEc,
    RouteEcIndex,
    compute_prefix_group_ecs,
    compute_route_ecs,
    expand_device_ribs,
)
from repro.ec.flow_ec import FlowEc, FlowEcIndex, compute_flow_ecs

__all__ = [
    "PrefixGroupEc",
    "PrefixGroupEcIndex",
    "RouteEc",
    "RouteEcIndex",
    "compute_prefix_group_ecs",
    "compute_route_ecs",
    "expand_device_ribs",
    "FlowEc",
    "FlowEcIndex",
    "compute_flow_ecs",
]
