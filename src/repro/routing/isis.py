"""IS-IS simulation: SPF over the topology with per-device cost overrides.

Produces an :class:`IgpState` giving, for every pair of participating
routers, the IGP distance and the ECMP set of next-hop neighbors. BGP uses
the distances as its IGP-cost tiebreak (step 8 of the decision process) and
traffic simulation uses the next hops for recursive next-hop resolution.

IS-IS costs are directional: device A's cost towards neighbor B is the link
cost unless A's IS-IS config overrides it (``isis cost B <n>``) — asymmetric
overrides are exactly what the "setting inappropriate IS-IS costs" change
risks of §6.1 manipulate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.net.model import NetworkModel

INFINITY = float("inf")


@dataclass
class IgpState:
    """All-pairs IGP view: distances and ECMP next hops."""

    #: dist[src][dst] -> cost (missing = unreachable)
    dist: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: next_hops[src][dst] -> sorted tuple of neighbor router names
    next_hops: Dict[str, Dict[str, Tuple[str, ...]]] = field(default_factory=dict)

    def cost(self, src: str, dst: str) -> float:
        if src == dst:
            return 0.0
        return self.dist.get(src, {}).get(dst, INFINITY)

    def reachable(self, src: str, dst: str) -> bool:
        return self.cost(src, dst) < INFINITY

    def hops_towards(self, src: str, dst: str) -> Tuple[str, ...]:
        """ECMP next-hop neighbors from src towards dst (empty if unreachable)."""
        if src == dst:
            return ()
        return self.next_hops.get(src, {}).get(dst, ())

    def moved_pairs(self, other: "IgpState") -> Set[Tuple[str, str]]:
        """``(src, dst)`` pairs whose reachability or next hops differ."""
        moved: Set[Tuple[str, str]] = set()
        for src in self.dist.keys() | other.dist.keys():
            mine, theirs = self.dist.get(src, {}), other.dist.get(src, {})
            for dst in mine.keys() | theirs.keys():
                if (dst in mine) != (dst in theirs) or self.hops_towards(
                    src, dst
                ) != other.hops_towards(src, dst):
                    moved.add((src, dst))
        return moved


def _edge_cost(model: NetworkModel, src: str, dst: str, link_cost: int) -> float:
    """Directional cost src -> dst honouring src's IS-IS overrides."""
    device = model.devices.get(src)
    if device is None:
        return float(link_cost)
    return float(device.isis.cost_to(dst, link_cost))


def _isis_enabled(model: NetworkModel, router: str) -> bool:
    device = model.devices.get(router)
    return device is None or device.isis.enabled


def build_adjacency(model: NetworkModel) -> Dict[str, Dict[str, float]]:
    """Directional adjacency over up links of IS-IS-enabled, up routers.

    Parallel links between the same pair merge to the cheapest directional
    edge.
    """
    topology = model.topology
    participants = {
        name
        for name in topology.router_names
        if topology.router_is_up(name) and _isis_enabled(model, name)
    }
    adjacency: Dict[str, Dict[str, float]] = {name: {} for name in participants}
    for link in topology.up_links:
        a, b = link.endpoints
        if a not in participants or b not in participants:
            continue
        cost_ab = _edge_cost(model, a, b, link.igp_cost)
        cost_ba = _edge_cost(model, b, a, link.igp_cost)
        adjacency[a][b] = min(adjacency[a].get(b, INFINITY), cost_ab)
        adjacency[b][a] = min(adjacency[b].get(a, INFINITY), cost_ba)
    return adjacency


def _dijkstra(
    adjacency: Dict[str, Dict[str, float]], src: str
) -> Dict[str, float]:
    dist: Dict[str, float] = {src: 0.0}
    heap: List[Tuple[float, str]] = [(0.0, src)]
    visited: Set[str] = set()
    while heap:
        d, node = heapq.heappop(heap)
        if node in visited:
            continue
        visited.add(node)
        for neighbor, cost in adjacency[node].items():
            nd = d + cost
            if nd < dist.get(neighbor, INFINITY):
                dist[neighbor] = nd
                heapq.heappush(heap, (nd, neighbor))
    return dist


def compute_igp(model: NetworkModel) -> IgpState:
    """All-pairs SPF.

    Distances come from per-source Dijkstra; the ECMP next-hop sets are then
    derived exactly: neighbor ``n`` of ``src`` is a next hop towards ``dst``
    iff ``cost(src, n) + dist(n, dst) == dist(src, dst)``. Deriving them from
    the relaxation condition (rather than accumulating during the heap walk)
    makes the ECMP sets complete regardless of pop order.
    """
    adjacency = build_adjacency(model)
    state = IgpState()
    for src in adjacency:
        dist = _dijkstra(adjacency, src)
        dist.pop(src, None)
        state.dist[src] = dist

    for src, neighbors in adjacency.items():
        hops: Dict[str, List[str]] = {}
        for dst in state.dist[src]:
            total = state.dist[src][dst]
            chosen = [
                n
                for n, edge in neighbors.items()
                if edge + (0.0 if n == dst else state.dist[n].get(dst, INFINITY))
                == total
            ]
            hops[dst] = chosen
        state.next_hops[src] = {
            dst: tuple(sorted(ns)) for dst, ns in hops.items() if ns
        }
    return state
