"""Route monitoring system simulator (§2.1).

Two collection modes, with the real systems' information asymmetry (§5.1):

* **BGP agent** — the router advertises its routes over a BGP session to
  the agent, so only the *best* route per prefix is visible, next hops may
  be rewritten (some vendors modify the next hop even for iBGP
  advertisements), and non-propagating attributes (weight) are lost.
* **BMP** — collects the full BGP RIB (best + ECMP) with true attributes.

Fault hooks model the Table-4 "inaccurate route monitoring data" class:
failed agents silently stop reporting their router's routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.net.model import NetworkModel
from repro.routing.rib import (
    DeviceRib,
    RibRoute,
    ROUTE_TYPE_BEST,
    ROUTE_TYPE_ECMP,
)

MODE_AGENT = "agent"
MODE_BMP = "bmp"


@dataclass(frozen=True)
class MonitoredRoute:
    """One route record as reported by the monitoring system."""

    device: str
    vrf: str
    prefix: str
    nexthop: str
    local_pref: int
    med: int
    communities: frozenset
    as_path: tuple
    #: weight is NOT reported in agent mode (not a transitive attribute)
    weight: Optional[int] = None
    route_type: str = ROUTE_TYPE_BEST


class RouteMonitor:
    """Derives monitored route records from ground-truth device RIBs."""

    def __init__(
        self,
        model: NetworkModel,
        mode: str = MODE_AGENT,
        failed_agents: Optional[Set[str]] = None,
        rewrite_nexthop_devices: Optional[Set[str]] = None,
    ) -> None:
        if mode not in (MODE_AGENT, MODE_BMP):
            raise ValueError(f"unknown monitoring mode {mode!r}")
        self.model = model
        self.mode = mode
        #: routers whose collection agent has failed (fault injection)
        self.failed_agents = failed_agents or set()
        #: devices whose vendor rewrites the next hop on advertisement to
        #: the agent (the iBGP next-hop VSB noted in §5.1)
        self.rewrite_nexthop_devices = rewrite_nexthop_devices or set()

    def collect(self, ribs: Dict[str, DeviceRib]) -> List[MonitoredRoute]:
        """Produce the monitoring feed from ground-truth RIBs."""
        records: List[MonitoredRoute] = []
        for device, rib in sorted(ribs.items()):
            if device in self.failed_agents:
                continue
            for row in rib.all_rows(best_only=True):
                if row.route.protocol not in ("bgp",):
                    continue
                if self.mode == MODE_AGENT and row.route_type != ROUTE_TYPE_BEST:
                    continue  # only the best route is advertised to the agent
                records.append(self._record(device, row))
        return records

    def _record(self, device: str, row: RibRoute) -> MonitoredRoute:
        route = row.route
        nexthop = str(route.nexthop) if route.nexthop else ""
        if (
            self.mode == MODE_AGENT
            and device in self.rewrite_nexthop_devices
        ):
            # The vendor sets next-hop-self when advertising to the agent.
            loopback = self.model.loopback_of(device)
            nexthop = str(loopback) if loopback else nexthop
        return MonitoredRoute(
            device=device,
            vrf=row.vrf,
            prefix=str(route.prefix),
            nexthop=nexthop,
            local_pref=route.local_pref,
            med=route.med,
            communities=frozenset(route.communities),
            as_path=tuple(route.as_path),
            weight=route.weight if self.mode == MODE_BMP else None,
            route_type=row.route_type,
        )


class LiveNetworkOracle:
    """The ``show`` command oracle (§5.1).

    Showing all routes is prohibited in production; the oracle answers
    per-prefix queries against the ground truth for selected high-priority
    prefixes, and counts queries so tests can assert the rate discipline.
    """

    def __init__(self, ribs: Dict[str, DeviceRib], allowed_prefixes: Iterable[str]):
        self._ribs = ribs
        self.allowed = {str(p) for p in allowed_prefixes}
        self.queries = 0

    def show_route(self, device: str, prefix: str, vrf: str = "global") -> List[RibRoute]:
        """``show ip route <prefix>`` against the live network."""
        if str(prefix) not in self.allowed:
            raise PermissionError(
                f"prefix {prefix} is not whitelisted for live queries"
            )
        self.queries += 1
        rib = self._ribs.get(device)
        if rib is None:
            return []
        from repro.net.addr import as_prefix

        target = as_prefix(prefix)
        return [
            RibRoute(device, vrf, route, route_type)
            for route, route_type in rib.entries_for(target, vrf)
            if route_type in (ROUTE_TYPE_BEST, ROUTE_TYPE_ECMP)
        ]
