"""Automatic accuracy validation (§5.1).

Every day Hoyan simulates the base network and compares:

* simulated routes vs the route monitoring feed (best routes only in agent
  mode) — missing, extra, and attribute-mismatched routes;
* selected high-priority prefixes vs the live network via ``show`` (ECMP
  sets, next hops, and weights that monitoring cannot see);
* simulated link loads vs SNMP-monitored loads — links whose difference
  exceeds a bandwidth fraction (10% in §5.2 step 1).

The output is an :class:`AccuracyReport` that the root-cause workflow and
the Table-4 campaign consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.monitor.route_monitor import LiveNetworkOracle, MonitoredRoute
from repro.net.addr import as_prefix
from repro.net.model import NetworkModel
from repro.routing.rib import DeviceRib, ROUTE_TYPE_BEST, ROUTE_TYPE_ECMP
from repro.traffic.load import LinkLoadMap


@dataclass(frozen=True)
class RouteDiscrepancy:
    """One disagreement between simulated and observed routes."""

    kind: str  # "missing" | "extra" | "attribute-mismatch" | "ecmp-mismatch"
    device: str
    vrf: str
    prefix: str
    detail: str = ""


@dataclass(frozen=True)
class LinkDiscrepancy:
    """A link whose simulated load diverges from the monitored load."""

    link: Tuple[str, str]
    simulated: float
    observed: float
    bandwidth: float

    @property
    def difference(self) -> float:
        return self.simulated - self.observed


@dataclass
class AccuracyReport:
    """Aggregated accuracy-validation output."""

    route_discrepancies: List[RouteDiscrepancy] = field(default_factory=list)
    link_discrepancies: List[LinkDiscrepancy] = field(default_factory=list)
    routes_compared: int = 0
    links_compared: int = 0
    oracle_queries: int = 0

    @property
    def accurate(self) -> bool:
        return not self.route_discrepancies and not self.link_discrepancies

    def summary(self) -> str:
        lines = [
            f"routes compared: {self.routes_compared}, "
            f"discrepancies: {len(self.route_discrepancies)}",
            f"links compared: {self.links_compared}, "
            f"load discrepancies: {len(self.link_discrepancies)}",
        ]
        for item in self.route_discrepancies[:10]:
            lines.append(
                f"  [{item.kind}] {item.device}/{item.vrf} {item.prefix} {item.detail}"
            )
        for item in self.link_discrepancies[:10]:
            lines.append(
                f"  [load] {item.link}: simulated {item.simulated:.3g} vs "
                f"observed {item.observed:.3g}"
            )
        return "\n".join(lines)


class AccuracyValidator:
    """Compares Hoyan's simulated results against the monitors (§5.1)."""

    def __init__(
        self,
        model: NetworkModel,
        load_threshold_fraction: float = 0.10,
    ) -> None:
        self.model = model
        self.load_threshold_fraction = load_threshold_fraction

    # -- route validation -----------------------------------------------------

    def validate_routes(
        self,
        simulated: Dict[str, DeviceRib],
        monitored: Iterable[MonitoredRoute],
    ) -> AccuracyReport:
        """Compare simulated best routes with the monitoring feed."""
        report = AccuracyReport()
        observed_index: Dict[Tuple[str, str, str], MonitoredRoute] = {}
        for record in monitored:
            observed_index[(record.device, record.vrf, record.prefix)] = record

        simulated_index: Dict[Tuple[str, str, str], object] = {}
        for device, rib in simulated.items():
            for vrf in rib.vrfs:
                for prefix in rib.prefixes(vrf):
                    for route, route_type in rib.entries_for(prefix, vrf):
                        if route.protocol != "bgp" or route_type != ROUTE_TYPE_BEST:
                            continue
                        simulated_index[(device, vrf, str(prefix))] = route

        report.routes_compared = len(observed_index | simulated_index.keys())

        for key, record in observed_index.items():
            simulated_route = simulated_index.get(key)
            if simulated_route is None:
                report.route_discrepancies.append(
                    RouteDiscrepancy(
                        "missing", key[0], key[1], key[2],
                        detail="observed on the network, absent from simulation",
                    )
                )
                continue
            mismatches = []
            if record.local_pref != simulated_route.local_pref:
                mismatches.append(
                    f"localPref {simulated_route.local_pref} != {record.local_pref}"
                )
            if record.med != simulated_route.med:
                mismatches.append(f"med {simulated_route.med} != {record.med}")
            if record.communities != simulated_route.communities:
                mismatches.append("communities differ")
            if record.as_path != simulated_route.as_path:
                mismatches.append("as-path differs")
            simulated_nh = (
                str(simulated_route.nexthop) if simulated_route.nexthop else ""
            )
            if record.nexthop and simulated_nh and record.nexthop != simulated_nh:
                mismatches.append(f"nexthop {simulated_nh} != {record.nexthop}")
            if mismatches:
                report.route_discrepancies.append(
                    RouteDiscrepancy(
                        "attribute-mismatch", key[0], key[1], key[2],
                        detail="; ".join(mismatches),
                    )
                )

        for key in simulated_index:
            if key not in observed_index:
                report.route_discrepancies.append(
                    RouteDiscrepancy(
                        "extra", key[0], key[1], key[2],
                        detail="simulated but never observed by monitoring",
                    )
                )
        return report

    # -- live-network cross-check (the hybrid part of §5.1) ---------------------

    def validate_against_live(
        self,
        simulated: Dict[str, DeviceRib],
        oracle: LiveNetworkOracle,
        prefixes: Iterable[str],
        report: Optional[AccuracyReport] = None,
    ) -> AccuracyReport:
        """Compare ECMP sets for selected prefixes via ``show`` queries."""
        report = report if report is not None else AccuracyReport()
        for prefix_text in prefixes:
            prefix = as_prefix(prefix_text)
            for device, rib in simulated.items():
                simulated_set = {
                    str(route.nexthop)
                    for route, route_type in rib.entries_for(prefix)
                    if route_type in (ROUTE_TYPE_BEST, ROUTE_TYPE_ECMP)
                    and route.nexthop is not None
                }
                live_rows = oracle.show_route(device, str(prefix))
                live_set = {
                    str(row.route.nexthop)
                    for row in live_rows
                    if row.route.nexthop is not None
                }
                if simulated_set != live_set:
                    report.route_discrepancies.append(
                        RouteDiscrepancy(
                            "ecmp-mismatch", device, "global", str(prefix),
                            detail=(
                                f"simulated next hops {sorted(simulated_set)} vs "
                                f"live {sorted(live_set)}"
                            ),
                        )
                    )
        report.oracle_queries = oracle.queries
        return report

    # -- traffic validation -------------------------------------------------------

    def validate_loads(
        self,
        simulated: LinkLoadMap,
        observed: LinkLoadMap,
        report: Optional[AccuracyReport] = None,
    ) -> AccuracyReport:
        """Flag links whose load difference exceeds the bandwidth fraction."""
        report = report if report is not None else AccuracyReport()
        keys = set(simulated.loads) | set(observed.loads)
        report.links_compared = len(keys)
        for key in sorted(keys):
            a, b = key
            links = self.model.topology.links_between(a, b)
            bandwidth = sum(l.a.bandwidth for l in links) or 1.0
            sim = simulated.loads.get(key, 0.0)
            obs = observed.loads.get(key, 0.0)
            if abs(sim - obs) / bandwidth > self.load_threshold_fraction:
                report.link_discrepancies.append(
                    LinkDiscrepancy(
                        link=key, simulated=sim, observed=obs, bandwidth=bandwidth
                    )
                )
        report.link_discrepancies.sort(key=lambda d: -abs(d.difference))
        return report
