"""Root-cause analysis workflow (§5.2).

The five steps of the paper, automated end to end:

1. pick the link with the largest simulated-vs-observed load difference;
2. identify a large-volume flow traversing that link (in the ground truth);
3. build the flow's forwarding paths under both the Hoyan simulation and
   the real network;
4. compare each router's forwarding behaviour along the paths, starting
   from the router attached to the identified link;
5. report the first divergent router together with the route sets that
   matched the flow on each side — the material the network expert (or the
   Figure 9 case study) works from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.diagnosis.validation import AccuracyReport
from repro.net.model import NetworkModel
from repro.routing.isis import IgpState
from repro.routing.rib import DeviceRib
from repro.traffic.flow import Flow
from repro.traffic.forwarding import ForwardingEngine


@dataclass
class HopComparison:
    """Forwarding behaviour of one router on the flow, both sides."""

    router: str
    simulated_next_hops: Tuple[str, ...]
    real_next_hops: Tuple[str, ...]
    simulated_routes: List[str] = field(default_factory=list)
    real_routes: List[str] = field(default_factory=list)

    @property
    def diverges(self) -> bool:
        return self.simulated_next_hops != self.real_next_hops


@dataclass
class RootCauseFinding:
    """Output of the workflow for one mis-simulated link."""

    link: Tuple[str, str]
    flow: Optional[Flow]
    hops: List[HopComparison] = field(default_factory=list)
    divergent_router: Optional[str] = None
    explanation: str = ""

    def report(self) -> str:
        lines = [f"link {self.link}: root-cause analysis"]
        if self.flow is None:
            lines.append("  no candidate flow found traversing the link")
            return "\n".join(lines)
        lines.append(f"  flow: {self.flow}")
        for hop in self.hops:
            marker = " <-- DIVERGES" if hop.diverges else ""
            lines.append(
                f"  {hop.router}: simulated->{list(hop.simulated_next_hops)} "
                f"real->{list(hop.real_next_hops)}{marker}"
            )
            if hop.diverges:
                for route in hop.simulated_routes:
                    lines.append(f"    simulated rib: {route}")
                for route in hop.real_routes:
                    lines.append(f"    real rib:      {route}")
        if self.explanation:
            lines.append(f"  hint: {self.explanation}")
        return "\n".join(lines)


class RootCauseAnalyzer:
    """Automates §5.2 given both sides' RIBs and the ground-truth traffic."""

    def __init__(
        self,
        model: NetworkModel,
        simulated_ribs: Dict[str, DeviceRib],
        real_model: NetworkModel,
        real_ribs: Dict[str, DeviceRib],
        igp: IgpState,
        real_igp: Optional[IgpState] = None,
    ) -> None:
        self.model = model
        self.real_model = real_model
        self.simulated_engine = ForwardingEngine(model, simulated_ribs, igp)
        self.real_engine = ForwardingEngine(
            real_model, real_ribs, real_igp if real_igp is not None else igp
        )
        self.simulated_ribs = simulated_ribs
        self.real_ribs = real_ribs

    # -- workflow ---------------------------------------------------------------

    def analyze(
        self,
        report: AccuracyReport,
        flows: Sequence[Flow],
        max_links: int = 3,
    ) -> List[RootCauseFinding]:
        """Run the workflow for the worst mis-simulated links."""
        findings = []
        for discrepancy in report.link_discrepancies[:max_links]:
            findings.append(self.analyze_link(discrepancy.link, flows))
        return findings

    def analyze_link(
        self, link: Tuple[str, str], flows: Sequence[Flow]
    ) -> RootCauseFinding:
        flow = self._largest_flow_on_link(link, flows)
        finding = RootCauseFinding(link=link, flow=flow)
        if flow is None:
            return finding
        self._compare_hops(flow, finding)
        return finding

    # -- steps -------------------------------------------------------------------

    def _largest_flow_on_link(
        self, link: Tuple[str, str], flows: Sequence[Flow]
    ) -> Optional[Flow]:
        """Step 2: the largest-volume flow traversing the link in reality."""
        best: Optional[Flow] = None
        target = frozenset(link)
        for flow in sorted(flows, key=lambda f: -f.volume):
            spread = self.real_engine.forward_spread(flow)
            for path, _ in spread:
                if any(frozenset(pair) == target for pair in path.links):
                    return flow
        return best

    def _compare_hops(self, flow: Flow, finding: RootCauseFinding) -> None:
        """Steps 3-5: per-router forwarding comparison along the real path."""
        real_spread = self.real_engine.forward_spread(flow)
        routers: List[str] = []
        for path, _ in real_spread:
            for router in path.routers:
                if router not in routers:
                    routers.append(router)
        # Also walk the simulated path in case it visits different routers.
        for path, _ in self.simulated_engine.forward_spread(flow):
            for router in path.routers:
                if router not in routers:
                    routers.append(router)

        for router in routers:
            simulated_hops = self._next_hops_of(self.simulated_engine, flow, router)
            real_hops = self._next_hops_of(self.real_engine, flow, router)
            comparison = HopComparison(
                router=router,
                simulated_next_hops=simulated_hops,
                real_next_hops=real_hops,
                simulated_routes=self._matching_routes(
                    self.simulated_ribs, router, flow
                ),
                real_routes=self._matching_routes(self.real_ribs, router, flow),
            )
            finding.hops.append(comparison)
            if comparison.diverges and finding.divergent_router is None:
                finding.divergent_router = router
                finding.explanation = self._explain(comparison)

    @staticmethod
    def _next_hops_of(engine: ForwardingEngine, flow: Flow, router: str):
        kind, payload = engine.decision(flow, router)
        return (payload,) if kind == "terminal" else tuple(payload[1])

    @staticmethod
    def _matching_routes(
        ribs: Dict[str, DeviceRib], router: str, flow: Flow
    ) -> List[str]:
        rib = ribs.get(router)
        if rib is None:
            return []
        hit = rib.lpm(flow.dst, vrf=flow.vrf)
        if hit is None:
            return []
        _, routes = hit
        return [str(route) for route in routes]

    def _explain(self, comparison: HopComparison) -> str:
        """Heuristic expert hints for common divergence shapes (Figure 9)."""
        simulated_n = len(comparison.simulated_routes)
        real_n = len(comparison.real_routes)
        device = self.model.devices.get(comparison.router)
        if simulated_n != real_n and device is not None and device.sr_policies:
            return (
                f"{comparison.router} selects {simulated_n} ECMP routes in "
                f"simulation but {real_n} in reality, and it configures an SR "
                f"policy — check the vendor's IGP-cost treatment of SR-enabled "
                f"destinations (the Figure 9 VSB)"
            )
        if simulated_n != real_n:
            return (
                f"ECMP set sizes differ ({simulated_n} simulated vs {real_n} "
                f"real) — inspect the IGP-cost tiebreak inputs on "
                f"{comparison.router}"
            )
        return (
            f"next hops differ on {comparison.router} — compare the matched "
            f"routes' attributes above"
        )
