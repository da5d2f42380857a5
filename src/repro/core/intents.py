"""Change intents: the three abstractions of §1 plus basic reachability.

* **Route change intents** — :class:`RclIntent` wraps an RCL specification
  evaluated on the base/updated global RIBs.
* **Flow path change intents** — :class:`FlowsMoved` / :class:`FlowsTraverse`
  / :class:`FlowsAvoid` / :class:`FlowsDelivered` (the Rela-style relations
  the paper delegates to [50]).
* **Traffic load change intents** — :class:`NoOverloadedLinks` /
  :class:`LinkLoadBelow` (operators "simply specify the intended
  thresholds").
* **Reachability** — :class:`PrefixReaches` for the control plane.

Every intent evaluates against a :class:`VerificationContext` and returns an
:class:`IntentResult` with counter-examples on violation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.addr import as_prefix
from repro.net.model import NetworkModel
from repro.rcl import verify as rcl_verify
from repro.routing.rib import DeviceRib, GlobalRib
from repro.traffic.flow import Flow
from repro.traffic.simulator import TrafficSimulationResult


@dataclass
class VerificationContext:
    """Everything intents evaluate against (base and updated worlds)."""

    base_model: NetworkModel
    updated_model: NetworkModel
    base_rib: GlobalRib
    updated_rib: GlobalRib
    base_device_ribs: Dict[str, DeviceRib]
    updated_device_ribs: Dict[str, DeviceRib]
    base_traffic: Optional[TrafficSimulationResult] = None
    updated_traffic: Optional[TrafficSimulationResult] = None
    flows: Sequence[Flow] = ()


@dataclass
class IntentResult:
    """Outcome of one intent check."""

    intent: str
    satisfied: bool
    counterexamples: List[str] = field(default_factory=list)
    #: global-RIB rows an RCL intent read (``rcl.VerificationResult``)
    rows_scanned: int = 0

    def __str__(self) -> str:
        status = "OK " if self.satisfied else "FAIL"
        lines = [f"[{status}] {self.intent}"]
        for example in self.counterexamples[:8]:
            lines.append(f"    {example}")
        return "\n".join(lines)


class Intent:
    """Base class: ``describe`` for reports, ``evaluate`` for checking."""

    def describe(self) -> str:
        raise NotImplementedError

    def evaluate(self, ctx: VerificationContext) -> IntentResult:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Route change intents (RCL)
# ---------------------------------------------------------------------------


class RclIntent(Intent):
    """A control-plane route change intent written in RCL (§4)."""

    def __init__(self, spec: str) -> None:
        from repro.rcl import parse

        self.spec = spec
        self.tree = parse(spec)  # fail fast on malformed specifications

    def describe(self) -> str:
        return f"RCL: {self.spec}"

    def evaluate(self, ctx: VerificationContext) -> IntentResult:
        result = rcl_verify(self.tree, ctx.base_rib, ctx.updated_rib)
        return IntentResult(
            intent=self.describe(),
            satisfied=result.satisfied,
            counterexamples=[str(v) for v in result.violations],
            rows_scanned=result.rows_scanned,
        )


# ---------------------------------------------------------------------------
# Reachability intents
# ---------------------------------------------------------------------------


class PrefixReaches(Intent):
    """The prefix should (not) appear on the given routers after the change."""

    def __init__(
        self, prefix: str, devices: Sequence[str], expect_present: bool = True,
        vrf: str = "global",
    ) -> None:
        self.prefix = as_prefix(prefix)
        self.devices = list(devices)
        self.expect_present = expect_present
        self.vrf = vrf

    def describe(self) -> str:
        verb = "reaches" if self.expect_present else "is absent from"
        return f"prefix {self.prefix} {verb} {self.devices}"

    def evaluate(self, ctx: VerificationContext) -> IntentResult:
        bad: List[str] = []
        for device in self.devices:
            rib = ctx.updated_device_ribs.get(device)
            present = bool(rib and rib.routes_for(self.prefix, self.vrf))
            if present != self.expect_present:
                state = "missing" if self.expect_present else "present"
                bad.append(f"{device}: {self.prefix} is {state}")
        return IntentResult(self.describe(), not bad, bad)


# ---------------------------------------------------------------------------
# Flow path change intents
# ---------------------------------------------------------------------------

FlowSelector = Callable[[Flow], bool]


def flows_to_prefix(prefix: str) -> FlowSelector:
    """Selector: flows destined inside the given prefix."""
    target = as_prefix(prefix)

    def select(flow: Flow) -> bool:
        return target.contains_address(flow.dst)

    return select


class _FlowIntent(Intent):
    def __init__(self, selector: FlowSelector, description: str) -> None:
        self.selector = selector
        self.description = description

    def describe(self) -> str:
        return self.description

    def _selected_paths(
        self, ctx: VerificationContext, updated: bool = True
    ) -> List[Tuple[Flow, List[str]]]:
        traffic = ctx.updated_traffic if updated else ctx.base_traffic
        if traffic is None:
            return []
        picked = []
        for flow in ctx.flows:
            if not self.selector(flow):
                continue
            primary = traffic.primary_path(flow)
            if primary is not None:
                picked.append((flow, primary.routers))
        return picked


class FlowsTraverse(_FlowIntent):
    """Selected flows should traverse the given router (or link)."""

    def __init__(self, selector: FlowSelector, via: Sequence[str], label: str = ""):
        super().__init__(selector, label or f"selected flows traverse {list(via)}")
        self.via = list(via)

    @staticmethod
    def _contains_segment(routers: Sequence[str], via: Sequence[str]) -> bool:
        if len(via) == 1:
            return via[0] in routers
        n = len(via)
        via = list(via)
        return any(
            list(routers[i : i + n]) == via for i in range(len(routers) - n + 1)
        )

    def evaluate(self, ctx: VerificationContext) -> IntentResult:
        bad = []
        for flow, routers in self._selected_paths(ctx):
            if not self._contains_segment(routers, self.via):
                bad.append(f"{flow} takes {'-'.join(routers)}")
        return IntentResult(self.describe(), not bad, bad)


class FlowsAvoid(_FlowIntent):
    """Selected flows should avoid the given router."""

    def __init__(self, selector: FlowSelector, node: str, label: str = ""):
        super().__init__(selector, label or f"selected flows avoid {node}")
        self.node = node

    def evaluate(self, ctx: VerificationContext) -> IntentResult:
        bad = []
        for flow, routers in self._selected_paths(ctx):
            if self.node in routers:
                bad.append(f"{flow} takes {'-'.join(routers)}")
        return IntentResult(self.describe(), not bad, bad)


class FlowsMoved(_FlowIntent):
    """Flows on path A before the change should be on path B after (Table 2).

    Paths are given as ordered router subsequences; a flow "is on" a path
    when the path's routers appear in order along its primary route.
    """

    def __init__(
        self,
        selector: FlowSelector,
        from_path: Sequence[str],
        to_path: Sequence[str],
        label: str = "",
    ):
        super().__init__(
            selector,
            label or f"flows move from {list(from_path)} to {list(to_path)}",
        )
        self.from_path = list(from_path)
        self.to_path = list(to_path)

    @staticmethod
    def _on_path(routers: Sequence[str], path: Sequence[str]) -> bool:
        iterator = iter(routers)
        return all(node in iterator for node in path)

    def evaluate(self, ctx: VerificationContext) -> IntentResult:
        bad = []
        base_paths = dict(self._selected_paths(ctx, updated=False))
        for flow, routers in self._selected_paths(ctx, updated=True):
            before = base_paths.get(flow)
            if before is None or not self._on_path(before, self.from_path):
                continue  # the intent only covers flows that were on path A
            if not self._on_path(routers, self.to_path):
                bad.append(
                    f"{flow}: was {'-'.join(before)}, now {'-'.join(routers)} "
                    f"(not on {self.to_path})"
                )
        return IntentResult(self.describe(), not bad, bad)


class FlowsDelivered(_FlowIntent):
    """Selected flows should be delivered/exit (or blocked, for ACL intents)."""

    def __init__(self, selector: FlowSelector, expect_ok: bool = True, label: str = ""):
        expectation = "delivered" if expect_ok else "blocked"
        super().__init__(selector, label or f"selected flows are {expectation}")
        self.expect_ok = expect_ok

    def evaluate(self, ctx: VerificationContext) -> IntentResult:
        bad = []
        traffic = ctx.updated_traffic
        if traffic is None:
            return IntentResult(self.describe(), True)
        for flow in ctx.flows:
            if not self.selector(flow):
                continue
            primary = traffic.primary_path(flow)
            if primary is None:
                continue
            if primary.ok != self.expect_ok:
                bad.append(f"{flow}: {primary}")
        return IntentResult(self.describe(), not bad, bad)


# ---------------------------------------------------------------------------
# Traffic load change intents
# ---------------------------------------------------------------------------


class NoOverloadedLinks(Intent):
    """No link's utilization may reach the threshold after the change."""

    def __init__(self, threshold: float = 1.0) -> None:
        self.threshold = threshold

    def describe(self) -> str:
        return f"no link utilization >= {self.threshold:.0%}"

    def evaluate(self, ctx: VerificationContext) -> IntentResult:
        if ctx.updated_traffic is None:
            return IntentResult(self.describe(), True)
        overloaded = ctx.updated_traffic.loads.overloaded_links(
            ctx.updated_model.topology, self.threshold
        )
        examples = [
            f"link {a}-{b}: utilization {util:.0%}"
            for (a, b), util in overloaded
        ]
        return IntentResult(self.describe(), not overloaded, examples)


class LinkLoadBelow(Intent):
    """A specific link's utilization stays below a fraction."""

    def __init__(self, a: str, b: str, fraction: float) -> None:
        self.a, self.b, self.fraction = a, b, fraction

    def describe(self) -> str:
        return f"link {self.a}-{self.b} utilization < {self.fraction:.0%}"

    def evaluate(self, ctx: VerificationContext) -> IntentResult:
        if ctx.updated_traffic is None:
            return IntentResult(self.describe(), True)
        load = ctx.updated_traffic.loads.get(self.a, self.b)
        links = ctx.updated_model.topology.links_between(self.a, self.b)
        capacity = sum(l.a.bandwidth for l in links) or 1.0
        utilization = load / capacity
        ok = utilization < self.fraction
        examples = [] if ok else [
            f"utilization {utilization:.0%} (load {load:.3g} over {capacity:.3g})"
        ]
        return IntentResult(self.describe(), ok, examples)
