"""Flow forwarding simulation along simulated RIBs.

Each hop makes one decision: ingress ACL check, local delivery, PBR
override, then RIB longest-prefix match. The decision is a terminal status
or the set of next routers; volume splits evenly over that set (every
resolvable route of the matched entry, each resolved to its IGP next hops,
or to the first segment's next hops when an SR policy steers towards the
next hop's owner — the forwarding half of the Figure 9 behaviour). Flow-EC
members match the same RIB entries, PBR rules and ACL rules, so every
member gets the same answer (§3.1).

Decisions are memoized per ``(router, ingress-ACL class, flow EC
signature)`` so a whole flow EC pays the interpreted cost once per device
instead of once per flow per hop. The memo is gated on the ``spread_memo``
flag of ``repro.perfopts`` and invalidated against ``Topology.version`` /
``DeviceRib.generation`` (plus an explicit
:meth:`ForwardingEngine.invalidate` escape hatch); enabled or disabled,
forwarding results are byte-identical.

Every decision at router ``r`` also records the ``(r, target)`` pairs it
resolved through: the up-link, IGP-reachability and IGP next-hop answers
it read. They are kept with the memo entry (and recorded with the memo
off) and a walk unions them, so a change that moves no read pair and no
RIB slot on the walk's paths cannot move its spread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro import perfopts
from repro.net.device import AclConfig, DeviceConfig
from repro.net.model import NetworkModel
from repro.routing.attributes import SOURCE_EBGP
from repro.routing.isis import IgpState
from repro.routing.rib import DeviceRib
from repro.routing.sr import first_tunnel_target
from repro.traffic.flow import Flow

STATUS_DELIVERED = "delivered"
STATUS_EXITED = "exited"          # left the network at an eBGP border
STATUS_DROPPED = "dropped"        # no matching route
STATUS_BLOCKED = "blocked"        # ACL denied
STATUS_LOOP = "loop"              # forwarding loop detected
STATUS_STRANDED = "stranded"      # route present but next hop unresolvable

MAX_HOPS = 64

#: A ``(router, target)`` pair a decision read (see module doc).
Pair = Tuple[str, str]

#: One hop's decision: ``("terminal", status)`` or
#: ``("hops", (matched_prefixes, sorted_next_routers))``.
Decision = Tuple[str, Any]


@dataclass
class FastPathStats:
    """Spread-memo counters of one :class:`ForwardingEngine`."""

    memo_hits: int = 0
    memo_misses: int = 0
    invalidations: int = 0

    def as_counters(self) -> Dict[str, int]:
        """Counter-name to value map (``traffic.*`` namespace)."""
        return {
            "traffic.spread_memo_hits": self.memo_hits,
            "traffic.spread_memo_misses": self.memo_misses,
            "traffic.fastpath_invalidations": self.invalidations,
        }


@dataclass
class FlowPath:
    """The forwarding path of one flow."""

    flow: Flow
    routers: List[str]
    status: str
    matched_prefixes: List[str] = field(default_factory=list)
    detail: str = ""

    @property
    def links(self) -> List[Tuple[str, str]]:
        """Traversed links as ordered (from, to) router pairs."""
        return list(zip(self.routers, self.routers[1:]))

    @property
    def ok(self) -> bool:
        return self.status in (STATUS_DELIVERED, STATUS_EXITED)

    def __str__(self) -> str:
        return f"{'-'.join(self.routers)} [{self.status}]"


class ForwardingEngine:
    """Forwards flows over a set of device RIBs."""

    def __init__(
        self,
        model: NetworkModel,
        ribs: Dict[str, DeviceRib],
        igp: IgpState,
    ) -> None:
        self.model = model
        self.ribs = ribs
        self.igp = igp
        #: hit/miss counters of the spread memo
        self.stats = FastPathStats()
        self._spread_memo: Dict[Tuple, Any] = {}
        self._topo_version = -1
        self._rib_stamp: Tuple[int, ...] = ()

    # -- memo lifecycle -----------------------------------------------------

    def invalidate(self) -> None:
        """Drop the spread memo.

        Called automatically when the topology version or any RIB
        generation changes between forwards; call it explicitly after
        mutating device configs (ACLs, PBR, SR policies) on a live engine.
        """
        self._spread_memo.clear()
        self._topo_version = self.model.topology.version
        self._rib_stamp = self._rib_fingerprint()
        self.stats.invalidations += 1

    def _rib_fingerprint(self) -> Tuple[int, ...]:
        # Generations are unique per RIB state, so the tuple changes
        # whenever a RIB is mutated, added, removed or swapped.
        return tuple(r.generation for r in self.ribs.values())

    def _ensure_fresh(self) -> None:
        """Invalidate the memo if the model moved under the engine."""
        if (
            self.model.topology.version != self._topo_version
            or self._rib_fingerprint() != self._rib_stamp
        ):
            self.invalidate()

    # -- public -----------------------------------------------------------

    def forward_spread(
        self,
        flow: Flow,
        max_hops: int = MAX_HOPS,
        reads: Optional[Set[Pair]] = None,
    ) -> List[Tuple[FlowPath, float]]:
        """All ECMP paths of a flow with their even-split volume fractions.

        At every hop the volume splits evenly over the next routers the
        decision returns (the union of the IGP/SR next hops of every
        resolvable route), which is how link loads are computed for a whole
        flow EC (every member shares the same path *set*, §3.1). Returns
        ``[(path, fraction)]`` with fractions summing to 1.

        The traversal is an iterative depth-first walk over (mostly
        memoized) ``_branches`` decisions; the explicit stack replays the
        historical recursion order exactly, so results are independent of
        whether decisions come from the memo table or fresh evaluation.
        ``reads``, when given, gains the pairs every decision of the walk
        read.
        """
        self._ensure_fresh()
        results: List[Tuple[FlowPath, float]] = []
        if flow.ingress not in self.model.devices:
            return [(FlowPath(flow, [], STATUS_DROPPED, detail="unknown ingress"), 1.0)]

        # Frame: (router, came_from, trail, seen-before-router, fraction,
        # matched-before-router, matched-added-by-parent-branch, hops).
        # ``seen`` excludes ``router`` itself so the loop check on pop
        # mirrors the parent-side check of the recursive formulation.
        stack: List[Tuple] = [
            (flow.ingress, None, [flow.ingress], frozenset(), 1.0, (), (), 0)
        ]
        while stack:
            router, came_from, trail, seen, fraction, base, extra, hops = stack.pop()
            if router in seen:
                results.append(
                    (FlowPath(flow, trail, STATUS_LOOP, list(base)), fraction)
                )
                continue
            matched = list(base) + list(extra)
            if hops > max_hops:
                results.append(
                    (FlowPath(flow, trail, STATUS_LOOP, matched, "hop limit"), fraction)
                )
                continue
            kind, payload = self._branches(flow, router, came_from, reads)
            if kind == "terminal":
                results.append((FlowPath(flow, trail, payload, matched), fraction))
                continue
            next_matched, options = payload
            share = fraction / len(options)
            child_seen = seen | {router}
            children = [
                (
                    next_router,
                    router,
                    trail + [next_router],
                    child_seen,
                    share,
                    tuple(matched),
                    tuple(next_matched),
                    hops + 1,
                )
                for next_router in options
            ]
            stack.extend(reversed(children))
        return results

    def decision(self, flow: Flow, router: str) -> Decision:
        """The decision ``router`` makes for ``flow`` entering there.

        The flow meets no ingress ACL. The result has the shape
        :data:`Decision` documents, the one ``forward_spread`` walks.
        """
        self._ensure_fresh()
        return self._branches(flow, router, None)

    # -- per-hop decision ---------------------------------------------------

    def _ingress_acl(
        self, device: DeviceConfig, router: str, came_from: Optional[str]
    ) -> Optional[AclConfig]:
        """The ACL guarding the interface a flow from ``came_from`` enters."""
        if came_from is None or not device.interface_acls:
            return None
        iface_name = self.model.topology.ingress_interface_name(came_from, router)
        if iface_name is None:
            return None
        acl_name = device.interface_acls.get(iface_name)
        if acl_name is None:
            return None
        return device.acls.get(acl_name)

    def _branches(
        self,
        flow: Flow,
        router: str,
        came_from: Optional[str],
        reads: Optional[Set[Pair]] = None,
    ) -> Decision:
        """One hop's decision: a terminal status or the ECMP next-hop set.

        Memoized per ``(router, ingress-ACL class, flow EC signature)``:
        two flows with the same (src, dst, protocol, dst_port, vrf) — the
        only fields ACL/PBR matchers and the RIB consult — entering a
        router through interfaces guarded by the same ACL necessarily
        branch identically, whatever their ingress or source port. The
        pairs the decision read are added to ``reads``.
        """
        device = self.model.device(router)
        acl = self._ingress_acl(device, router, came_from)
        pairs: List[Pair] = []
        if not perfopts.OPTS.spread_memo:
            value = self._branches_impl(flow, device, router, acl, pairs)
        else:
            key = (
                router,
                acl.name if acl is not None else None,
                flow.src,
                flow.dst,
                flow.protocol,
                flow.dst_port,
                flow.vrf,
            )
            hit = self._spread_memo.get(key)
            if hit is None:
                self.stats.memo_misses += 1
                value = self._branches_impl(flow, device, router, acl, pairs)
                self._spread_memo[key] = (value, pairs)
            else:
                self.stats.memo_hits += 1
                value, pairs = hit
        if reads is not None:
            reads.update(pairs)
        return value

    def _branches_impl(
        self,
        flow: Flow,
        device: DeviceConfig,
        router: str,
        acl: Optional[AclConfig],
        reads: List[Pair],
    ) -> Decision:
        if acl is not None and not acl.permits(flow):
            return ("terminal", STATUS_BLOCKED)
        owner = self.model.owner_of_address(flow.dst)
        if owner == router:
            return ("terminal", STATUS_DELIVERED)
        for rule in device.pbr_rules.values():
            if rule.matches_flow(flow):
                hops = self._hops_towards(router, rule.nexthop, reads)
                if not hops:
                    return ("terminal", STATUS_STRANDED)
                return ("hops", ([], sorted(hops)))
        rib = self.ribs.get(router)
        hit = rib.lpm(flow.dst, vrf=flow.vrf) if rib is not None else None
        if hit is None:
            if owner is not None:
                reads.append((router, owner))
                if self.igp.reachable(router, owner):
                    hops = self._hops_towards(router, owner, reads)
                    if hops:
                        return ("hops", ([], sorted(hops)))
            return ("terminal", STATUS_DROPPED)
        # Resolve the LPM hit in RIB insertion order: the first terminal
        # route decides, otherwise every resolvable next hop is a branch.
        prefix, routes = hit
        options: set = set()
        for route in routes:
            if route.source == SOURCE_EBGP and route.origin_router == router:
                return ("terminal", STATUS_EXITED)
            if route.nexthop is None:
                if route.origin_router == router:
                    return ("terminal", STATUS_EXITED)
                continue
            nh_owner = self.model.owner_of_address(route.nexthop)
            if nh_owner is None:
                continue
            if nh_owner == router:
                return ("terminal", STATUS_DELIVERED)
            options.update(self._hops_towards(router, nh_owner, reads))
        if not options:
            return ("terminal", STATUS_STRANDED)
        return ("hops", ([str(prefix)], sorted(options)))

    def _hops_towards(
        self, router: str, target: str, reads: List[Pair]
    ) -> Tuple[str, ...]:
        """All physical next hops towards a target router.

        Reads the up link and IGP answers of ``(router, target)`` and, for
        an SR policy, the IGP next hops towards its first segment.
        """
        reads.append((router, target))
        if self.model.topology.has_up_link(router, target):
            return (target,)
        policy = self.model.device(router).sr_policy_towards(target)
        if policy is not None:
            first = first_tunnel_target(router, policy)
            if first is not None:
                reads.append((router, first))
                hops = self.igp.hops_towards(router, first)
                if hops:
                    return hops
        return self.igp.hops_towards(router, target)
