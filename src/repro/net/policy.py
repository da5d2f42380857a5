"""Route policies: prefix lists, community lists, AS-path lists, route maps.

A :class:`RoutePolicy` is an ordered list of numbered nodes (the paper's
"policy nodes", e.g. node 10 / node 20 in the Figure 10(a) case study). Each
node carries match clauses and set actions plus a permit/deny action.
Evaluation is VSB-aware: missing/undefined policies, undefined filters, and
nodes without an explicit action all resolve through the device's
:class:`~repro.net.vendors.VendorProfile`.

The evaluation result distinguishes *deny* (route dropped) from *permit with
transformation* so the BGP engine can install/advertise accordingly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.addr import Prefix, as_prefix
from repro.net.vendors import VendorProfile
from repro.routing.attributes import Route

PERMIT = "permit"
DENY = "deny"


class PolicyError(Exception):
    """Raised for malformed policy definitions."""


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrefixListEntry:
    """One prefix-list entry with optional ge/le length bounds."""

    prefix: Prefix
    action: str = PERMIT
    ge: Optional[int] = None
    le: Optional[int] = None

    def matches(self, candidate: Prefix) -> bool:
        if not self.prefix.contains_prefix(candidate):
            return False
        low = self.ge if self.ge is not None else self.prefix.length
        high = self.le if self.le is not None else (
            self.prefix.bits if self.ge is not None else self.prefix.length
        )
        return low <= candidate.length <= high


@dataclass
class PrefixList:
    """A named, family-tagged prefix list.

    ``family`` is 4 for ``ip-prefix`` lists and 6 for ``ipv6-prefix`` lists.
    Applying an IPv4 list to an IPv6 route is the §6.1 misconfiguration; what
    happens then is vendor-specific (``ip_prefix_permits_ipv6``).
    """

    name: str
    family: int = 4
    entries: List[PrefixListEntry] = field(default_factory=list)

    def add(
        self,
        prefix: str,
        action: str = PERMIT,
        ge: Optional[int] = None,
        le: Optional[int] = None,
    ) -> "PrefixList":
        self.entries.append(PrefixListEntry(as_prefix(prefix), action, ge, le))
        return self

    def evaluate(self, candidate: Prefix, vendor: VendorProfile) -> bool:
        """True if the candidate prefix is permitted by this list."""
        if candidate.family != self.family:
            # Cross-family application: applying an IPv4 ``ip-prefix`` list
            # to IPv6 routes permits them all on the Figure 10(b) vendor;
            # every other combination simply never matches.
            if self.family == 4 and candidate.family == 6:
                return vendor.ip_prefix_permits_ipv6
            return False
        for entry in self.entries:
            if entry.matches(candidate):
                return entry.action == PERMIT
        return False


@dataclass
class CommunityList:
    """A named list of community values; a route matches if it carries any."""

    name: str
    values: List[str] = field(default_factory=list)

    def add(self, value: str) -> "CommunityList":
        self.values.append(value)
        return self

    def evaluate(self, route: Route) -> bool:
        return any(v in route.communities for v in self.values)


@dataclass
class AsPathList:
    """A named list of AS-path regexes; a route matches if any regex does.

    Regexes match against the space-joined AS path (``"65001 65002"``) using
    ``re.search`` semantics, mirroring router CLI behaviour. The paper notes
    Hoyan's early AS-path regex matching was itself flawed (§5.3); the
    fault-injection harness reproduces that bug class by swapping in
    full-match semantics.
    """

    name: str
    patterns: List[str] = field(default_factory=list)

    def add(self, pattern: str) -> "AsPathList":
        try:
            re.compile(pattern)
        except re.error as exc:
            raise PolicyError(f"bad as-path regex {pattern!r}: {exc}") from exc
        self.patterns.append(pattern)
        return self

    def evaluate(self, route: Route, fullmatch: bool = False) -> bool:
        text = route.as_path_str()
        for pattern in self.patterns:
            if fullmatch:
                if re.fullmatch(pattern, text):
                    return True
            elif re.search(pattern, text):
                return True
        return False


# ---------------------------------------------------------------------------
# Route maps
# ---------------------------------------------------------------------------

MATCH_KINDS = (
    "prefix-list",
    "community-list",
    "aspath-list",
    "prefix",
    "community",
    "nexthop",
    "protocol",
)

SET_KINDS = (
    "local-pref",
    "med",
    "weight",
    "preference",
    "nexthop",
    "community-add",
    "community-set",
    "community-delete",
    "aspath-prepend",
    "aspath-set",
)


@dataclass(frozen=True)
class MatchClause:
    """A single match condition inside a policy node."""

    kind: str
    value: str

    def __post_init__(self) -> None:
        if self.kind not in MATCH_KINDS:
            raise PolicyError(f"unknown match kind {self.kind!r}")


@dataclass(frozen=True)
class SetClause:
    """A single set action inside a policy node."""

    kind: str
    value: str

    def __post_init__(self) -> None:
        if self.kind not in SET_KINDS:
            raise PolicyError(f"unknown set kind {self.kind!r}")


@dataclass
class PolicyNode:
    """A numbered node of a route policy.

    ``action`` may be ``None`` — what a matching route then experiences is
    the "no explicit permit/deny" VSB.
    """

    seq: int
    action: Optional[str] = PERMIT
    matches: List[MatchClause] = field(default_factory=list)
    sets: List[SetClause] = field(default_factory=list)

    def match(self, kind: str, value: str) -> "PolicyNode":
        self.matches.append(MatchClause(kind, value))
        return self

    def set(self, kind: str, value: str) -> "PolicyNode":
        self.sets.append(SetClause(kind, value))
        return self


@dataclass
class RoutePolicy:
    """A named route policy (route map) of ordered nodes."""

    name: str
    nodes: List[PolicyNode] = field(default_factory=list)

    def node(self, seq: int, action: Optional[str] = PERMIT) -> PolicyNode:
        """Create, insert (ordered), and return a node."""
        if any(n.seq == seq for n in self.nodes):
            raise PolicyError(f"duplicate node {seq} in policy {self.name!r}")
        node = PolicyNode(seq=seq, action=action)
        self.nodes.append(node)
        self.nodes.sort(key=lambda n: n.seq)
        return node

    def remove_node(self, seq: int) -> None:
        before = len(self.nodes)
        self.nodes = [n for n in self.nodes if n.seq != seq]
        if len(self.nodes) == before:
            raise PolicyError(f"no node {seq} in policy {self.name!r}")


@dataclass
class PolicyContext:
    """Named filter/policy definitions plus the evaluating vendor profile.

    One context exists per device (definitions are device-scoped
    configuration). ``aspath_fullmatch`` reproduces Hoyan's historical
    AS-path regex bug when enabled by the fault injector.
    """

    vendor: VendorProfile
    prefix_lists: Dict[str, PrefixList] = field(default_factory=dict)
    community_lists: Dict[str, CommunityList] = field(default_factory=dict)
    aspath_lists: Dict[str, AsPathList] = field(default_factory=dict)
    policies: Dict[str, RoutePolicy] = field(default_factory=dict)
    aspath_fullmatch: bool = False

    # -- definition helpers --------------------------------------------------

    def define_prefix_list(self, name: str, family: int = 4) -> PrefixList:
        plist = PrefixList(name=name, family=family)
        self.prefix_lists[name] = plist
        return plist

    def define_community_list(self, name: str) -> CommunityList:
        clist = CommunityList(name=name)
        self.community_lists[name] = clist
        return clist

    def define_aspath_list(self, name: str) -> AsPathList:
        alist = AsPathList(name=name)
        self.aspath_lists[name] = alist
        return alist

    def define_policy(self, name: str) -> RoutePolicy:
        policy = RoutePolicy(name=name)
        self.policies[name] = policy
        return policy

    def copy(self) -> "PolicyContext":
        """Deep-enough copy for incremental change application."""
        import copy as _copy

        return PolicyContext(
            vendor=self.vendor,
            prefix_lists=_copy.deepcopy(self.prefix_lists),
            community_lists=_copy.deepcopy(self.community_lists),
            aspath_lists=_copy.deepcopy(self.aspath_lists),
            policies=_copy.deepcopy(self.policies),
            aspath_fullmatch=self.aspath_fullmatch,
        )


@dataclass(frozen=True)
class PolicyResult:
    """Outcome of applying a policy to a route.

    ``aspath_overwritten`` records whether an ``aspath-set`` action fired —
    the "adding own ASN" VSB needs to know this on eBGP advertisement.
    """

    permitted: bool
    route: Optional[Route]
    matched_node: Optional[int] = None
    reason: str = ""
    aspath_overwritten: bool = False


def _clause_matches(clause: MatchClause, route: Route, ctx: PolicyContext) -> bool:
    """Evaluate one match clause, resolving undefined filters via the VSB."""
    vendor = ctx.vendor
    if clause.kind == "prefix-list":
        plist = ctx.prefix_lists.get(clause.value)
        if plist is None:
            return vendor.undefined_filter_matches
        return plist.evaluate(route.prefix, vendor)
    if clause.kind == "community-list":
        clist = ctx.community_lists.get(clause.value)
        if clist is None:
            return vendor.undefined_filter_matches
        return clist.evaluate(route)
    if clause.kind == "aspath-list":
        alist = ctx.aspath_lists.get(clause.value)
        if alist is None:
            return vendor.undefined_filter_matches
        return alist.evaluate(route, fullmatch=ctx.aspath_fullmatch)
    if clause.kind == "prefix":
        return route.prefix == as_prefix(clause.value)
    if clause.kind == "community":
        return clause.value in route.communities
    if clause.kind == "nexthop":
        return route.nexthop is not None and str(route.nexthop) == clause.value
    if clause.kind == "protocol":
        return route.protocol == clause.value
    raise PolicyError(f"unhandled match kind {clause.kind!r}")


def _apply_sets(
    route: Route, sets: Sequence[SetClause], ctx: PolicyContext
) -> Tuple[Route, bool]:
    """Apply a node's set actions in order.

    Returns the transformed route and whether the AS path was overwritten.
    """
    from repro.net.addr import IPAddress

    aspath_overwritten = False
    for clause in sets:
        if clause.kind == "local-pref":
            route = route.evolve(local_pref=int(clause.value))
        elif clause.kind == "med":
            route = route.evolve(med=int(clause.value))
        elif clause.kind == "weight":
            route = route.evolve(weight=int(clause.value))
        elif clause.kind == "preference":
            route = route.evolve(preference=int(clause.value))
        elif clause.kind == "nexthop":
            route = route.evolve(nexthop=IPAddress.parse(clause.value))
        elif clause.kind == "community-add":
            route = route.add_communities(tuple(clause.value.split(",")))
        elif clause.kind == "community-set":
            route = route.set_communities(tuple(clause.value.split(",")))
        elif clause.kind == "community-delete":
            route = route.delete_communities(tuple(clause.value.split(",")))
        elif clause.kind == "aspath-prepend":
            asn_text, _, count_text = clause.value.partition("*")
            count = int(count_text) if count_text else 1
            route = route.prepend_as_path(int(asn_text), count)
        elif clause.kind == "aspath-set":
            path = tuple(int(a) for a in clause.value.split()) if clause.value else ()
            route = route.evolve(as_path=path)
            aspath_overwritten = True
        else:  # pragma: no cover - SET_KINDS is validated at construction
            raise PolicyError(f"unhandled set kind {clause.kind!r}")
    return route, aspath_overwritten


def apply_policy(
    policy_name: Optional[str], route: Route, ctx: PolicyContext
) -> PolicyResult:
    """Apply the named policy to a route under the context's vendor profile.

    ``policy_name=None`` means no policy is configured on the session — the
    "missing route policy" VSB decides. A name that is not defined triggers
    the "undefined route policy" VSB. A route matching no node falls to the
    "default route policy" VSB; a matching node lacking an explicit action
    resolves via "no explicit permit/deny".
    """
    vendor = ctx.vendor
    if policy_name is None:
        if vendor.missing_policy_accepts:
            return PolicyResult(True, route, reason="missing-policy-accept")
        return PolicyResult(False, None, reason="missing-policy-deny")

    policy = ctx.policies.get(policy_name)
    if policy is None:
        if vendor.undefined_policy_accepts:
            return PolicyResult(True, route, reason="undefined-policy-accept")
        return PolicyResult(False, None, reason="undefined-policy-deny")

    for node in policy.nodes:
        if all(_clause_matches(m, route, ctx) for m in node.matches):
            action = node.action
            if action is None:
                action = PERMIT if vendor.implicit_action_permits else DENY
            if action == DENY:
                return PolicyResult(
                    False, None, matched_node=node.seq, reason="node-deny"
                )
            transformed, overwritten = _apply_sets(route, node.sets, ctx)
            return PolicyResult(
                True,
                transformed,
                matched_node=node.seq,
                reason="node-permit",
                aspath_overwritten=overwritten,
            )

    if vendor.default_policy_accepts:
        return PolicyResult(True, route, reason="default-policy-accept")
    return PolicyResult(False, None, reason="default-policy-deny")
