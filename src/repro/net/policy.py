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
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.net.addr import IPAddress, Prefix, as_prefix
from repro.net.vendors import VendorProfile
from repro.routing.attributes import PROTOCOLS, Route, community

PERMIT = "permit"
DENY = "deny"


class PolicyError(Exception):
    """Raised for malformed policy definitions."""


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrefixListEntry:
    """One numbered prefix-list entry with optional ge/le length bounds."""

    seq: int
    prefix: Prefix
    action: str = PERMIT
    ge: Optional[int] = None
    le: Optional[int] = None

    @property
    def rule(self) -> Tuple[Prefix, str, Optional[int], Optional[int]]:
        """Everything the entry says but its number."""
        return (self.prefix, self.action, self.ge, self.le)

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

    Entries are kept, and evaluated, in sequence-number order.
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
        seq: Optional[int] = None,
    ) -> "PrefixList":
        """Add entry ``seq``, replacing the entry of that number.

        Without a number the entry takes the last number + 10, unless an
        entry already says the same (adding it again changes nothing).
        """
        rule = (as_prefix(prefix), action, ge, le)
        if seq is None:
            if any(e.rule == rule for e in self.entries):
                return self
            seq = self.entries[-1].seq + 10 if self.entries else 10
        self.entries = sorted(
            [e for e in self.entries if e.seq != seq] + [PrefixListEntry(seq, *rule)],
            key=lambda e: e.seq,
        )
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
        """Add a community, normalised as :func:`community` writes it."""
        value = community(value)
        if value not in self.values:
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
        if pattern not in self.patterns:
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

def _is_name(value: object) -> bool:
    return isinstance(value, str) and value != ""


def _is_number(value: object) -> bool:
    return type(value) is int and value >= 0


def _is_community(value: object) -> bool:
    try:
        return isinstance(value, str) and community(value) == value
    except ValueError:
        return False


def _is_communities(value: object) -> bool:
    """A sorted tuple of distinct normalised communities, not empty."""
    return (
        isinstance(value, tuple)
        and value != ()
        and all(map(_is_community, value))
        and list(value) == sorted(set(value))
    )


def _is_asns(value: object) -> bool:
    return isinstance(value, tuple) and all(map(_is_number, value))


def _is_prepend(value: object) -> bool:
    """An ``(asn, count)`` pair."""
    return _is_asns(value) and len(value) == 2 and value[1] > 0


def _assign(current: object, value: object) -> object:
    return value


#: match kind -> test that a value is in the normal form of the kind
MATCH_VALUE: Dict[str, Callable[[object], bool]] = {
    "prefix-list": _is_name,
    "community-list": _is_name,
    "aspath-list": _is_name,
    "prefix": lambda value: isinstance(value, Prefix),
    "community": _is_community,
    "nexthop": lambda value: isinstance(value, IPAddress),
    "protocol": lambda value: value in PROTOCOLS,
}

#: set kind -> (the :class:`Route` field it writes, the normal-form test of
#: its value, ``(current field value, clause value) -> new field value``)
SET_ATTRIBUTE: Dict[str, Tuple[str, Callable, Callable]] = {
    "local-pref": ("local_pref", _is_number, _assign),
    "med": ("med", _is_number, _assign),
    "weight": ("weight", _is_number, _assign),
    "preference": ("preference", _is_number, _assign),
    "nexthop": ("nexthop", MATCH_VALUE["nexthop"], _assign),
    "community-add": ("communities", _is_communities, frozenset.union),
    "community-set": ("communities", _is_communities, lambda _, v: frozenset(v)),
    "community-delete": ("communities", _is_communities, frozenset.difference),
    "aspath-prepend": ("as_path", _is_prepend, lambda path, v: (v[0],) * v[1] + path),
    "aspath-set": ("as_path", _is_asns, _assign),
}
_SET_VALUE = {kind: valid for kind, (_, valid, _) in SET_ATTRIBUTE.items()}


def _check_clause(clause: Union[MatchClause, SetClause], valid: Mapping, word: str) -> None:
    if clause.kind not in valid:
        raise PolicyError(f"unknown {word} kind {clause.kind!r}")
    if not valid[clause.kind](clause.value):
        raise PolicyError(f"bad {clause.kind} value {clause.value!r}")


@dataclass(frozen=True)
class MatchClause:
    """A single match condition inside a policy node.

    ``value`` is in the normal form of its kind (:data:`MATCH_VALUE`), as
    the config parser writes it; anything else raises :class:`PolicyError`.
    """

    kind: str
    value: object

    def __post_init__(self) -> None:
        _check_clause(self, MATCH_VALUE, "match")

    def slot(self) -> object:
        """What a node holds once: an equal clause."""
        return self


@dataclass(frozen=True)
class SetClause:
    """A single set action inside a policy node (:data:`SET_ATTRIBUTE`)."""

    kind: str
    value: object

    def __post_init__(self) -> None:
        _check_clause(self, _SET_VALUE, "set")

    def slot(self) -> object:
        """What a node sets once: the attribute written, except that deleting
        communities is a command of its own beside setting them."""
        if self.kind == "community-delete":
            return self.kind
        return SET_ATTRIBUTE[self.kind][0]


@dataclass
class PolicyNode:
    """A numbered node of a route policy.

    ``action`` may be ``None`` — what a matching route then experiences is
    the "no explicit permit/deny" VSB. A node holds one clause per slot
    (:meth:`MatchClause.slot`, :meth:`SetClause.slot`).
    """

    seq: int
    action: Optional[str] = PERMIT
    matches: List[MatchClause] = field(default_factory=list)
    sets: List[SetClause] = field(default_factory=list)

    def match(self, kind: str, value: object) -> "PolicyNode":
        return self.add(MatchClause(kind, value))

    def set(self, kind: str, value: object) -> "PolicyNode":
        return self.add(SetClause(kind, value))

    def add(self, clause: Union[MatchClause, SetClause]) -> "PolicyNode":
        """Add a clause in place of the one in its slot."""
        clauses = self.matches if isinstance(clause, MatchClause) else self.sets
        for i, old in enumerate(clauses):
            if old.slot() == clause.slot():
                clauses[i] = clause
                return self
        clauses.append(clause)
        return self

    def remove(self, clause: Union[MatchClause, SetClause]) -> None:
        """Remove the clause in ``clause``'s slot, which must be equal to it."""
        clauses = self.matches if isinstance(clause, MatchClause) else self.sets
        held = next((c for c in clauses if c.slot() == clause.slot()), None)
        if held is None:
            raise PolicyError(f"no {clause.kind} clause {clause.value!r} in node {self.seq}")
        if held != clause:
            raise PolicyError(f"node {self.seq} has {held.kind} {held.value!r}, "
                              f"not {clause.kind} {clause.value!r}")
        clauses.remove(held)


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
    if clause.kind == "community":
        return clause.value in route.communities
    # prefix, nexthop and protocol: the route field of that name equals it
    return getattr(route, clause.kind) == clause.value


def _apply_sets(route: Route, sets: Sequence[SetClause]) -> Tuple[Route, bool]:
    """Apply a node's set actions in order.

    Returns the transformed route and whether the AS path was overwritten.
    """
    changes: Dict[str, object] = {}
    for clause in sets:
        attribute, _, write = SET_ATTRIBUTE[clause.kind]
        current = changes.get(attribute, getattr(route, attribute))
        changes[attribute] = write(current, clause.value)
    overwritten = any(clause.kind == "aspath-set" for clause in sets)
    return (route.evolve(**changes) if changes else route), overwritten


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
            transformed, overwritten = _apply_sets(route, node.sets)
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
