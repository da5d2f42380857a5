"""Device configuration model.

A :class:`DeviceConfig` is Hoyan's parsed, vendor-neutral model of one
router's configuration: VRFs, BGP sessions, IS-IS, static routes, aggregate
prefixes, SR policies, PBR rules, ACLs, redistribution, and the device-scoped
policy definitions (:class:`~repro.net.policy.PolicyContext`).

Every section but ``peers`` is a dict keyed by what its command names, as
:data:`SECTIONS` says: a static by ``(vrf, prefix, nexthop)``, an aggregate
by ``(vrf, prefix)``, a redistribution by ``(vrf, source)``, an SR policy,
ACL or VRF by its name, and PBR rules (like an ACL's rules) by their
sequence number, in sequence order. A change has one meaning. Adding an
entry (:meth:`DeviceConfig.put`) replaces the one under its key, so a
repeated line changes nothing. Undoing one (:meth:`DeviceConfig.delete`)
names its key and perhaps some of its values; it deletes the entry only
when the device holds it with those values, and otherwise raises a
:class:`ConfigModelError` that names the target (:func:`held`). The config
parser gives single values, dict entries and sub-entries the same rule and
reports each error as a ``ConfigParseError`` carrying the line.

The network model building service (§2.2) produces one of these per router by
parsing its vendor-dialect configuration (``repro.net.config``); change
verification applies command deltas to copies of them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from repro.net.addr import IPAddress, Prefix, as_address, as_prefix
from repro.net.policy import PolicyContext
from repro.net.vendors import VendorProfile, get_profile

GLOBAL_VRF = "global"


class ConfigModelError(ValueError):
    """Raised for inconsistent device configuration operations."""


@dataclass
class BgpPeerConfig:
    """One BGP session from the local device's point of view.

    ``peer`` is the neighbor's router name (the simulator establishes the
    session when both ends configure each other). ``addpath`` is the number
    of paths advertised per prefix (1 = plain BGP, >1 = RFC 7911 add-path).
    """

    peer: str
    remote_asn: int
    vrf: str = GLOBAL_VRF
    import_policy: Optional[str] = None
    export_policy: Optional[str] = None
    route_reflector_client: bool = False
    next_hop_self: bool = False
    addpath: int = 1
    enabled: bool = True


@dataclass
class VrfConfig:
    """A VRF with route-distinguisher and route-target import/export sets."""

    name: str
    rd: str = ""
    import_rts: Set[str] = field(default_factory=set)
    export_rts: Set[str] = field(default_factory=set)
    export_policy: Optional[str] = None


@dataclass
class StaticRouteConfig:
    """A static route; ``nexthop`` is an IP address on a connected link."""

    prefix: Prefix
    nexthop: IPAddress
    vrf: str = GLOBAL_VRF
    preference: int = 1
    tag: int = 0


@dataclass
class AggregateConfig:
    """A BGP aggregate prefix.

    ``as_set`` controls AS-set generation; without it, whether the common
    AS-path prefix of contributors survives is a VSB
    (``aggregate_keeps_common_aspath``).
    """

    prefix: Prefix
    vrf: str = GLOBAL_VRF
    as_set: bool = False
    summary_only: bool = False


@dataclass
class SrPolicyConfig:
    """A segment-routing policy steering traffic towards ``endpoint``.

    When active, BGP routes whose next hop resolves through this tunnel may
    have their IGP cost zeroed depending on the vendor
    (``sr_tunnel_zeroes_igp_cost`` — the Figure 9 VSB).
    """

    name: str
    endpoint: str
    color: int = 100
    segments: Tuple[str, ...] = ()
    enabled: bool = True


@dataclass
class PbrRuleConfig:
    """A policy-based-routing rule overriding the RIB for matching flows."""

    seq: int
    nexthop: str
    src_prefix: Optional[Prefix] = None
    dst_prefix: Optional[Prefix] = None
    protocol: Optional[int] = None
    enabled: bool = True

    def matches_flow(self, flow) -> bool:
        """Whether a traffic flow (``repro.traffic.flow.Flow``) matches."""
        return self.enabled and _matches(self, flow)


@dataclass
class AclRuleConfig:
    """One ACL rule matching on the 5-tuple."""

    seq: int
    action: str = "permit"
    src_prefix: Optional[Prefix] = None
    dst_prefix: Optional[Prefix] = None
    protocol: Optional[int] = None
    dst_port: Optional[int] = None

    def matches_flow(self, flow) -> bool:
        return _matches(self, flow) and self.dst_port in (None, flow.dst_port)


def _matches(rule, flow) -> bool:
    """Whether ``flow`` is in the source and destination prefixes and has the
    protocol that ``rule`` names (None names any)."""
    return (
        (rule.src_prefix is None or rule.src_prefix.contains_address(flow.src))
        and (rule.dst_prefix is None or rule.dst_prefix.contains_address(flow.dst))
        and rule.protocol in (None, flow.protocol)
    )


@dataclass
class AclConfig:
    """A named ACL; first matching rule wins, default deny."""

    name: str
    rules: Dict[int, AclRuleConfig] = field(default_factory=dict)

    def add(self, rule: AclRuleConfig) -> AclRuleConfig:
        self.rules = dict(sorted({**self.rules, rule.seq: rule}.items()))
        return rule

    def permits(self, flow) -> bool:
        for rule in self.rules.values():
            if rule.matches_flow(flow):
                return rule.action == "permit"
        return False


@dataclass
class IsisConfig:
    """IS-IS process settings and per-neighbor cost overrides."""

    enabled: bool = True
    te_enabled: bool = False
    cost_overrides: Dict[str, int] = field(default_factory=dict)

    def cost_to(self, neighbor: str, link_cost: int) -> int:
        return self.cost_overrides.get(neighbor, link_cost)


@dataclass
class RedistributionConfig:
    """Redistribute routes from ``source`` protocol into BGP."""

    source: str  # "direct" | "static" | "isis"
    policy: Optional[str] = None
    vrf: str = GLOBAL_VRF


class Section(NamedTuple):
    """How one keyed section of a :class:`DeviceConfig` holds its entries."""

    label: str  # names an entry in messages
    entry: type
    key: Tuple[str, ...]  # the entry fields its key is made of; ("seq",) keeps seq order

    def key_of(self, fields: Mapping[str, object]) -> object:
        key = tuple(fields[name] for name in self.key)
        return key if len(key) > 1 else key[0]


SECTIONS: Dict[str, Section] = {
    "statics": Section("static", StaticRouteConfig, ("vrf", "prefix", "nexthop")),
    "aggregates": Section("aggregate", AggregateConfig, ("vrf", "prefix")),
    "redistributions": Section("redistribution", RedistributionConfig, ("vrf", "source")),
    "sr_policies": Section("sr-policy", SrPolicyConfig, ("name",)),
    "pbr_rules": Section("pbr", PbrRuleConfig, ("seq",)),
    "acls": Section("acl", AclConfig, ("name",)),
    "vrfs": Section("vrf", VrfConfig, ("name",)),
}


def held(what: str, entry, named: Mapping[str, object]):
    """``entry``, which an undo line names as ``what`` and whose fields
    ``named`` must hold: a missing entry (None) or another value is a
    :class:`ConfigModelError` saying so."""
    if entry is None:
        raise ConfigModelError(f"no {what}")
    for field_name, value in named.items():
        have = getattr(entry, field_name)
        if have != value:
            raise ConfigModelError(f"{what} has {field_name} {have}, not {value}")
    return entry


class DeviceConfig:
    """Complete parsed configuration of one router."""

    def __init__(self, name: str, vendor: str = "vendor-a", asn: int = 64512) -> None:
        self.name = name
        self.vendor_name = vendor
        self.asn = asn
        self.policy_ctx = PolicyContext(vendor=get_profile(vendor))
        self.peers: List[BgpPeerConfig] = []
        # statics, aggregates, redistributions, sr_policies, pbr_rules, acls, vrfs
        for section in SECTIONS:
            setattr(self, section, {})
        self.vrfs[GLOBAL_VRF] = VrfConfig(name=GLOBAL_VRF)
        self.interface_acls: Dict[str, str] = {}
        self.isis = IsisConfig()
        #: BGP multipath (maximum-paths); 1 disables ECMP.
        self.max_paths = 8
        #: administratively isolated (drained) device; *how* isolation takes
        #: effect is the "device isolation" VSB (via policy vs via config).
        self.isolated = False

    # -- vendor ------------------------------------------------------------

    @property
    def vendor(self) -> VendorProfile:
        return self.policy_ctx.vendor

    def set_vendor_profile(self, profile: VendorProfile) -> None:
        """Swap the behaviour profile (used by accuracy mismodelling)."""
        self.policy_ctx.vendor = profile

    # -- BGP -----------------------------------------------------------------

    def add_peer(self, peer: BgpPeerConfig) -> BgpPeerConfig:
        if any(p.peer == peer.peer and p.vrf == peer.vrf for p in self.peers):
            raise ConfigModelError(
                f"{self.name}: duplicate BGP peer {peer.peer!r} in vrf {peer.vrf!r}"
            )
        self.peers.append(peer)
        return peer

    def peer_to(self, name: str, vrf: str = GLOBAL_VRF) -> Optional[BgpPeerConfig]:
        for p in self.peers:
            if p.peer == name and p.vrf == vrf:
                return p
        return None

    def remove_peer(self, name: str, vrf: str = GLOBAL_VRF) -> None:
        self.peers.remove(held(f"BGP peer {name} in vrf {vrf}", self.peer_to(name, vrf), {}))

    # -- keyed sections ----------------------------------------------------------

    def put(self, section: str, entry):
        """Put ``entry`` under its key in ``section``, replacing any entry there."""
        spec = SECTIONS[section]
        table = getattr(self, section)
        table[spec.key_of(vars(entry))] = entry
        if spec.key == ("seq",):
            setattr(self, section, dict(sorted(table.items())))
        return entry

    def delete(self, section: str, **named) -> None:
        """Delete the entry of ``section`` that ``named`` keys, which must hold
        every value ``named`` gives (see :func:`held`)."""
        spec = SECTIONS[section]
        table, key = getattr(self, section), spec.key_of(named)
        held(" ".join([spec.label] + [f"{n} {named[n]}" for n in spec.key]), table.get(key), named)
        del table[key]

    def add_vrf(self, vrf: VrfConfig) -> VrfConfig:
        if vrf.name in self.vrfs:
            raise ConfigModelError(f"{self.name}: duplicate vrf {vrf.name!r}")
        return self.put("vrfs", vrf)

    def add_static(self, prefix: str, nexthop: str, vrf: str = GLOBAL_VRF,
                   preference: int = 1) -> StaticRouteConfig:
        static = StaticRouteConfig(as_prefix(prefix), as_address(nexthop), vrf, preference)
        return self.put("statics", static)

    def add_aggregate(self, prefix: str, vrf: str = GLOBAL_VRF,
                      as_set: bool = False, summary_only: bool = False) -> AggregateConfig:
        return self.put("aggregates", AggregateConfig(as_prefix(prefix), vrf, as_set, summary_only))

    def add_sr_policy(self, name: str, endpoint: str, color: int = 100,
                      segments: Tuple[str, ...] = ()) -> SrPolicyConfig:
        return self.put("sr_policies", SrPolicyConfig(name, endpoint, color, segments))

    def sr_policy_towards(self, endpoint: str) -> Optional[SrPolicyConfig]:
        for policy in self.sr_policies.values():
            if policy.enabled and policy.endpoint == endpoint:
                return policy
        return None

    def add_pbr_rule(self, rule: PbrRuleConfig) -> PbrRuleConfig:
        return self.put("pbr_rules", rule)

    def add_acl(self, acl: AclConfig) -> AclConfig:
        return self.put("acls", acl)

    def bind_acl(self, interface: str, acl_name: str) -> None:
        self.interface_acls[interface] = acl_name

    def add_redistribution(self, source: str, policy: Optional[str] = None,
                           vrf: str = GLOBAL_VRF) -> RedistributionConfig:
        return self.put("redistributions", RedistributionConfig(source, policy, vrf))

    # -- copying ---------------------------------------------------------------

    def copy(self) -> "DeviceConfig":
        """Deep copy for incremental change application."""
        clone = DeviceConfig(self.name, self.vendor_name, self.asn)
        clone.policy_ctx = self.policy_ctx.copy()
        clone.peers = copy.deepcopy(self.peers)
        for section in SECTIONS:
            setattr(clone, section, copy.deepcopy(getattr(self, section)))
        clone.interface_acls = dict(self.interface_acls)
        clone.isis = copy.deepcopy(self.isis)
        clone.max_paths = self.max_paths
        clone.isolated = self.isolated
        return clone

    def __repr__(self) -> str:
        return (
            f"DeviceConfig({self.name!r}, vendor={self.vendor_name!r}, "
            f"asn={self.asn}, peers={len(self.peers)})"
        )
