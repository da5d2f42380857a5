"""Device configuration model.

A :class:`DeviceConfig` is Hoyan's parsed, vendor-neutral model of one
router's configuration: VRFs, BGP sessions, IS-IS, static routes, aggregate
prefixes, SR policies, PBR rules, ACLs, redistribution, and the device-scoped
policy definitions (:class:`~repro.net.policy.PolicyContext`).

Every section but ``peers`` is a dict keyed by what its command names: a
static by ``(vrf, prefix, nexthop)``, an aggregate by ``(vrf, prefix)``, a
redistribution by ``(vrf, source)``, an SR policy, ACL or VRF by its name,
and PBR and ACL rules by their sequence number (kept in sequence order).
Entering an entry again replaces the one under its key, so a repeated line
changes nothing; a negation deletes its key, so undoing an entry the device
lacks raises ``KeyError``, which the config parser reports as a
``ConfigParseError`` carrying the line.

The network model building service (§2.2) produces one of these per router by
parsing its vendor-dialect configuration (``repro.net.config``); change
verification applies command deltas to copies of them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.net.addr import IPAddress, Prefix, as_address, as_prefix
from repro.net.policy import PolicyContext
from repro.net.vendors import VendorProfile, get_profile

GLOBAL_VRF = "global"


class ConfigModelError(Exception):
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
        if not self.enabled:
            return False
        if self.src_prefix is not None and not self.src_prefix.contains_address(
            flow.src
        ):
            return False
        if self.dst_prefix is not None and not self.dst_prefix.contains_address(
            flow.dst
        ):
            return False
        if self.protocol is not None and flow.protocol != self.protocol:
            return False
        return True


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
        if self.src_prefix is not None and not self.src_prefix.contains_address(
            flow.src
        ):
            return False
        if self.dst_prefix is not None and not self.dst_prefix.contains_address(
            flow.dst
        ):
            return False
        if self.protocol is not None and flow.protocol != self.protocol:
            return False
        if self.dst_port is not None and flow.dst_port != self.dst_port:
            return False
        return True


def _in_seq_order(rules: Dict[int, object], rule) -> Dict[int, object]:
    """``rules`` with ``rule`` under its sequence number, in sequence order."""
    return dict(sorted({**rules, rule.seq: rule}.items()))


@dataclass
class AclConfig:
    """A named ACL; first matching rule wins, default deny."""

    name: str
    rules: Dict[int, AclRuleConfig] = field(default_factory=dict)

    def add(self, rule: AclRuleConfig) -> AclRuleConfig:
        self.rules = _in_seq_order(self.rules, rule)
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


class DeviceConfig:
    """Complete parsed configuration of one router."""

    def __init__(self, name: str, vendor: str = "vendor-a", asn: int = 64512) -> None:
        self.name = name
        self.vendor_name = vendor
        self.asn = asn
        self.policy_ctx = PolicyContext(vendor=get_profile(vendor))
        self.peers: List[BgpPeerConfig] = []
        self.vrfs: Dict[str, VrfConfig] = {GLOBAL_VRF: VrfConfig(name=GLOBAL_VRF)}
        self.statics: Dict[Tuple[str, Prefix, IPAddress], StaticRouteConfig] = {}
        self.aggregates: Dict[Tuple[str, Prefix], AggregateConfig] = {}
        self.sr_policies: Dict[str, SrPolicyConfig] = {}
        self.pbr_rules: Dict[int, PbrRuleConfig] = {}
        self.acls: Dict[str, AclConfig] = {}
        self.interface_acls: Dict[str, str] = {}
        self.isis = IsisConfig()
        self.redistributions: Dict[Tuple[str, str], RedistributionConfig] = {}
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
        peer = self.peer_to(name, vrf)
        if peer is None:
            raise ConfigModelError(f"{self.name}: no BGP peer {name!r} in {vrf!r}")
        self.peers.remove(peer)

    # -- VRFs ----------------------------------------------------------------

    def add_vrf(self, vrf: VrfConfig) -> VrfConfig:
        if vrf.name in self.vrfs:
            raise ConfigModelError(f"{self.name}: duplicate vrf {vrf.name!r}")
        self.vrfs[vrf.name] = vrf
        return vrf

    # -- other subsystems ------------------------------------------------------

    def add_static(self, prefix: str, nexthop: str, vrf: str = GLOBAL_VRF,
                   preference: int = 1) -> StaticRouteConfig:
        static = StaticRouteConfig(
            prefix=as_prefix(prefix),
            nexthop=as_address(nexthop),
            vrf=vrf,
            preference=preference,
        )
        self.statics[(vrf, static.prefix, static.nexthop)] = static
        return static

    def add_aggregate(self, prefix: str, vrf: str = GLOBAL_VRF,
                      as_set: bool = False, summary_only: bool = False) -> AggregateConfig:
        agg = AggregateConfig(
            prefix=as_prefix(prefix), vrf=vrf, as_set=as_set, summary_only=summary_only
        )
        self.aggregates[(vrf, agg.prefix)] = agg
        return agg

    def add_sr_policy(self, name: str, endpoint: str, color: int = 100,
                      segments: Tuple[str, ...] = ()) -> SrPolicyConfig:
        policy = SrPolicyConfig(name=name, endpoint=endpoint, color=color,
                                segments=segments)
        self.sr_policies[name] = policy
        return policy

    def sr_policy_towards(self, endpoint: str) -> Optional[SrPolicyConfig]:
        for policy in self.sr_policies.values():
            if policy.enabled and policy.endpoint == endpoint:
                return policy
        return None

    def add_pbr_rule(self, rule: PbrRuleConfig) -> PbrRuleConfig:
        self.pbr_rules = _in_seq_order(self.pbr_rules, rule)
        return rule

    def add_acl(self, acl: AclConfig) -> AclConfig:
        self.acls[acl.name] = acl
        return acl

    def bind_acl(self, interface: str, acl_name: str) -> None:
        self.interface_acls[interface] = acl_name

    def add_redistribution(self, source: str, policy: Optional[str] = None,
                           vrf: str = GLOBAL_VRF) -> RedistributionConfig:
        redist = RedistributionConfig(source=source, policy=policy, vrf=vrf)
        self.redistributions[(vrf, source)] = redist
        return redist

    # -- copying ---------------------------------------------------------------

    def copy(self) -> "DeviceConfig":
        """Deep copy for incremental change application."""
        clone = DeviceConfig(self.name, self.vendor_name, self.asn)
        clone.policy_ctx = self.policy_ctx.copy()
        clone.peers = copy.deepcopy(self.peers)
        clone.vrfs = copy.deepcopy(self.vrfs)
        clone.statics = copy.deepcopy(self.statics)
        clone.aggregates = copy.deepcopy(self.aggregates)
        clone.sr_policies = copy.deepcopy(self.sr_policies)
        clone.pbr_rules = copy.deepcopy(self.pbr_rules)
        clone.acls = copy.deepcopy(self.acls)
        clone.interface_acls = dict(self.interface_acls)
        clone.isis = copy.deepcopy(self.isis)
        clone.redistributions = copy.deepcopy(self.redistributions)
        clone.max_paths = self.max_paths
        clone.isolated = self.isolated
        return clone

    def __repr__(self) -> str:
        return (
            f"DeviceConfig({self.name!r}, vendor={self.vendor_name!r}, "
            f"asn={self.asn}, peers={len(self.peers)})"
        )
