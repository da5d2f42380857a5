"""The ``vendor-a`` configuration dialect (``router bgp`` / ``route-map`` style).

Vendor A is the Figure 9 vendor: its behaviour profile zeroes the IGP cost of
SR-enabled destinations. Its CLI uses ``no`` for negation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.net.addr import as_prefix
from repro.net.config.base import ConfigParseError, DialectParser, register_dialect
from repro.net.device import (
    AclConfig,
    AclRuleConfig,
    BgpPeerConfig,
    GLOBAL_VRF,
    PbrRuleConfig,
    VrfConfig,
)
from repro.net.policy import PERMIT, DENY, PolicyNode


def _take_option(tokens: List[str], key: str) -> Optional[str]:
    """Pop ``key <value>`` from a token list, returning the value."""
    if key in tokens:
        i = tokens.index(key)
        value = tokens[i + 1]
        del tokens[i : i + 2]
        return value
    return None


def _take_flag(tokens: List[str], key: str) -> bool:
    if key in tokens:
        tokens.remove(key)
        return True
    return False


class VendorAParser(DialectParser):
    dialect = "vendor-a"
    negation_keyword = "no"

    def handlers(self) -> Sequence[Tuple[Tuple[str, ...], str]]:
        return (
            (("router", "bgp"), "cmd_router_bgp"),
            (("router", "isis"), "cmd_router_isis"),
            (("route-map",), "cmd_route_map"),
            (("ip", "prefix-list"), "cmd_ip_prefix_list"),
            (("ipv6", "prefix-list"), "cmd_ipv6_prefix_list"),
            (("ip", "community-list"), "cmd_community_list"),
            (("ip", "as-path", "access-list"), "cmd_aspath_list"),
            (("ip", "route"), "cmd_ip_route"),
            (("vrf", "definition"), "cmd_vrf"),
            (("segment-routing", "policy"), "cmd_sr_policy"),
            (("pbr", "rule"), "cmd_pbr_rule"),
            (("access-list",), "cmd_access_list"),
            (("interface",), "cmd_interface"),
            (("isis", "cost"), "cmd_isis_cost"),
            (("isis", "te"), "cmd_isis_te"),
            (("isolate",), "cmd_isolate"),
            # BGP-context sub-commands
            (("neighbor",), "sub_neighbor"),
            (("aggregate-address",), "sub_aggregate"),
            (("redistribute",), "sub_redistribute"),
            (("maximum-paths",), "sub_maximum_paths"),
            # route-map node sub-commands
            (("match",), "sub_match"),
            (("set",), "sub_set"),
            # vrf sub-commands
            (("rd",), "sub_rd"),
            (("route-target",), "sub_route_target"),
            (("export-policy",), "sub_export_policy"),
            # interface sub-commands
            (("ip", "access-group"), "sub_access_group"),
        )

    # -- top-level ---------------------------------------------------------

    def cmd_router_bgp(self, tokens: List[str], negated: bool) -> None:
        if negated:
            self.config.peers.clear()
            self.config.aggregates.clear()
            self.config.redistributions.clear()
            return
        self.config.asn = int(tokens[0])
        self._set_context("bgp", None)

    def cmd_router_isis(self, tokens: List[str], negated: bool) -> None:
        self.config.isis.enabled = not negated

    def cmd_route_map(self, tokens: List[str], negated: bool) -> None:
        # route-map NAME [permit|deny] [SEQ]
        name = tokens[0]
        rest = tokens[1:]
        action: Optional[str] = PERMIT
        if rest and rest[0] in (PERMIT, DENY):
            action = rest[0]
            rest = rest[1:]
        elif rest and rest[0] == "none":
            # explicit "no action" node — exercises the implicit-action VSB
            action = None
            rest = rest[1:]
        seq = int(rest[0]) if rest else 10

        policies = self.config.policy_ctx.policies
        if negated:
            if not rest and len(tokens) == 1:
                policies.pop(name, None)
                return
            policy = policies.get(name)
            if policy is None:
                raise ConfigParseError(f"no route-map {name!r}", self._line_no)
            policy.remove_node(seq)
            return
        policy = policies.get(name)
        if policy is None:
            policy = self.config.policy_ctx.define_policy(name)
        existing = next((n for n in policy.nodes if n.seq == seq), None)
        if existing is not None:
            existing.action = action
            node = existing
        else:
            node = policy.node(seq, action)
        self._set_context("route-map-node", node)

    def _parse_prefix_list(self, tokens: List[str], negated: bool, family: int) -> None:
        name = tokens[0]
        rest = list(tokens[1:])
        plists = self.config.policy_ctx.prefix_lists
        if negated and not rest:
            plists.pop(name, None)
            return
        _take_option(rest, "seq")
        action = rest.pop(0)
        if action not in (PERMIT, DENY):
            raise ConfigParseError(f"expected permit/deny, got {action!r}", self._line_no)
        prefix = rest.pop(0)
        ge = _take_option(rest, "ge")
        le = _take_option(rest, "le")
        plist = plists.get(name)
        if plist is None:
            plist = self.config.policy_ctx.define_prefix_list(name, family=family)
        if negated:
            plist.entries = [
                e for e in plist.entries if str(e.prefix) != str(as_prefix(prefix))
            ]
            return
        plist.add(
            prefix,
            action,
            ge=int(ge) if ge else None,
            le=int(le) if le else None,
        )

    def cmd_ip_prefix_list(self, tokens: List[str], negated: bool) -> None:
        self._parse_prefix_list(tokens, negated, family=4)

    def cmd_ipv6_prefix_list(self, tokens: List[str], negated: bool) -> None:
        self._parse_prefix_list(tokens, negated, family=6)

    def cmd_community_list(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        clists = self.config.policy_ctx.community_lists
        if negated:
            clists.pop(name, None)
            return
        if tokens[1] != PERMIT:
            raise ConfigParseError("community-list only supports permit", self._line_no)
        clist = clists.get(name) or self.config.policy_ctx.define_community_list(name)
        for value in tokens[2:]:
            clist.add(value)

    def cmd_aspath_list(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        alists = self.config.policy_ctx.aspath_lists
        if negated:
            alists.pop(name, None)
            return
        if tokens[1] != PERMIT:
            raise ConfigParseError("as-path list only supports permit", self._line_no)
        alist = alists.get(name) or self.config.policy_ctx.define_aspath_list(name)
        alist.add(" ".join(tokens[2:]))

    def cmd_ip_route(self, tokens: List[str], negated: bool) -> None:
        rest = list(tokens)
        vrf = _take_option(rest, "vrf") or GLOBAL_VRF
        prefix, nexthop = rest[0], rest[1]
        preference = int(rest[2]) if len(rest) > 2 else 1
        if negated:
            target = as_prefix(prefix)
            self.config.statics = [
                s
                for s in self.config.statics
                if not (s.prefix == target and str(s.nexthop) == nexthop and s.vrf == vrf)
            ]
            return
        self.config.add_static(prefix, nexthop, vrf=vrf, preference=preference)

    def cmd_vrf(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        if negated:
            self.config.vrfs.pop(name, None)
            return
        vrf = self.config.vrfs.get(name)
        if vrf is None:
            vrf = self.config.add_vrf(VrfConfig(name=name))
        self._set_context("vrf", vrf)

    def cmd_sr_policy(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        if negated:
            self.config.sr_policies = [
                p for p in self.config.sr_policies if p.name != name
            ]
            return
        rest = list(tokens[1:])
        endpoint = _take_option(rest, "endpoint")
        if endpoint is None:
            raise ConfigParseError("segment-routing policy requires endpoint", self._line_no)
        color = _take_option(rest, "color")
        segments = _take_option(rest, "segments")
        self.config.add_sr_policy(
            name,
            endpoint,
            color=int(color) if color else 100,
            segments=tuple(segments.split(",")) if segments else (),
        )

    def cmd_pbr_rule(self, tokens: List[str], negated: bool) -> None:
        seq = int(tokens[0])
        if negated:
            self.config.pbr_rules = [r for r in self.config.pbr_rules if r.seq != seq]
            return
        rest = list(tokens[1:])
        src = _take_option(rest, "src")
        dst = _take_option(rest, "dst")
        proto = _take_option(rest, "proto")
        nexthop = _take_option(rest, "nexthop")
        if nexthop is None:
            raise ConfigParseError("pbr rule requires nexthop", self._line_no)
        self.config.add_pbr_rule(
            PbrRuleConfig(
                seq=seq,
                nexthop=nexthop,
                src_prefix=as_prefix(src) if src else None,
                dst_prefix=as_prefix(dst) if dst else None,
                protocol=int(proto) if proto else None,
            )
        )

    def cmd_access_list(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        if negated:
            self.config.acls.pop(name, None)
            return
        seq = int(tokens[1])
        action = tokens[2]
        rest = list(tokens[3:])
        src = _take_option(rest, "src")
        dst = _take_option(rest, "dst")
        proto = _take_option(rest, "proto")
        port = _take_option(rest, "port")
        acl = self.config.acls.get(name) or self.config.add_acl(AclConfig(name=name))
        acl.rules.append(
            AclRuleConfig(
                seq=seq,
                action=action,
                src_prefix=as_prefix(src) if src else None,
                dst_prefix=as_prefix(dst) if dst else None,
                protocol=int(proto) if proto else None,
                dst_port=int(port) if port else None,
            )
        )

    def cmd_interface(self, tokens: List[str], negated: bool) -> None:
        if negated:
            self.config.interface_acls.pop(tokens[0], None)
            return
        self._set_context("interface", tokens[0])

    def cmd_isis_cost(self, tokens: List[str], negated: bool) -> None:
        neighbor = tokens[0]
        if negated:
            self.config.isis.cost_overrides.pop(neighbor, None)
            return
        self.config.isis.cost_overrides[neighbor] = int(tokens[1])

    def cmd_isis_te(self, tokens: List[str], negated: bool) -> None:
        self.config.isis.te_enabled = not negated

    def cmd_isolate(self, tokens: List[str], negated: bool) -> None:
        self.config.isolated = not negated

    # -- BGP context ---------------------------------------------------------

    def sub_neighbor(self, tokens: List[str], negated: bool) -> None:
        self._require_context("bgp", "neighbor")
        rest = list(tokens)
        peer_name = rest.pop(0)
        vrf = _take_option(rest, "vrf") or GLOBAL_VRF
        if negated and not rest:
            self.config.remove_peer(peer_name, vrf)
            return
        keyword = rest.pop(0)
        peer = self.config.peer_to(peer_name, vrf)
        if keyword == "remote-as":
            if peer is None:
                self.config.add_peer(
                    BgpPeerConfig(peer=peer_name, remote_asn=int(rest[0]), vrf=vrf)
                )
            else:
                peer.remote_asn = int(rest[0])
            return
        if peer is None:
            raise ConfigParseError(
                f"neighbor {peer_name!r} not declared with remote-as", self._line_no
            )
        if keyword == "route-map":
            map_name, direction = rest[0], rest[1]
            if direction == "in":
                peer.import_policy = None if negated else map_name
            elif direction == "out":
                peer.export_policy = None if negated else map_name
            else:
                raise ConfigParseError(f"bad direction {direction!r}", self._line_no)
        elif keyword == "route-reflector-client":
            peer.route_reflector_client = not negated
        elif keyword == "next-hop-self":
            peer.next_hop_self = not negated
        elif keyword == "additional-paths":
            peer.addpath = 1 if negated else int(rest[0])
        elif keyword == "shutdown":
            peer.enabled = negated
        else:
            raise ConfigParseError(f"unknown neighbor option {keyword!r}", self._line_no)

    def sub_aggregate(self, tokens: List[str], negated: bool) -> None:
        self._require_context("bgp", "aggregate-address")
        rest = list(tokens)
        prefix = rest.pop(0)
        vrf = _take_option(rest, "vrf") or GLOBAL_VRF
        if negated:
            target = as_prefix(prefix)
            self.config.aggregates = [
                a
                for a in self.config.aggregates
                if not (a.prefix == target and a.vrf == vrf)
            ]
            return
        self.config.add_aggregate(
            prefix,
            vrf=vrf,
            as_set=_take_flag(rest, "as-set"),
            summary_only=_take_flag(rest, "summary-only"),
        )

    def sub_redistribute(self, tokens: List[str], negated: bool) -> None:
        self._require_context("bgp", "redistribute")
        source = tokens[0]
        if negated:
            self.config.redistributions = [
                r for r in self.config.redistributions if r.source != source
            ]
            return
        rest = list(tokens[1:])
        policy = _take_option(rest, "route-map")
        vrf = _take_option(rest, "vrf") or GLOBAL_VRF
        self.config.add_redistribution(source, policy=policy, vrf=vrf)

    def sub_maximum_paths(self, tokens: List[str], negated: bool) -> None:
        self._require_context("bgp", "maximum-paths")
        self.config.max_paths = 1 if negated else int(tokens[0])

    # -- route-map node context -------------------------------------------------

    def sub_match(self, tokens: List[str], negated: bool) -> None:
        node = self._require_context("route-map-node", "match")
        assert isinstance(node, PolicyNode)
        kind_tokens = tokens
        if kind_tokens[0] == "ip" or kind_tokens[0] == "ipv6":
            kind_tokens = kind_tokens[1:]
        kind = kind_tokens[0]
        value = " ".join(kind_tokens[1:])
        mapping = {
            "prefix-list": "prefix-list",
            "community": "community-list",
            "as-path": "aspath-list",
            "prefix": "prefix",
            "protocol": "protocol",
            "nexthop": "nexthop",
        }
        if kind not in mapping:
            raise ConfigParseError(f"unknown match kind {kind!r}", self._line_no)
        node.match(mapping[kind], value)

    def sub_set(self, tokens: List[str], negated: bool) -> None:
        node = self._require_context("route-map-node", "set")
        assert isinstance(node, PolicyNode)
        kind = tokens[0]
        rest = tokens[1:]
        if kind == "local-preference":
            node.set("local-pref", rest[0])
        elif kind == "med":
            node.set("med", rest[0])
        elif kind == "weight":
            node.set("weight", rest[0])
        elif kind == "preference":
            node.set("preference", rest[0])
        elif kind == "next-hop":
            node.set("nexthop", rest[0])
        elif kind == "community":
            additive = "additive" in rest
            values = [t for t in rest if t != "additive"]
            node.set("community-add" if additive else "community-set", ",".join(values))
        elif kind == "community-delete":
            node.set("community-delete", ",".join(rest))
        elif kind == "as-path":
            mode = rest[0]
            if mode == "prepend":
                asn = rest[1]
                count = rest[2] if len(rest) > 2 else "1"
                node.set("aspath-prepend", f"{asn}*{count}")
            elif mode == "overwrite":
                node.set("aspath-set", " ".join(rest[1:]))
            else:
                raise ConfigParseError(f"unknown as-path mode {mode!r}", self._line_no)
        else:
            raise ConfigParseError(f"unknown set kind {kind!r}", self._line_no)

    # -- vrf context ----------------------------------------------------------------

    def sub_rd(self, tokens: List[str], negated: bool) -> None:
        vrf = self._require_context("vrf", "rd")
        assert isinstance(vrf, VrfConfig)
        vrf.rd = "" if negated else tokens[0]

    def sub_route_target(self, tokens: List[str], negated: bool) -> None:
        vrf = self._require_context("vrf", "route-target")
        assert isinstance(vrf, VrfConfig)
        direction, value = tokens[0], tokens[1]
        target = vrf.import_rts if direction == "import" else vrf.export_rts
        if negated:
            target.discard(value)
        else:
            target.add(value)

    def sub_export_policy(self, tokens: List[str], negated: bool) -> None:
        vrf = self._require_context("vrf", "export-policy")
        assert isinstance(vrf, VrfConfig)
        vrf.export_policy = None if negated else tokens[0]

    # -- interface context ----------------------------------------------------------

    def sub_access_group(self, tokens: List[str], negated: bool) -> None:
        iface = self._require_context("interface", "ip access-group")
        assert isinstance(iface, str)
        if negated:
            self.config.interface_acls.pop(iface, None)
        else:
            self.config.bind_acl(iface, tokens[0])


register_dialect("vendor-a", VendorAParser)
