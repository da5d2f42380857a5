"""The ``vendor-b`` configuration dialect (``bgp`` / ``route-policy`` style).

Vendor B is the §6.1 "Changing ISP exits" vendor: ``ip ip-prefix`` creates an
IPv4-family list even when given IPv6 addresses, and applying it to IPv6
routes permits them all by default — the exact misconfiguration Hoyan caught
in that case study. Its CLI uses ``undo`` for negation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.net.addr import as_prefix
from repro.net.config.base import ConfigParseError, DialectParser, register_dialect
from repro.net.config.vendor_a import _take_flag, _take_option
from repro.net.device import (
    AclConfig,
    AclRuleConfig,
    BgpPeerConfig,
    GLOBAL_VRF,
    PbrRuleConfig,
    VrfConfig,
)
from repro.net.policy import DENY, PERMIT, PolicyNode


class VendorBParser(DialectParser):
    dialect = "vendor-b"
    negation_keyword = "undo"

    def handlers(self) -> Sequence[Tuple[Tuple[str, ...], str]]:
        return (
            (("bgp",), "cmd_bgp"),
            (("isis", "cost"), "cmd_isis_cost"),
            (("isis", "te"), "cmd_isis_te"),
            (("isis",), "cmd_isis"),
            (("route-policy",), "cmd_route_policy"),
            (("ip", "ip-prefix"), "cmd_ip_prefix"),
            (("ip", "ipv6-prefix"), "cmd_ipv6_prefix"),
            (("ip", "community-filter"), "cmd_community_filter"),
            (("ip", "as-path-filter"), "cmd_aspath_filter"),
            (("ip", "route-static"), "cmd_route_static"),
            (("ip", "vpn-instance"), "cmd_vpn_instance"),
            (("segment-routing", "policy"), "cmd_sr_policy"),
            (("pbr", "rule"), "cmd_pbr_rule"),
            (("acl",), "cmd_acl"),
            (("interface",), "cmd_interface"),
            (("device-isolate",), "cmd_isolate"),
            # bgp context
            (("peer",), "sub_peer"),
            (("aggregate",), "sub_aggregate"),
            (("import-route",), "sub_import_route"),
            (("maximum", "load-balancing"), "sub_maximum_paths"),
            # route-policy node context
            (("if-match",), "sub_if_match"),
            (("apply",), "sub_apply"),
            # vpn-instance context
            (("route-distinguisher",), "sub_rd"),
            (("vpn-target",), "sub_vpn_target"),
            (("export", "route-policy"), "sub_export_policy"),
            # interface context
            (("traffic-filter",), "sub_traffic_filter"),
        )

    # -- top-level --------------------------------------------------------------

    def cmd_bgp(self, tokens: List[str], negated: bool) -> None:
        if negated:
            self.config.peers.clear()
            self.config.aggregates.clear()
            self.config.redistributions.clear()
            return
        self.config.asn = int(tokens[0])
        self._set_context("bgp", None)

    def cmd_isis(self, tokens: List[str], negated: bool) -> None:
        self.config.isis.enabled = not negated

    def cmd_isis_cost(self, tokens: List[str], negated: bool) -> None:
        neighbor = tokens[0]
        if negated:
            self.config.isis.cost_overrides.pop(neighbor, None)
        else:
            self.config.isis.cost_overrides[neighbor] = int(tokens[1])

    def cmd_isis_te(self, tokens: List[str], negated: bool) -> None:
        self.config.isis.te_enabled = not negated

    def cmd_isolate(self, tokens: List[str], negated: bool) -> None:
        self.config.isolated = not negated

    def cmd_route_policy(self, tokens: List[str], negated: bool) -> None:
        # route-policy NAME {permit|deny} node SEQ
        name = tokens[0]
        policies = self.config.policy_ctx.policies
        if negated:
            if len(tokens) == 1:
                policies.pop(name, None)
                return
            if tokens[1] != "node":
                # "undo route-policy NAME permit node N" also accepted
                seq = int(tokens[tokens.index("node") + 1])
            else:
                seq = int(tokens[2])
            policy = policies.get(name)
            if policy is None:
                raise ConfigParseError(f"no route-policy {name!r}", self._line_no)
            policy.remove_node(seq)
            return
        action: Optional[str]
        if tokens[1] in (PERMIT, DENY):
            action = tokens[1]
        elif tokens[1] == "none":
            action = None
        else:
            raise ConfigParseError(f"expected permit/deny, got {tokens[1]!r}", self._line_no)
        if tokens[2] != "node":
            raise ConfigParseError("expected 'node SEQ'", self._line_no)
        seq = int(tokens[3])
        policy = policies.get(name) or self.config.policy_ctx.define_policy(name)
        existing = next((n for n in policy.nodes if n.seq == seq), None)
        if existing is not None:
            existing.action = action
            node = existing
        else:
            node = policy.node(seq, action)
        self._set_context("route-policy-node", node)

    def _parse_vendor_b_prefix_list(
        self, tokens: List[str], negated: bool, family: int
    ) -> None:
        # ip ip-prefix NAME [index N] {permit|deny} ADDR LEN
        #     [greater-equal N] [less-equal N]
        name = tokens[0]
        rest = list(tokens[1:])
        plists = self.config.policy_ctx.prefix_lists
        if negated and not rest:
            plists.pop(name, None)
            return
        _take_option(rest, "index")
        action = rest.pop(0)
        if action not in (PERMIT, DENY):
            raise ConfigParseError(f"expected permit/deny, got {action!r}", self._line_no)
        address = rest.pop(0)
        length = rest.pop(0)
        ge = _take_option(rest, "greater-equal")
        le = _take_option(rest, "less-equal")
        prefix_text = f"{address}/{length}"
        plist = plists.get(name)
        if plist is None:
            # The family is fixed by the *command*, not by the address given:
            # this is the §6.1 trap — ``ip-prefix`` with IPv6 addresses still
            # creates an IPv4-family list.
            plist = self.config.policy_ctx.define_prefix_list(name, family=family)
        if negated:
            plist.entries = [
                e for e in plist.entries if str(e.prefix) != str(as_prefix(prefix_text))
            ]
            return
        plist.add(
            prefix_text,
            action,
            ge=int(ge) if ge else None,
            le=int(le) if le else None,
        )

    def cmd_ip_prefix(self, tokens: List[str], negated: bool) -> None:
        self._parse_vendor_b_prefix_list(tokens, negated, family=4)

    def cmd_ipv6_prefix(self, tokens: List[str], negated: bool) -> None:
        self._parse_vendor_b_prefix_list(tokens, negated, family=6)

    def cmd_community_filter(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        clists = self.config.policy_ctx.community_lists
        if negated:
            clists.pop(name, None)
            return
        if tokens[1] != PERMIT:
            raise ConfigParseError("community-filter only supports permit", self._line_no)
        clist = clists.get(name) or self.config.policy_ctx.define_community_list(name)
        for value in tokens[2:]:
            clist.add(value)

    def cmd_aspath_filter(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        alists = self.config.policy_ctx.aspath_lists
        if negated:
            alists.pop(name, None)
            return
        if tokens[1] != PERMIT:
            raise ConfigParseError("as-path-filter only supports permit", self._line_no)
        alist = alists.get(name) or self.config.policy_ctx.define_aspath_list(name)
        alist.add(" ".join(tokens[2:]))

    def cmd_route_static(self, tokens: List[str], negated: bool) -> None:
        rest = list(tokens)
        vrf = _take_option(rest, "vpn-instance") or GLOBAL_VRF
        address, length, nexthop = rest[0], rest[1], rest[2]
        preference = int(_take_option(rest, "preference") or 1)
        prefix_text = f"{address}/{length}"
        if negated:
            target = as_prefix(prefix_text)
            self.config.statics = [
                s
                for s in self.config.statics
                if not (s.prefix == target and str(s.nexthop) == nexthop and s.vrf == vrf)
            ]
            return
        self.config.add_static(prefix_text, nexthop, vrf=vrf, preference=preference)

    def cmd_vpn_instance(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        if negated:
            self.config.vrfs.pop(name, None)
            return
        vrf = self.config.vrfs.get(name)
        if vrf is None:
            vrf = self.config.add_vrf(VrfConfig(name=name))
        self._set_context("vpn-instance", vrf)

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

    def cmd_acl(self, tokens: List[str], negated: bool) -> None:
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

    # -- bgp context ----------------------------------------------------------------

    def sub_peer(self, tokens: List[str], negated: bool) -> None:
        self._require_context("bgp", "peer")
        rest = list(tokens)
        peer_name = rest.pop(0)
        vrf = _take_option(rest, "vpn-instance") or GLOBAL_VRF
        if negated and not rest:
            self.config.remove_peer(peer_name, vrf)
            return
        keyword = rest.pop(0)
        peer = self.config.peer_to(peer_name, vrf)
        if keyword == "as-number":
            if peer is None:
                self.config.add_peer(
                    BgpPeerConfig(peer=peer_name, remote_asn=int(rest[0]), vrf=vrf)
                )
            else:
                peer.remote_asn = int(rest[0])
            return
        if peer is None:
            raise ConfigParseError(
                f"peer {peer_name!r} not declared with as-number", self._line_no
            )
        if keyword == "route-policy":
            policy_name, direction = rest[0], rest[1]
            if direction == "import":
                peer.import_policy = None if negated else policy_name
            elif direction == "export":
                peer.export_policy = None if negated else policy_name
            else:
                raise ConfigParseError(f"bad direction {direction!r}", self._line_no)
        elif keyword == "reflect-client":
            peer.route_reflector_client = not negated
        elif keyword == "next-hop-local":
            peer.next_hop_self = not negated
        elif keyword == "additional-paths":
            peer.addpath = 1 if negated else int(rest[0])
        elif keyword == "ignore":
            peer.enabled = negated
        else:
            raise ConfigParseError(f"unknown peer option {keyword!r}", self._line_no)

    def sub_aggregate(self, tokens: List[str], negated: bool) -> None:
        self._require_context("bgp", "aggregate")
        rest = list(tokens)
        address, length = rest.pop(0), rest.pop(0)
        vrf = _take_option(rest, "vpn-instance") or GLOBAL_VRF
        prefix_text = f"{address}/{length}"
        if negated:
            target = as_prefix(prefix_text)
            self.config.aggregates = [
                a
                for a in self.config.aggregates
                if not (a.prefix == target and a.vrf == vrf)
            ]
            return
        self.config.add_aggregate(
            prefix_text,
            vrf=vrf,
            as_set=_take_flag(rest, "as-set"),
            summary_only=_take_flag(rest, "detail-suppressed"),
        )

    def sub_import_route(self, tokens: List[str], negated: bool) -> None:
        self._require_context("bgp", "import-route")
        source = tokens[0]
        if negated:
            self.config.redistributions = [
                r for r in self.config.redistributions if r.source != source
            ]
            return
        rest = list(tokens[1:])
        policy = _take_option(rest, "route-policy")
        vrf = _take_option(rest, "vpn-instance") or GLOBAL_VRF
        self.config.add_redistribution(source, policy=policy, vrf=vrf)

    def sub_maximum_paths(self, tokens: List[str], negated: bool) -> None:
        self._require_context("bgp", "maximum load-balancing")
        self.config.max_paths = 1 if negated else int(tokens[0])

    # -- route-policy node context ------------------------------------------------

    def sub_if_match(self, tokens: List[str], negated: bool) -> None:
        node = self._require_context("route-policy-node", "if-match")
        assert isinstance(node, PolicyNode)
        kind = tokens[0]
        value = " ".join(tokens[1:])
        mapping = {
            "ip-prefix": "prefix-list",
            "ipv6-prefix": "prefix-list",
            "community-filter": "community-list",
            "as-path-filter": "aspath-list",
            "prefix": "prefix",
            "protocol": "protocol",
            "nexthop": "nexthop",
        }
        if kind not in mapping:
            raise ConfigParseError(f"unknown if-match kind {kind!r}", self._line_no)
        node.match(mapping[kind], value)

    def sub_apply(self, tokens: List[str], negated: bool) -> None:
        node = self._require_context("route-policy-node", "apply")
        assert isinstance(node, PolicyNode)
        kind = tokens[0]
        rest = tokens[1:]
        if kind == "local-preference":
            node.set("local-pref", rest[0])
        elif kind == "cost":
            node.set("med", rest[0])
        elif kind == "weight":
            node.set("weight", rest[0])
        elif kind == "preference":
            node.set("preference", rest[0])
        elif kind == "ip-address" and rest[0] == "next-hop":
            node.set("nexthop", rest[1])
        elif kind == "community":
            additive = "additive" in rest
            values = [t for t in rest if t != "additive"]
            node.set("community-add" if additive else "community-set", ",".join(values))
        elif kind == "community-delete":
            node.set("community-delete", ",".join(rest))
        elif kind == "as-path":
            if rest[-1] == "overwrite":
                node.set("aspath-set", " ".join(rest[:-1]))
            else:
                asn = rest[0]
                count = rest[1] if len(rest) > 1 else "1"
                node.set("aspath-prepend", f"{asn}*{count}")
        else:
            raise ConfigParseError(f"unknown apply kind {kind!r}", self._line_no)

    # -- vpn-instance context --------------------------------------------------------

    def sub_rd(self, tokens: List[str], negated: bool) -> None:
        vrf = self._require_context("vpn-instance", "route-distinguisher")
        assert isinstance(vrf, VrfConfig)
        vrf.rd = "" if negated else tokens[0]

    def sub_vpn_target(self, tokens: List[str], negated: bool) -> None:
        vrf = self._require_context("vpn-instance", "vpn-target")
        assert isinstance(vrf, VrfConfig)
        value, direction = tokens[0], tokens[1]
        if direction == "import-extcommunity":
            target = vrf.import_rts
        elif direction == "export-extcommunity":
            target = vrf.export_rts
        else:
            raise ConfigParseError(f"bad vpn-target direction {direction!r}", self._line_no)
        if negated:
            target.discard(value)
        else:
            target.add(value)

    def sub_export_policy(self, tokens: List[str], negated: bool) -> None:
        vrf = self._require_context("vpn-instance", "export route-policy")
        assert isinstance(vrf, VrfConfig)
        vrf.export_policy = None if negated else tokens[0]

    # -- interface context -------------------------------------------------------------

    def sub_traffic_filter(self, tokens: List[str], negated: bool) -> None:
        iface = self._require_context("interface", "traffic-filter")
        assert isinstance(iface, str)
        if negated:
            self.config.interface_acls.pop(iface, None)
        else:
            self.config.bind_acl(iface, tokens[-1])


register_dialect("vendor-b", VendorBParser)
