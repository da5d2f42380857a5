"""The two synthetic vendor dialects, as data over the shared parser.

They differ exactly in what a real CLI family changes: the keywords, the
negation word, and a few token shapes (how a prefix is written, the
policy-node header, the order of a route-target line, the as-path set form,
where an ACL binding names its ACL).

* ``vendor-a`` — ``router bgp`` / ``route-map`` / ``ip prefix-list`` style,
  negated with ``no``. It is the Figure 9 vendor: its behaviour profile
  zeroes the IGP cost of SR-enabled destinations.
* ``vendor-b`` — ``bgp`` / ``route-policy`` / ``ip ip-prefix`` style, negated
  with ``undo``. It is the §6.1 "Changing ISP exits" vendor: ``ip ip-prefix``
  creates an IPv4-family list even when given IPv6 addresses, and applying
  it to IPv6 routes permits them all by default.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.net.config.base import ConfigParser, Dialect
from repro.net.policy import DENY, PERMIT

_NODE_ACTIONS = (PERMIT, DENY, "none")


def _slash_prefix(tokens: List[str]) -> str:
    """One ``A/L`` token."""
    return tokens.pop(0)


def _spaced_prefix(tokens: List[str]) -> str:
    """Two tokens, ``A L``."""
    address, length = tokens.pop(0), tokens.pop(0)
    return f"{address}/{length}"


def _route_map_header(
    tokens: List[str], negated: bool
) -> Tuple[str, Optional[str], Optional[int]]:
    """``route-map NAME [permit|deny|none] [SEQ]``, node 10 by default;
    ``no route-map NAME`` names the whole map."""
    name, rest = tokens[0], tokens[1:]
    if negated and not rest:
        return name, None, None
    action = rest.pop(0) if rest and rest[0] in _NODE_ACTIONS else None
    return name, action, int(rest[0]) if rest else 10


def _route_policy_header(
    tokens: List[str], negated: bool
) -> Tuple[str, Optional[str], Optional[int]]:
    """``route-policy NAME {permit|deny|none} node SEQ``; ``undo`` may leave
    out the action, or name just ``NAME`` for the whole policy."""
    name, rest = tokens[0], tokens[1:]
    if negated and not rest:
        return name, None, None
    action = None if negated and rest[0] == "node" else rest.pop(0)
    if action not in _NODE_ACTIONS + (None,) or rest[0] != "node":
        raise ValueError(f"expected '{{permit|deny|none}} node SEQ', got {' '.join(tokens[1:])!r}")
    return name, action, int(rest[1])


def _aspath_mode_first(tokens: List[str]) -> Tuple[str, List[str]]:
    """``as-path {prepend ASN [COUNT] | overwrite ASN...}``."""
    if tokens[0] not in ("prepend", "overwrite"):
        raise ValueError(f"unknown as-path mode {tokens[0]!r}")
    return tokens[0], tokens[1:]


def _aspath_mode_last(tokens: List[str]) -> Tuple[str, List[str]]:
    """``as-path {ASN [COUNT] | ASN... overwrite}``."""
    if tokens[-1] == "overwrite":
        return "overwrite", tokens[:-1]
    return "prepend", tokens


def _inbound_acl(tokens: List[str]) -> str:
    """The NAME of ``traffic-filter inbound acl NAME``."""
    name = tokens[2]
    if tokens[:2] != ["inbound", "acl"]:
        raise ValueError(f"expected 'inbound acl NAME', got {' '.join(tokens)!r}")
    return name


VENDOR_A = Dialect(
    name="vendor-a",
    negation="no",
    commands={
        ("router", "bgp"): "cmd_bgp",
        ("router", "isis"): "cmd_isis",
        ("isis", "cost"): "cmd_isis_cost",
        ("isis", "te"): "cmd_isis_te",
        ("isolate",): "cmd_isolate",
        ("route-map",): "cmd_policy_node",
        ("ip", "prefix-list"): "cmd_prefix_list_v4",
        ("ipv6", "prefix-list"): "cmd_prefix_list_v6",
        ("ip", "community-list"): "cmd_community_list",
        ("ip", "as-path", "access-list"): "cmd_aspath_list",
        ("ip", "route"): "cmd_static",
        ("vrf", "definition"): "cmd_vrf",
        ("segment-routing", "policy"): "cmd_sr_policy",
        ("pbr", "rule"): "cmd_pbr_rule",
        ("access-list",): "cmd_acl",
        ("interface",): "cmd_interface",
        ("neighbor",): "sub_peer",
        ("aggregate-address",): "sub_aggregate",
        ("redistribute",): "sub_redistribute",
        ("maximum-paths",): "sub_max_paths",
        ("match",): "sub_match",
        ("set",): "sub_set",
        ("rd",): "sub_rd",
        ("route-target",): "sub_route_target",
        ("export-policy",): "sub_export_policy",
        ("ip", "access-group"): "sub_acl_binding",
    },
    words={
        "vrf": "vrf",
        "seq": "seq",
        "ge": "ge",
        "le": "le",
        "remote-as": "remote-as",
        "policy": "route-map",
        "import": "in",
        "export": "out",
        "rr-client": "route-reflector-client",
        "next-hop-self": "next-hop-self",
        "shutdown": "shutdown",
        "summary-only": "summary-only",
        "rt-import": "import",
        "rt-export": "export",
    },
    match_kinds={
        "prefix-list": "prefix-list",
        "community": "community-list",
        "as-path": "aspath-list",
        "prefix": "prefix",
        "protocol": "protocol",
        "nexthop": "nexthop",
    },
    match_qualifiers=("ip", "ipv6"),
    set_kinds={
        ("local-preference",): "local-pref",
        ("med",): "med",
        ("weight",): "weight",
        ("preference",): "preference",
        ("next-hop",): "nexthop",
    },
    take_prefix=_slash_prefix,
    policy_header=_route_map_header,
    route_target=lambda tokens: (tokens[0], tokens[1]),
    aspath=_aspath_mode_first,
    acl_name=lambda tokens: tokens[0],
)

VENDOR_B = Dialect(
    name="vendor-b",
    negation="undo",
    commands={
        ("bgp",): "cmd_bgp",
        ("isis",): "cmd_isis",
        ("isis", "cost"): "cmd_isis_cost",
        ("isis", "te"): "cmd_isis_te",
        ("device-isolate",): "cmd_isolate",
        ("route-policy",): "cmd_policy_node",
        ("ip", "ip-prefix"): "cmd_prefix_list_v4",
        ("ip", "ipv6-prefix"): "cmd_prefix_list_v6",
        ("ip", "community-filter"): "cmd_community_list",
        ("ip", "as-path-filter"): "cmd_aspath_list",
        ("ip", "route-static"): "cmd_static",
        ("ip", "vpn-instance"): "cmd_vrf",
        ("segment-routing", "policy"): "cmd_sr_policy",
        ("pbr", "rule"): "cmd_pbr_rule",
        ("acl",): "cmd_acl",
        ("interface",): "cmd_interface",
        ("peer",): "sub_peer",
        ("aggregate",): "sub_aggregate",
        ("import-route",): "sub_redistribute",
        ("maximum", "load-balancing"): "sub_max_paths",
        ("if-match",): "sub_match",
        ("apply",): "sub_set",
        ("route-distinguisher",): "sub_rd",
        ("vpn-target",): "sub_route_target",
        ("export", "route-policy"): "sub_export_policy",
        ("traffic-filter",): "sub_acl_binding",
    },
    words={
        "vrf": "vpn-instance",
        "seq": "index",
        "ge": "greater-equal",
        "le": "less-equal",
        "remote-as": "as-number",
        "policy": "route-policy",
        "import": "import",
        "export": "export",
        "rr-client": "reflect-client",
        "next-hop-self": "next-hop-local",
        "shutdown": "ignore",
        "summary-only": "detail-suppressed",
        "rt-import": "import-extcommunity",
        "rt-export": "export-extcommunity",
        "preference": "preference",
    },
    match_kinds={
        "ip-prefix": "prefix-list",
        "ipv6-prefix": "prefix-list",
        "community-filter": "community-list",
        "as-path-filter": "aspath-list",
        "prefix": "prefix",
        "protocol": "protocol",
        "nexthop": "nexthop",
    },
    match_qualifiers=(),
    set_kinds={
        ("local-preference",): "local-pref",
        ("cost",): "med",
        ("weight",): "weight",
        ("preference",): "preference",
        ("ip-address", "next-hop"): "nexthop",
    },
    take_prefix=_spaced_prefix,
    policy_header=_route_policy_header,
    route_target=lambda tokens: (tokens[1], tokens[0]),
    aspath=_aspath_mode_last,
    acl_name=_inbound_acl,
)

DIALECTS: Dict[str, Dialect] = {d.name: d for d in (VENDOR_A, VENDOR_B)}


def parser_for(vendor: str) -> ConfigParser:
    """A fresh parser for a vendor dialect."""
    try:
        return ConfigParser(DIALECTS[vendor])
    except KeyError:
        raise KeyError(
            f"no config dialect for vendor {vendor!r}; known: {sorted(DIALECTS)}"
        ) from None
