"""One command interpreter shared by every vendor dialect.

Each command's meaning is written once, in :class:`ConfigParser`. A
:class:`Dialect` is data over it: a keyword table (leading tokens -> shared
handler), a word map spelling the keywords the handlers read, and a few
hooks for the token shapes where the grammars really differ.

The parser is a stateful line interpreter, like a router CLI:
context-opening commands (``router bgp``, ``route-map X permit 10``) set the
current context, indented or subsequent sub-commands apply within it, and any
new top-level command replaces the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.net.addr import IPAddress, Prefix, as_prefix
from repro.net.device import (
    AclConfig,
    AclRuleConfig,
    BgpPeerConfig,
    ConfigModelError,
    DeviceConfig,
    GLOBAL_VRF,
    PbrRuleConfig,
    VrfConfig,
)
from repro.net.policy import DENY, PERMIT, MatchClause, PolicyError, SetClause
from repro.routing.attributes import community

#: keyword-table entries are at most this many tokens long
_LONGEST_KEYWORD = 3


class ConfigParseError(Exception):
    """Raised on a configuration line the dialect cannot interpret."""

    def __init__(self, message: str, line_no: int = 0, line: str = "") -> None:
        super().__init__(
            f"line {line_no}: {message}" + (f" [{line.strip()}]" if line else "")
        )
        self.line_no = line_no
        self.line = line


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


#: match kind -> its value from the line's argument text; list names and
#: protocol names stay text
_MATCH_VALUE: Mapping[str, Callable[[str], object]] = {
    "prefix": Prefix.parse,
    "nexthop": IPAddress.parse,
    "community": community,
}


def _communities(texts: Sequence[str]) -> Tuple[str, ...]:
    """The normal form of a set line's communities: sorted and distinct."""
    return tuple(sorted({community(text) for text in texts}))


@dataclass(frozen=True)
class Dialect:
    """One vendor CLI, as data over the shared command semantics."""

    name: str
    #: the keyword that negates a command ("no"/"undo")
    negation: str
    #: leading keyword tokens -> name of the shared :class:`ConfigParser` handler
    commands: Mapping[Tuple[str, ...], str]
    #: shared keyword -> this dialect's spelling, for the words that differ
    words: Mapping[str, str]
    #: match keyword -> policy match kind
    match_kinds: Mapping[str, str]
    #: words that may stand before a match keyword without changing it
    match_qualifiers: Tuple[str, ...]
    #: set keyword tokens -> policy set kind, for the sets that take one value
    set_kinds: Mapping[Tuple[str, ...], str]
    #: pops one prefix off the front of a token list, returning ``A/L`` text
    take_prefix: Callable[[List[str]], str]
    #: ``(tokens, negated) -> (name, action word, seq)``; seq None names the
    #: whole policy
    policy_header: Callable[[List[str], bool], Tuple[str, str, Optional[int]]]
    #: route-target tokens -> ``(direction, value)``
    route_target: Callable[[List[str]], Tuple[str, str]]
    #: as-path set tokens -> ``("prepend" | "overwrite", arguments)``
    aspath: Callable[[List[str]], Tuple[str, List[str]]]
    #: ACL binding tokens -> the ACL name
    acl_name: Callable[[List[str]], str]

    def command(self, line: str) -> Tuple[Optional[str], List[str], bool]:
        """Split a line into ``(handler, arguments, negated)``.

        The longest keyword-table entry that leads the line wins; the handler
        is None when none does.
        """
        tokens = line.split()
        negated = tokens[:1] == [self.negation]
        if negated:
            tokens = tokens[1:]
        lowered = tuple(token.lower() for token in tokens[:_LONGEST_KEYWORD])
        for n in range(len(lowered), 0, -1):
            handler = self.commands.get(lowered[:n])
            if handler is not None:
                return handler, tokens[n:], negated
        return None, tokens, negated


class ConfigParser:
    """Interprets one dialect's command lines against a device model.

    Handlers named ``cmd_*`` are top-level commands, ``sub_*`` ones run in
    a context. Each receives its own list of argument tokens (it may consume
    them) and the negation flag; a rejection raises ``ValueError`` (or the
    device or policy model's own error), which :meth:`apply` reports as
    :class:`ConfigParseError` with the line.
    """

    def __init__(self, dialect: Dialect) -> None:
        self.dialect = dialect
        self.words = dialect.words
        self.config: Optional[DeviceConfig] = None
        self._context: Optional[Tuple[str, object]] = None
        self._line_no = 0

    def parse(self, text: str, device_name: str, asn: int = 64512) -> DeviceConfig:
        """Parse a full configuration into a fresh device model."""
        config = DeviceConfig(device_name, vendor=self.dialect.name, asn=asn)
        self.apply(config, text.splitlines())
        return config

    def apply(self, config: DeviceConfig, lines: Sequence[str]) -> None:
        """Interpret command lines against an existing device model."""
        self.config = config
        for raw in lines:
            self._line_no += 1
            line = raw.rstrip()
            stripped = line.strip()
            if stripped and not stripped.startswith(("!", "#")):
                self._dispatch(line)
        self._context = None
        self.config = None

    def _dispatch(self, line: str) -> None:
        handler, args, negated = self.dialect.command(line)
        if handler is None:
            raise ConfigParseError("unrecognized command", self._line_no, line)
        if not line.startswith(" ") and not handler.startswith("sub_"):
            self._context = None
        try:
            getattr(self, handler)(args, negated)
        except (
            ValueError, KeyError, IndexError, ConfigModelError, PolicyError
        ) as exc:
            raise ConfigParseError(
                f"{type(exc).__name__}: {exc}", self._line_no, line
            ) from exc

    def _in_context(self, kind: str):
        if self._context is None or self._context[0] != kind:
            raise ValueError(f"command requires {kind} context")
        return self._context[1]

    def _take_vrf(self, tokens: List[str]) -> str:
        return _take_option(tokens, self.words["vrf"]) or GLOBAL_VRF

    # -- top-level commands ----------------------------------------------------

    def cmd_bgp(self, tokens: List[str], negated: bool) -> None:
        if negated:
            self.config.peers.clear()
            self.config.aggregates.clear()
            self.config.redistributions.clear()
            return
        self.config.asn = int(tokens[0])
        self._context = ("bgp", None)

    def cmd_isis(self, tokens: List[str], negated: bool) -> None:
        self.config.isis.enabled = not negated

    def cmd_isis_cost(self, tokens: List[str], negated: bool) -> None:
        neighbor = tokens[0]
        if negated:
            del self.config.isis.cost_overrides[neighbor]
            return
        self.config.isis.cost_overrides[neighbor] = int(tokens[1])

    def cmd_isis_te(self, tokens: List[str], negated: bool) -> None:
        self.config.isis.te_enabled = not negated

    def cmd_isolate(self, tokens: List[str], negated: bool) -> None:
        self.config.isolated = not negated

    def cmd_policy_node(self, tokens: List[str], negated: bool) -> None:
        name, action, seq = self.dialect.policy_header(tokens, negated)
        policies = self.config.policy_ctx.policies
        if negated:
            if seq is None:
                del policies[name]
            else:
                policies[name].remove_node(seq)
            return
        node_action = None if action == "none" else action
        policy = policies.get(name) or self.config.policy_ctx.define_policy(name)
        node = next((n for n in policy.nodes if n.seq == seq), None)
        if node is None:
            node = policy.node(seq, node_action)
        else:
            node.action = node_action
        self._context = ("policy-node", node)

    def cmd_prefix_list_v4(self, tokens: List[str], negated: bool) -> None:
        self._prefix_list(tokens, negated, family=4)

    def cmd_prefix_list_v6(self, tokens: List[str], negated: bool) -> None:
        self._prefix_list(tokens, negated, family=6)

    def _prefix_list(self, tokens: List[str], negated: bool, family: int) -> None:
        name, rest = tokens[0], tokens[1:]
        plists = self.config.policy_ctx.prefix_lists
        if negated and not rest:
            del plists[name]
            return
        seq = _take_option(rest, self.words["seq"])
        action = rest.pop(0)
        if action not in (PERMIT, DENY):
            raise ValueError(f"expected permit/deny, got {action!r}")
        prefix = self.dialect.take_prefix(rest)
        ge = _take_option(rest, self.words["ge"])
        le = _take_option(rest, self.words["le"])
        seq = int(seq) if seq is not None else None
        rule = (as_prefix(prefix), action, int(ge) if ge else None, int(le) if le else None)
        plist = plists.get(name)
        if negated:
            if plist is None:
                raise ValueError(f"no prefix list {name!r}")
            plist.remove(seq, rule)
            return
        if plist is None:
            # The family is fixed by the *command*, not by the address given:
            # this is the §6.1 trap — ``ip ip-prefix`` with IPv6 addresses
            # still creates an IPv4-family list.
            plist = self.config.policy_ctx.define_prefix_list(name, family=family)
        plist.add(*rule, seq=seq)

    def cmd_community_list(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        clists = self.config.policy_ctx.community_lists
        if negated:
            del clists[name]
            return
        if tokens[1] != PERMIT:
            raise ValueError("community lists only support permit")
        clist = clists.get(name) or self.config.policy_ctx.define_community_list(name)
        for value in tokens[2:]:
            clist.add(value)

    def cmd_aspath_list(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        alists = self.config.policy_ctx.aspath_lists
        if negated:
            del alists[name]
            return
        if tokens[1] != PERMIT:
            raise ValueError("as-path lists only support permit")
        alist = alists.get(name) or self.config.policy_ctx.define_aspath_list(name)
        alist.add(" ".join(tokens[2:]))

    def cmd_static(self, tokens: List[str], negated: bool) -> None:
        vrf = self._take_vrf(tokens)
        prefix = self.dialect.take_prefix(tokens)
        nexthop = tokens.pop(0)
        if negated:
            del self.config.statics[(vrf, as_prefix(prefix), IPAddress.parse(nexthop))]
            return
        # A dialect without a ``preference`` word gives it after the next hop.
        keyword = self.words.get("preference")
        if keyword:
            preference = _take_option(tokens, keyword)
        else:
            preference = tokens[0] if tokens else None
        self.config.add_static(prefix, nexthop, vrf=vrf, preference=int(preference or 1))

    def cmd_vrf(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        if negated:
            del self.config.vrfs[name]
            return
        vrf = self.config.vrfs.get(name)
        if vrf is None:
            vrf = self.config.add_vrf(VrfConfig(name=name))
        self._context = ("vrf", vrf)

    def cmd_sr_policy(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        if negated:
            del self.config.sr_policies[name]
            return
        rest = tokens[1:]
        endpoint = _take_option(rest, "endpoint")
        if endpoint is None:
            raise ValueError("segment-routing policy requires endpoint")
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
            del self.config.pbr_rules[seq]
            return
        rest = tokens[1:]
        src = _take_option(rest, "src")
        dst = _take_option(rest, "dst")
        proto = _take_option(rest, "proto")
        nexthop = _take_option(rest, "nexthop")
        if nexthop is None:
            raise ValueError("pbr rule requires nexthop")
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
            del self.config.acls[name]
            return
        seq = int(tokens[1])
        action = tokens[2]
        rest = tokens[3:]
        src = _take_option(rest, "src")
        dst = _take_option(rest, "dst")
        proto = _take_option(rest, "proto")
        port = _take_option(rest, "port")
        acl = self.config.acls.get(name) or self.config.add_acl(AclConfig(name=name))
        acl.add(
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
            del self.config.interface_acls[tokens[0]]
            return
        self._context = ("interface", tokens[0])

    # -- BGP context -----------------------------------------------------------

    def sub_peer(self, tokens: List[str], negated: bool) -> None:
        self._in_context("bgp")
        words = self.words
        name = tokens.pop(0)
        vrf = self._take_vrf(tokens)
        if negated and not tokens:
            self.config.remove_peer(name, vrf)
            return
        option = tokens.pop(0)
        peer = self.config.peer_to(name, vrf)
        if option == words["remote-as"]:
            if peer is None:
                self.config.add_peer(
                    BgpPeerConfig(peer=name, remote_asn=int(tokens[0]), vrf=vrf)
                )
            else:
                peer.remote_asn = int(tokens[0])
            return
        if peer is None:
            raise ValueError(f"peer {name!r} not declared with {words['remote-as']}")
        if option == words["policy"]:
            policy, direction = tokens[0], tokens[1]
            if direction == words["import"]:
                peer.import_policy = None if negated else policy
            elif direction == words["export"]:
                peer.export_policy = None if negated else policy
            else:
                raise ValueError(f"bad direction {direction!r}")
        elif option == words["rr-client"]:
            peer.route_reflector_client = not negated
        elif option == words["next-hop-self"]:
            peer.next_hop_self = not negated
        elif option == "additional-paths":
            peer.addpath = 1 if negated else int(tokens[0])
        elif option == words["shutdown"]:
            peer.enabled = negated
        else:
            raise ValueError(f"unknown peer option {option!r}")

    def sub_aggregate(self, tokens: List[str], negated: bool) -> None:
        self._in_context("bgp")
        prefix = self.dialect.take_prefix(tokens)
        vrf = self._take_vrf(tokens)
        if negated:
            del self.config.aggregates[(vrf, as_prefix(prefix))]
            return
        self.config.add_aggregate(
            prefix,
            vrf=vrf,
            as_set=_take_flag(tokens, "as-set"),
            summary_only=_take_flag(tokens, self.words["summary-only"]),
        )

    def sub_redistribute(self, tokens: List[str], negated: bool) -> None:
        self._in_context("bgp")
        source = tokens.pop(0)
        policy = _take_option(tokens, self.words["policy"])
        vrf = self._take_vrf(tokens)
        if negated:
            del self.config.redistributions[(vrf, source)]
            return
        self.config.add_redistribution(source, policy=policy, vrf=vrf)

    def sub_max_paths(self, tokens: List[str], negated: bool) -> None:
        self._in_context("bgp")
        self.config.max_paths = 1 if negated else int(tokens[0])

    # -- policy-node context ---------------------------------------------------

    def sub_match(self, tokens: List[str], negated: bool) -> None:
        node = self._in_context("policy-node")
        if tokens[0] in self.dialect.match_qualifiers:
            tokens = tokens[1:]
        kind = self.dialect.match_kinds.get(tokens[0])
        if kind is None:
            raise ValueError(f"unknown match kind {tokens[0]!r}")
        value = _MATCH_VALUE.get(kind, str)(" ".join(tokens[1:]))
        (node.remove if negated else node.add)(MatchClause(kind, value))

    def sub_set(self, tokens: List[str], negated: bool) -> None:
        node = self._in_context("policy-node")
        clause = SetClause(*self._set_clause(tokens))
        (node.remove if negated else node.add)(clause)

    def _set_clause(self, tokens: List[str]) -> Tuple[str, object]:
        """The ``(kind, value)`` of one set line's tokens, value in normal form."""
        for keyword, kind in self.dialect.set_kinds.items():
            if tuple(tokens[: len(keyword)]) == keyword:
                text = " ".join(tokens[len(keyword):])
                return kind, IPAddress.parse(text) if kind == "nexthop" else int(text)
        keyword, rest = tokens[0], tokens[1:]
        if keyword == "community":
            values = [t for t in rest if t != "additive"]
            kind = "community-add" if "additive" in rest else "community-set"
            return kind, _communities(values)
        if keyword == "community-delete":
            return "community-delete", _communities(rest)
        if keyword == "as-path":
            mode, args = self.dialect.aspath(rest)
            asns = tuple(int(a) for a in args)
            if mode == "overwrite":
                return "aspath-set", asns
            if not 1 <= len(asns) <= 2:
                raise ValueError("as-path prepend takes ASN [COUNT]")
            return "aspath-prepend", (asns[0], asns[1] if len(asns) == 2 else 1)
        raise ValueError(f"unknown set kind {keyword!r}")

    # -- vrf context -----------------------------------------------------------

    def sub_rd(self, tokens: List[str], negated: bool) -> None:
        vrf = self._in_context("vrf")
        vrf.rd = "" if negated else tokens[0]

    def sub_route_target(self, tokens: List[str], negated: bool) -> None:
        vrf = self._in_context("vrf")
        direction, value = self.dialect.route_target(tokens)
        if direction == self.words["rt-import"]:
            target = vrf.import_rts
        elif direction == self.words["rt-export"]:
            target = vrf.export_rts
        else:
            raise ValueError(f"bad route-target direction {direction!r}")
        if negated:
            target.remove(value)
        else:
            target.add(value)

    def sub_export_policy(self, tokens: List[str], negated: bool) -> None:
        vrf = self._in_context("vrf")
        vrf.export_policy = None if negated else tokens[0]

    # -- interface context -----------------------------------------------------

    def sub_acl_binding(self, tokens: List[str], negated: bool) -> None:
        interface = self._in_context("interface")
        if negated:
            del self.config.interface_acls[interface]
        else:
            self.config.bind_acl(interface, self.dialect.acl_name(tokens))
