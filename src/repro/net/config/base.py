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
from functools import partialmethod
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.net.addr import IPAddress, Prefix, as_prefix
from repro.net.device import (
    AclConfig,
    AclRuleConfig,
    BgpPeerConfig,
    DeviceConfig,
    GLOBAL_VRF,
    SECTIONS,
    VrfConfig,
    held,
)
from repro.net.policy import (
    DENY, PERMIT, AsPathList, CommunityList, MatchClause, PolicyError, PrefixList, RoutePolicy,
    SetClause,
)
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


def _take_option(tokens: List[str], key: str, kind: Callable = str, required: bool = False):
    """Pop ``key <value>`` from a token list, returning the value as
    ``kind`` (None when the list names no ``key``, unless ``required``)."""
    if key in tokens:
        i = tokens.index(key)
        value = tokens[i + 1]
        del tokens[i : i + 2]
        return kind(value)
    if required:
        raise ValueError(f"missing {key}")
    return None


def _arg(tokens: List[str], i: int, negated: bool, kind: Callable = str):
    """Token ``i`` as ``kind``; an undo may leave it out (None)."""
    return kind(tokens[i]) if i < len(tokens) or not negated else None


def _named(**fields) -> dict:
    """The fields a line names: those it does not name are None."""
    return {name: value for name, value in fields.items() if value is not None}


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
    #: ``(tokens, negated) -> (name, action word, seq)``; the action is None
    #: when the line names none, and a seq of None names the whole policy
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

    A negated line is parsed by the same code as its add line (a value it
    does not name is None) and ends in :meth:`_entry` for a keyed section's
    entry or :func:`_value` for a single value; an undo must name what the
    device holds (:func:`~repro.net.device.held`). Sub-entries (ACL rules,
    list members, policy nodes, clauses) keep the rule, and a list, ACL or
    policy goes with its last one. A negated flag (``shutdown``) is cleared.
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
        except IndexError as exc:
            raise ConfigParseError("incomplete command", self._line_no, line) from exc
        except (ValueError, PolicyError) as exc:
            raise ConfigParseError(str(exc), self._line_no, line) from exc

    def _in_context(self, kind: str):
        if self._context is None or self._context[0] != kind:
            raise ValueError(f"command requires {kind} context")
        return self._context[1]

    def _take_vrf(self, tokens: List[str]) -> str:
        return _take_option(tokens, self.words["vrf"]) or GLOBAL_VRF

    def _entry(self, section: str, negated: bool, **fields) -> None:
        """Add the entry a line names to a keyed section, or undo it."""
        named = _named(**fields)
        if negated:
            self.config.delete(section, **named)
        else:
            self.config.put(section, SECTIONS[section].entry(**named))

    def _sub_entry(self, table, kind: str, name: str, negated: bool, make):
        """The list, ACL or policy a line adds to (made if absent) or undoes from."""
        if negated:
            return held(f"{kind} {name}", table.get(name), {})
        return table.get(name) or table.setdefault(name, make(name))

    # -- top-level commands ----------------------------------------------------

    def cmd_bgp(self, tokens: List[str], negated: bool) -> None:
        asn = _arg(tokens, 0, negated, int)
        if negated:
            config = held("BGP process", self.config, _named(asn=asn))
            for section in (config.peers, config.aggregates, config.redistributions):
                section.clear()
            return
        self.config.asn = asn
        self._context = ("bgp", None)

    def cmd_isis(self, tokens: List[str], negated: bool) -> None:
        self.config.isis.enabled = not negated

    def cmd_isis_cost(self, tokens: List[str], negated: bool) -> None:
        cost = _arg(tokens, 1, negated, int)
        _value(self.config.isis.cost_overrides, tokens[0], cost, negated, f"isis cost {tokens[0]}")

    def cmd_isis_te(self, tokens: List[str], negated: bool) -> None:
        self.config.isis.te_enabled = not negated

    def cmd_isolate(self, tokens: List[str], negated: bool) -> None:
        self.config.isolated = not negated

    def cmd_policy_node(self, tokens: List[str], negated: bool) -> None:
        name, action, seq = self.dialect.policy_header(tokens, negated)
        ctx = self.config.policy_ctx
        named = {} if action is None else {"action": None if action == "none" else action}
        policy = self._sub_entry(ctx.policies, "policy", name, negated, RoutePolicy)
        node = next((n for n in policy.nodes if n.seq == seq), None)
        if not negated:
            node = node or policy.node(seq)
            node.action = named.get("action", PERMIT)
            self._context = ("policy-node", node)
            return
        if seq is not None:
            policy.nodes.remove(held(f"policy {name} node {seq}", node, named))
        if seq is None or not policy.nodes:
            del ctx.policies[name]

    def _prefix_list(self, tokens: List[str], negated: bool, family: int) -> None:
        name, rest = tokens[0], tokens[1:]
        ctx = self.config.policy_ctx
        # The family is fixed by the *command*, not by the address given: this
        # is the §6.1 trap — ``ip ip-prefix`` with IPv6 addresses still
        # creates an IPv4-family list.
        plist = self._sub_entry(ctx.prefix_lists, "prefix list", name, negated,
                                lambda n: PrefixList(n, family=family))
        if negated and not rest:
            del ctx.prefix_lists[name]
            return
        seq = _take_option(rest, self.words["seq"], int)
        action = rest.pop(0)
        if action not in (PERMIT, DENY):
            raise ValueError(f"expected permit/deny, got {action!r}")
        prefix = as_prefix(self.dialect.take_prefix(rest))
        ge, le = (_take_option(rest, self.words[word], int) for word in ("ge", "le"))
        rule = (prefix, action, ge, le)
        if not negated:
            plist.add(*rule, seq=seq)
            return
        # a numbered line names its entry by number, an unnumbered one by rule
        entry = next((e for e in plist.entries if (
            e.seq == seq if seq is not None else e.rule == rule)), None)
        named = _named(**dict(zip(("prefix", "action", "ge", "le"), rule)))
        plist.entries.remove(held(f"prefix list {' '.join(tokens)}", entry, named))
        if not plist.entries:
            del ctx.prefix_lists[name]

    cmd_prefix_list_v4 = partialmethod(_prefix_list, family=4)
    cmd_prefix_list_v6 = partialmethod(_prefix_list, family=6)

    def _member_list(self, tokens, negated, kind, lists, make, members, parse) -> None:
        """A community or as-path list line, ``NAME permit MEMBER...``; a
        negated ``NAME`` undoes the whole list."""
        table = getattr(self.config.policy_ctx, lists)
        name, rest = tokens[0], tokens[1:]
        if (rest or not negated) and rest[0] != PERMIT:
            raise ValueError(f"{kind}s only support permit")
        listed = self._sub_entry(table, kind, name, negated, make)
        held_members = getattr(listed, members)
        for member in parse(rest[1:]) if rest else ():
            if negated:
                what = f"{member} in {kind} {name}"
                held_members.remove(held(what, member if member in held_members else None, {}))
            else:
                listed.add(member)
        if negated and not (rest and held_members):
            del table[name]

    cmd_community_list = partialmethod(
        _member_list, kind="community list", lists="community_lists", members="values",
        make=CommunityList, parse=lambda texts: [community(t) for t in texts])
    cmd_aspath_list = partialmethod(
        _member_list, kind="as-path list", lists="aspath_lists", members="patterns",
        make=AsPathList, parse=lambda texts: [" ".join(texts)])

    def cmd_static(self, tokens: List[str], negated: bool) -> None:
        vrf = self._take_vrf(tokens)
        prefix = as_prefix(self.dialect.take_prefix(tokens))
        nexthop = IPAddress.parse(tokens.pop(0))
        # A dialect without a ``preference`` word gives it after the next hop.
        keyword = self.words.get("preference")
        preference = _take_option(tokens, keyword, int) if keyword else _arg(tokens, 0, True, int)
        self._entry("statics", negated, vrf=vrf, prefix=prefix, nexthop=nexthop,
                    preference=preference)

    def cmd_vrf(self, tokens: List[str], negated: bool) -> None:
        name = tokens[0]
        if negated:
            self.config.delete("vrfs", name=name)
            return
        vrf = self.config.vrfs.get(name) or self.config.put("vrfs", VrfConfig(name=name))
        self._context = ("vrf", vrf)

    def cmd_sr_policy(self, tokens: List[str], negated: bool) -> None:
        rest = tokens[1:]
        segments = _take_option(rest, "segments", lambda text: tuple(text.split(",")))
        self._entry("sr_policies", negated, name=tokens[0], segments=segments,
                    endpoint=_take_option(rest, "endpoint", required=not negated),
                    color=_take_option(rest, "color", int))

    def cmd_pbr_rule(self, tokens: List[str], negated: bool) -> None:
        rest = tokens[1:]
        self._entry("pbr_rules", negated, seq=int(tokens[0]),
                    src_prefix=_take_option(rest, "src", as_prefix),
                    dst_prefix=_take_option(rest, "dst", as_prefix),
                    protocol=_take_option(rest, "proto", int),
                    nexthop=_take_option(rest, "nexthop", required=not negated))

    def cmd_acl(self, tokens: List[str], negated: bool) -> None:
        name, rest = tokens[0], tokens[1:]
        acls = self.config.acls
        if negated and not rest:
            self.config.delete("acls", name=name)
            return
        seq = int(rest.pop(0))
        rule = _named(seq=seq, action=rest.pop(0), src_prefix=_take_option(rest, "src", as_prefix),
                      dst_prefix=_take_option(rest, "dst", as_prefix),
                      protocol=_take_option(rest, "proto", int),
                      dst_port=_take_option(rest, "port", int))
        acl = self._sub_entry(acls, "acl", name, negated, AclConfig)
        if not negated:
            acl.add(AclRuleConfig(**rule))
            return
        held(f"acl {name} rule {seq}", acl.rules.get(seq), rule)
        del acl.rules[seq]
        if not acl.rules:
            del acls[name]

    def cmd_interface(self, tokens: List[str], negated: bool) -> None:
        if negated:
            _value(self.config.interface_acls, tokens[0], None, True,
                   f"acl binding of interface {tokens[0]}")
            return
        self._context = ("interface", tokens[0])

    # -- BGP context -----------------------------------------------------------

    def sub_peer(self, tokens: List[str], negated: bool) -> None:
        self._in_context("bgp")
        words = self.words
        name = tokens.pop(0)
        vrf = self._take_vrf(tokens)
        what = f"BGP peer {name} in vrf {vrf}"
        peer = self.config.peer_to(name, vrf)
        option = tokens.pop(0) if tokens or not negated else words["remote-as"]  # bare undo
        if option == words["remote-as"]:
            asn = _arg(tokens, 0, negated, int)
            if negated:
                self.config.peers.remove(held(what, peer, _named(remote_asn=asn)))
            elif peer is None:
                self.config.add_peer(BgpPeerConfig(peer=name, remote_asn=asn, vrf=vrf))
            else:
                peer.remote_asn = asn
            return
        held(what, peer, {})
        if option == words["rr-client"]:
            peer.route_reflector_client = not negated
        elif option == words["next-hop-self"]:
            peer.next_hop_self = not negated
        elif option == words["shutdown"]:
            peer.enabled = negated
        elif option == words["policy"]:
            direction = {words["import"]: "import", words["export"]: "export"}.get(tokens[1])
            if direction is None:
                raise ValueError(f"bad direction {tokens[1]!r}")
            _value(peer, f"{direction}_policy", tokens[0], negated, f"{direction} policy of {what}")
        elif option == "additional-paths":
            paths = _arg(tokens, 0, negated, int)
            _value(peer, "addpath", paths, negated, f"additional-paths of {what}", unset=1)
        else:
            raise ValueError(f"unknown peer option {option!r}")

    def sub_aggregate(self, tokens: List[str], negated: bool) -> None:
        self._in_context("bgp")
        prefix = as_prefix(self.dialect.take_prefix(tokens))
        self._entry("aggregates", negated, prefix=prefix, vrf=self._take_vrf(tokens),
                    as_set=("as-set" in tokens) or None,
                    summary_only=(self.words["summary-only"] in tokens) or None)

    def sub_redistribute(self, tokens: List[str], negated: bool) -> None:
        self._in_context("bgp")
        source = tokens.pop(0)
        policy = _take_option(tokens, self.words["policy"])
        self._entry("redistributions", negated, source=source, policy=policy,
                    vrf=self._take_vrf(tokens))

    def sub_max_paths(self, tokens: List[str], negated: bool) -> None:
        self._in_context("bgp")
        paths = _arg(tokens, 0, negated, int)
        _value(self.config, "max_paths", paths, negated, "maximum-paths", unset=1)

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
        _value(vrf, "rd", _arg(tokens, 0, negated), negated, f"rd of vrf {vrf.name}", unset="")

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
            what = f"{direction} route target {value} in vrf {vrf.name}"
            target.remove(held(what, value if value in target else None, {}))
        else:
            target.add(value)

    def sub_export_policy(self, tokens: List[str], negated: bool) -> None:
        vrf = self._in_context("vrf")
        policy = _arg(tokens, 0, negated)
        _value(vrf, "export_policy", policy, negated, f"export policy of vrf {vrf.name}")

    # -- interface context -----------------------------------------------------

    def sub_acl_binding(self, tokens: List[str], negated: bool) -> None:
        interface = self._in_context("interface")
        _value(self.config.interface_acls, interface, self.dialect.acl_name(tokens),
               negated, f"acl binding of interface {interface}")


def _value(owner, name: str, value, negated: bool, what: str, unset=None) -> None:
    """Set attribute ``name`` of ``owner`` (its entry, for a dict) to
    ``value``. An undo must name the held value or none; it puts back
    ``unset`` (deletes the entry)."""
    table = owner if isinstance(owner, dict) else vars(owner)
    current = table.get(name, unset)
    if not negated:
        table[name] = value
    elif current == unset:
        raise ValueError(f"no {what}")
    elif value not in (None, current):
        raise ValueError(f"{what} is {current}, not {value}")
    elif table is owner:
        del table[name]
    else:
        table[name] = unset
