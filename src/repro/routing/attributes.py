"""BGP route attributes.

A :class:`Route` carries every attribute that participates in Hoyan's BGP
decision process and route policies: weight, local preference, AS path,
origin, MED, source (eBGP/iBGP/local), IGP cost to the next hop, communities,
and the administrative ``preference`` whose eBGP/iBGP defaults are a
vendor-specific behaviour (Table 5, "default BGP preference").

A route is two slots: its ``prefix`` and ``attrs``, a :class:`RouteAttrs`
record of every other field. Routes that differ only by prefix — the §3.1
route-EC members, one announcement fanned out over many prefixes — share
one record, so a member clone (:meth:`Route.with_prefix`) copies two
references. With the ``intern_routes`` perf flag on (the default), records
are interned (:func:`repro.routing.interning.intern_record`): equal records
anywhere in the process are one object.

Routes are immutable; policy application produces modified copies via
:meth:`Route.evolve`. Immutability is what makes the route equivalence-class
computation (§3.1) sound: two input routes with identical attribute tuples
stay interchangeable throughout the simulation.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import FrozenSet, NamedTuple, Optional, Tuple

from repro import perfopts
from repro.net.addr import IPAddress, Prefix
from repro.routing import interning

ORIGIN_IGP = "igp"
ORIGIN_EGP = "egp"
ORIGIN_INCOMPLETE = "incomplete"

SOURCE_EBGP = "ebgp"
SOURCE_IBGP = "ibgp"
SOURCE_LOCAL = "local"

PROTO_BGP = "bgp"
PROTO_ISIS = "isis"
PROTO_STATIC = "static"
PROTO_DIRECT = "direct"
PROTO_AGGREGATE = "aggregate"
PROTO_SR = "sr"
#: every protocol a route may carry (what a ``protocol`` match can name)
PROTOCOLS = (PROTO_BGP, PROTO_ISIS, PROTO_STATIC, PROTO_DIRECT, PROTO_AGGREGATE, PROTO_SR)


def community(text: str) -> str:
    """Normalize a community string ``"100:1"`` (validates both halves)."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"malformed community {text!r}")
    high, low = (int(p) for p in parts)
    if not (0 <= high <= 0xFFFF and 0 <= low <= 0xFFFF):
        raise ValueError(f"community value out of range: {text!r}")
    return f"{high}:{low}"


class RouteAttrs(NamedTuple):
    """Every field of a :class:`Route` but its prefix, in declaration order.

    ``origin_router``/``origin_vrf`` record the injection point — part of the
    route-EC identity of §3.1. ``igp_cost`` is the cost to reach ``nexthop``
    and is filled in during best-path selection; an SR policy towards the
    next hop may force it to zero on vendors with the "IGP cost for SR" VSB.
    """

    nexthop: Optional[IPAddress] = None
    as_path: Tuple[int, ...] = ()
    origin: str = ORIGIN_IGP
    local_pref: int = 100
    med: int = 0
    communities: FrozenSet[str] = frozenset()
    weight: int = 0
    preference: int = 255
    protocol: str = PROTO_BGP
    source: str = SOURCE_LOCAL
    igp_cost: int = 0
    origin_router: str = ""
    origin_vrf: str = "global"
    aggregator: Optional[str] = None
    #: behaviour markers, e.g. "direct32" for the redistributed /32 direct
    #: route whose peer advertisement is vendor-specific (Table 5).
    flags: FrozenSet[str] = frozenset()


def _interned(attrs: RouteAttrs) -> RouteAttrs:
    """``attrs``, or its canonical instance under the ``intern_routes`` flag."""
    if perfopts.OPTS.intern_routes:
        return interning.intern_record(attrs)
    return attrs


class Route:
    """An immutable route announcement / RIB entry payload.

    Constructed by keyword: ``Route(prefix=..., local_pref=200)``; every
    other field defaults as in :class:`RouteAttrs` and reads as an
    attribute of the route. Two routes are equal exactly when every field
    is; assigning a field raises :class:`~dataclasses.FrozenInstanceError`.
    """

    __slots__ = ("prefix", "attrs")

    prefix: Prefix
    attrs: RouteAttrs

    def __init__(self, prefix: Prefix, *args, **fields) -> None:
        _SET_PREFIX(self, prefix)
        _SET_ATTRS(self, _interned(RouteAttrs(*args, **fields)))

    nexthop = property(attrgetter("attrs.nexthop"))
    as_path = property(attrgetter("attrs.as_path"))
    origin = property(attrgetter("attrs.origin"))
    local_pref = property(attrgetter("attrs.local_pref"))
    med = property(attrgetter("attrs.med"))
    communities = property(attrgetter("attrs.communities"))
    weight = property(attrgetter("attrs.weight"))
    preference = property(attrgetter("attrs.preference"))
    protocol = property(attrgetter("attrs.protocol"))
    source = property(attrgetter("attrs.source"))
    igp_cost = property(attrgetter("attrs.igp_cost"))
    origin_router = property(attrgetter("attrs.origin_router"))
    origin_vrf = property(attrgetter("attrs.origin_vrf"))
    aggregator = property(attrgetter("attrs.aggregator"))
    flags = property(attrgetter("attrs.flags"))

    def evolve(self, **changes) -> "Route":
        """Return a copy with the given field changes.

        The changes are written into a list of the record, which becomes one
        new record (interned under the ``intern_routes`` perf flag, so a
        policy that yields an existing attribute combination returns its
        shared record); the prefix rides in its own slot.
        """
        prefix = changes.pop("prefix", self.prefix)
        if not changes:
            return _new(prefix, self.attrs)
        values = list(self.attrs)
        try:
            for name, value in changes.items():
                values[_FIELD_INDEX[name]] = value
        except KeyError:
            unknown = sorted(changes.keys() - _FIELD_INDEX.keys())
            raise TypeError(f"unknown Route field(s): {unknown}") from None
        return _new(prefix, _interned(tuple.__new__(RouteAttrs, values)))

    def with_prefix(self, prefix: Prefix) -> "Route":
        """This route re-announced for ``prefix`` (the §3.1 member clone).

        Shares this route's record: EC expansion makes tens of thousands of
        these.
        """
        return _new(prefix, self.attrs)

    def as_path_str(self) -> str:
        """AS path rendered as a space-separated string for regex matching."""
        return " ".join(str(asn) for asn in self.as_path)

    def attribute_key(self) -> Tuple:
        """The BGP-attribute identity used for route-EC grouping (§3.1).

        A function of the record alone, so routes that differ only by prefix
        or injection point share it. With ``intern_routes`` on, it is built
        once per record and resolved through the flyweight store: equal keys
        are one instance, which makes the EC-grouping dict lookups hit the
        pointer-equality fast path.
        """
        if perfopts.OPTS.intern_routes:
            return interning.record_attribute_key(self.attrs, _attribute_key)
        return _attribute_key(self.attrs)

    def canonical_key(self) -> Tuple:
        """The full-identity key of this route (every field, hashable).

        Two routes with equal canonical keys are indistinguishable to any
        pure function of the route. Unlike :meth:`attribute_key` it also
        carries the prefix, injection point, aggregator, and IGP cost; its
        sets are sorted tuples, so it is stable across processes.
        """
        a = self.attrs
        return (
            self.prefix,
            a.origin_router,
            a.origin_vrf,
            a.aggregator,
            a.igp_cost,
            self.attribute_key(),
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.attrs))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Route:
            return NotImplemented
        # Equal interned records share every field object, so comparing
        # them is one identity check per field at C speed; equal routes
        # mostly share their prefix too.
        return self.attrs == other.attrs and (
            self.prefix is other.prefix or self.prefix == other.prefix
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Fields only, as a plain tuple; loading re-interns the record.
        return (_load, (self.prefix, tuple(self.attrs)))

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}"
            for name, value in zip(_FIELDS, (self.prefix, *self.attrs))
        )
        return f"Route({fields})"

    def __str__(self) -> str:
        nh = str(self.nexthop) if self.nexthop else "-"
        comms = ",".join(sorted(self.communities)) or "-"
        return (
            f"{self.prefix} nh={nh} lp={self.local_pref} med={self.med} "
            f"aspath=[{self.as_path_str()}] comm={comms} src={self.source}"
        )


_SET_PREFIX = Route.prefix.__set__
_SET_ATTRS = Route.attrs.__set__
#: Every field name of a route, in declaration order.
_FIELDS = ("prefix",) + RouteAttrs._fields
#: Record position of each field :meth:`Route.evolve` may change.
_FIELD_INDEX = {name: i for i, name in enumerate(RouteAttrs._fields)}


def _attribute_key(a: RouteAttrs) -> Tuple:
    return (
        a.nexthop,
        a.as_path,
        a.origin,
        a.local_pref,
        a.med,
        tuple(sorted(a.communities)),
        a.weight,
        a.preference,
        a.protocol,
        a.source,
        tuple(sorted(a.flags)),
    )


def _new(prefix: Prefix, attrs: RouteAttrs) -> Route:
    route = object.__new__(Route)
    _SET_PREFIX(route, prefix)
    _SET_ATTRS(route, attrs)
    return route


def _load(prefix: Prefix, values: Tuple) -> Route:
    """Unpickle a route (see :meth:`Route.__reduce__`)."""
    return _new(prefix, _interned(RouteAttrs._make(values)))
