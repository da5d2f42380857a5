"""BGP route attributes.

A :class:`Route` carries every attribute that participates in Hoyan's BGP
decision process and route policies: weight, local preference, AS path,
origin, MED, source (eBGP/iBGP/local), IGP cost to the next hop, communities,
and the administrative ``preference`` whose eBGP/iBGP defaults are a
vendor-specific behaviour (Table 5, "default BGP preference").

Routes are immutable; policy application produces modified copies via
:meth:`Route.evolve`. Immutability is what makes the route equivalence-class
computation (§3.1) sound: two input routes with identical attribute tuples
stay interchangeable throughout the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

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


def community(text: str) -> str:
    """Normalize a community string ``"100:1"`` (validates both halves)."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ValueError(f"malformed community {text!r}")
    high, low = (int(p) for p in parts)
    if not (0 <= high <= 0xFFFF and 0 <= low <= 0xFFFF):
        raise ValueError(f"community value out of range: {text!r}")
    return f"{high}:{low}"


class _RouteCaches:
    """Slot holder for :class:`Route`'s lazy derivatives.

    Kept outside the dataclass fields so they never participate in
    ``__init__``/``__eq__``/pickle; ``__weakref__`` is what lets the
    interning layer hold routes in a ``WeakValueDictionary``.
    """

    __slots__ = ("_hash", "_attribute_key", "_canonical_key", "__weakref__")


@dataclass(frozen=True, slots=True)
class Route(_RouteCaches):
    """An immutable route announcement / RIB entry payload.

    ``origin_router``/``origin_vrf`` record the injection point — part of the
    route-EC identity of §3.1. ``igp_cost`` is the cost to reach ``nexthop``
    and is filled in during best-path selection; an SR policy towards the
    next hop may force it to zero on vendors with the "IGP cost for SR" VSB.

    ``slots=True``: a paper-scale fixpoint keeps O(10^5)–O(10^6) route
    objects live (adjacency slots, RIB entries, advertisement caches), and
    the per-instance ``__dict__`` of the dict-based class measured ~3–4x the
    footprint of the slotted layout. The cache slots above replace the old
    ``__dict__``-based lazy caching.
    """

    prefix: Prefix
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

    def evolve(self, **changes) -> "Route":
        """Return a copy with the given attribute changes.

        Equivalent to ``dataclasses.replace`` but without re-running the
        generated ``__init__`` — route copies happen per delivered message
        in the BGP fixpoint and ``replace`` dominated its profile. ``Route``
        has no ``__post_init__`` validation, so a direct field copy is safe;
        the clone starts with every cache slot unset, so derivatives
        recompute lazily.

        With the ``intern_routes`` perf flag on (the default), the copy is
        resolved through the flyweight store: changed AS paths and community
        sets are replaced by their canonical instances, and if a route with
        this exact attribute tuple already exists anywhere in the process,
        *that* instance is returned instead of the fresh clone — so policy
        application and ingress processing stop allocating duplicates. The
        interned instance compares equal to the clone by construction;
        flags-off behaviour is byte-identical to the plain copy.
        """
        unknown = changes.keys() - _ROUTE_FIELDS
        if unknown:
            raise TypeError(f"unknown Route field(s): {sorted(unknown)}")
        interned = perfopts.OPTS.intern_routes
        if interned:
            as_path = changes.get("as_path")
            if as_path is not None:
                changes["as_path"] = interning.intern_as_path(as_path)
            communities = changes.get("communities")
            if communities is not None:
                changes["communities"] = interning.intern_communities(communities)
        clone = object.__new__(Route)
        assign = object.__setattr__
        get_change = changes.get
        for name in _ROUTE_FIELD_ORDER:
            value = get_change(name, _UNCHANGED)
            if value is _UNCHANGED:
                value = getattr(self, name)
            assign(clone, name, value)
        if interned:
            return interning.intern_route(clone)
        return clone

    def with_prefix(self, prefix: Prefix) -> "Route":
        """This route re-announced for ``prefix`` (the §3.1 member clone).

        What ``evolve(prefix=...)`` returns, minus its per-field change
        lookup and the flyweight-store round trip: EC expansion makes tens
        of thousands of these and shares each clone itself.
        """
        clone = object.__new__(Route)
        assign = object.__setattr__
        assign(clone, "prefix", prefix)
        for name in _ROUTE_FIELD_ORDER[1:]:
            assign(clone, name, getattr(self, name))
        return clone

    # -- helpers used by policies and RCL ------------------------------------

    def add_communities(self, values: Tuple[str, ...]) -> "Route":
        added = frozenset(community(v) for v in values)
        return self.evolve(communities=self.communities | added)

    def set_communities(self, values: Tuple[str, ...]) -> "Route":
        return self.evolve(communities=frozenset(community(v) for v in values))

    def delete_communities(self, values: Tuple[str, ...]) -> "Route":
        removed = frozenset(community(v) for v in values)
        return self.evolve(communities=self.communities - removed)

    def prepend_as_path(self, asn: int, count: int = 1) -> "Route":
        return self.evolve(as_path=(asn,) * count + self.as_path)

    def as_path_str(self) -> str:
        """AS path rendered as a space-separated string for regex matching."""
        return " ".join(str(asn) for asn in self.as_path)

    def attribute_key(self) -> Tuple:
        """The BGP-attribute identity used for route-EC grouping (§3.1).

        With ``intern_routes`` on, the tuple is resolved through the
        flyweight store before caching: routes that differ only by prefix
        or injection point (the common shape — one announcement fanned out
        over many prefixes) share one key tuple instead of holding
        structurally-equal private copies.
        """
        key = getattr(self, "_attribute_key", None)
        if key is None:
            key = (
                self.nexthop,
                self.as_path,
                self.origin,
                self.local_pref,
                self.med,
                tuple(sorted(self.communities)),
                self.weight,
                self.preference,
                self.protocol,
                self.source,
                tuple(sorted(self.flags)),
            )
            if perfopts.OPTS.intern_routes:
                key = interning.intern_attribute_key(key)
            object.__setattr__(self, "_attribute_key", key)
        return key

    def canonical_key(self) -> Tuple:
        """The full-identity key of this route (every field, hashable).

        Two routes with equal canonical keys are indistinguishable to any
        pure function of the route — this is what the policy-result memo
        cache keys on. Unlike :meth:`attribute_key` it also carries the
        prefix, injection point, aggregator, and IGP cost.
        """
        key = getattr(self, "_canonical_key", None)
        if key is None:
            key = (
                self.prefix,
                self.origin_router,
                self.origin_vrf,
                self.aggregator,
                self.igp_cost,
                self.attribute_key(),
            )
            object.__setattr__(self, "_canonical_key", key)
        return key

    def __hash__(self) -> int:
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash(self.canonical_key())
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Route:
            return NotImplemented
        # Routes are compared constantly (adjacency slots, advertisement
        # dedup); the cached hash rejects most mismatches in O(1), and the
        # cached canonical key — which covers every field (communities and
        # flags as sorted tuples) — settles the rest with one C-level tuple
        # comparison.
        if hash(self) != hash(other):
            return False
        return self.canonical_key() == other.canonical_key()

    # Pickling: the dataclass-generated __getstate__/__setstate__ pair
    # (added automatically for frozen+slots classes) serializes the fields
    # only, so the cache slots — whose string hashes are per-process — never
    # cross a process boundary.

    def __str__(self) -> str:
        nh = str(self.nexthop) if self.nexthop else "-"
        comms = ",".join(sorted(self.communities)) or "-"
        return (
            f"{self.prefix} nh={nh} lp={self.local_pref} med={self.med} "
            f"aspath=[{self.as_path_str()}] comm={comms} src={self.source}"
        )


#: Field-name set used by :meth:`Route.evolve` for its fast copy path.
_ROUTE_FIELDS = frozenset(f.name for f in Route.__dataclass_fields__.values())
#: Declaration-order field names for the slot-by-slot copy in ``evolve``.
_ROUTE_FIELD_ORDER = tuple(Route.__dataclass_fields__)
#: Sentinel distinguishing "field not in changes" from explicit ``None``.
_UNCHANGED = object()
