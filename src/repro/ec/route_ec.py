"""Route equivalence classes (§3.1).

Two input routes are equivalent when:

1. they are injected at the same router and VRF;
2. their prefixes have the same matching results across all prefix sets in
   the network and trigger the same aggregate prefixes on all routers; and
3. they have the same values for all BGP attributes.

Simulating one representative per EC and cloning its RIB rows onto the other
members' prefixes is then sound: nothing in policy evaluation or aggregation
can distinguish the members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.net.addr import Prefix
from repro.net.model import NetworkModel
from repro.routing.attributes import Route
from repro.routing.inputs import InputRoute
from repro.routing.rib import DeviceRib


@dataclass
class RouteEc:
    """One equivalence class: a representative plus all member routes."""

    representative: InputRoute
    members: List[InputRoute] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass
class RouteEcIndex:
    """All ECs of an input route set."""

    classes: List[RouteEc]
    total_routes: int

    @property
    def reduction_factor(self) -> float:
        """input routes per simulated route (the paper reports ~4x).

        An empty input set (``total_routes == 0``, hence no classes) reduces
        nothing: the factor is 1.0, never 0.0 — callers divide durations by
        this value.
        """
        if not self.classes or not self.total_routes:
            return 1.0
        return self.total_routes / len(self.classes)


class PrefixSignatureIndex:
    """Evaluates the prefix-set matching signature of §3.1 condition (2).

    The signature of a prefix is the vector of its matching results against
    every prefix list on every device, every exact-prefix match clause in any
    policy, and containment in every aggregate prefix. Distinct prefixes with
    equal signatures are policy-indistinguishable.

    The model-wide scan is made on the first :meth:`signature` call and the
    signatures are memoized, so one index serves every EC computation over
    the same (unchanged) model.
    """

    def __init__(self, model: NetworkModel) -> None:
        self._model = model
        self._cache: Dict[Prefix, Tuple] = {}

    @cached_property
    def _sets(self) -> Tuple[List[Tuple[object, object]], List[Prefix], List[Prefix]]:
        """(prefix list, vendor) pairs, exact-match prefixes, aggregates."""
        plists: List[Tuple[object, object]] = []
        exact_prefixes: List[Prefix] = []
        aggregates: List[Prefix] = []
        for device in self._model.devices.values():
            vendor = device.vendor
            for plist in device.policy_ctx.prefix_lists.values():
                plists.append((plist, vendor))
            for policy in device.policy_ctx.policies.values():
                for node in policy.nodes:
                    for clause in node.matches:
                        if clause.kind == "prefix":
                            exact_prefixes.append(clause.value)
            for agg in device.aggregates.values():
                aggregates.append(agg.prefix)
        return plists, exact_prefixes, aggregates

    def signature(self, prefix: Prefix) -> Tuple:
        cached = self._cache.get(prefix)
        if cached is not None:
            return cached
        plists, exact_prefixes, aggregates = self._sets
        plist_bits = tuple(plist.evaluate(prefix, vendor) for plist, vendor in plists)
        exact_bits = tuple(p == prefix for p in exact_prefixes)
        # A prefix that *is* an aggregate shares its slot with the derived
        # route, so it never stands for (or behind) another prefix.
        agg_bits = tuple(
            (agg.contains_prefix(prefix), agg == prefix) for agg in aggregates
        )
        result = (plist_bits, exact_bits, agg_bits)
        self._cache[prefix] = result
        return result


def compute_route_ecs(
    model: NetworkModel, input_routes: Iterable[InputRoute]
) -> RouteEcIndex:
    """Group input routes into equivalence classes."""
    signatures = PrefixSignatureIndex(model)
    classes: Dict[Tuple, RouteEc] = {}
    total = 0
    for item in input_routes:
        total += 1
        key = (
            item.router,
            item.vrf,
            item.route.attribute_key(),
            item.route.prefix.length,
            signatures.signature(item.route.prefix),
        )
        ec = classes.get(key)
        if ec is None:
            classes[key] = RouteEc(representative=item, members=[item])
        else:
            ec.members.append(item)
    return RouteEcIndex(classes=list(classes.values()), total_routes=total)


@dataclass
class PrefixGroupEc:
    """An EC of whole prefix groups.

    BGP decision interactions happen among all input routes of one prefix
    (e.g. the same prefix announced at two borders), so the unit of
    simulation is the *prefix group*: all input routes sharing a prefix.
    Two groups are equivalent when their prefixes have equal matching
    signatures and their route sets correspond attribute-for-attribute —
    then simulating one group and cloning its rows onto the other member
    prefixes is sound.
    """

    representative_prefix: Prefix
    representative_routes: List[InputRoute]
    member_prefixes: List[Prefix] = field(default_factory=list)


@dataclass
class PrefixGroupEcIndex:
    classes: List[PrefixGroupEc]
    total_groups: int
    total_routes: int

    @property
    def representative_routes(self) -> List[InputRoute]:
        routes: List[InputRoute] = []
        for ec in self.classes:
            routes.extend(ec.representative_routes)
        return routes

    def members_by_representative(self) -> Dict[Prefix, List[Prefix]]:
        """Representative prefix -> all member prefixes of its class (itself too)."""
        return {ec.representative_prefix: ec.member_prefixes for ec in self.classes}

    @property
    def reduction_factor(self) -> float:
        """prefix groups per simulated group; 1.0 for an empty input set."""
        if not self.classes or not self.total_groups:
            return 1.0
        return self.total_groups / len(self.classes)


def compute_prefix_group_ecs(
    model: NetworkModel,
    input_routes: Iterable[InputRoute],
    signatures: Optional[PrefixSignatureIndex] = None,
) -> PrefixGroupEcIndex:
    """Group same-prefix route sets, then EC-reduce the groups.

    ``signatures`` is a :class:`PrefixSignatureIndex` of ``model`` to reuse.
    """
    groups: Dict[Prefix, List[InputRoute]] = {}
    total_routes = 0
    for item in input_routes:
        total_routes += 1
        groups.setdefault(item.route.prefix, []).append(item)

    # A lone group has nothing to merge with: no signature, no model scan.
    if len(groups) < 2:
        signatures = None
    elif signatures is None:
        signatures = PrefixSignatureIndex(model)
    classes: Dict[Tuple, PrefixGroupEc] = {}
    for prefix, members in groups.items():
        group_shape = tuple(
            sorted(
                (m.router, m.vrf, m.route.attribute_key()) for m in members
            )
        )
        key = (
            prefix.length,
            signatures.signature(prefix) if signatures else (),
            group_shape,
        )
        ec = classes.get(key)
        if ec is None:
            classes[key] = PrefixGroupEc(
                representative_prefix=prefix,
                representative_routes=members,
                member_prefixes=[prefix],
            )
        else:
            ec.member_prefixes.append(prefix)
    return PrefixGroupEcIndex(
        classes=list(classes.values()),
        total_groups=len(groups),
        total_routes=total_routes,
    )


def expand_device_ribs(
    index: PrefixGroupEcIndex, ribs: Mapping[str, DeviceRib]
) -> None:
    """Clone each representative prefix's slots onto its EC's other members.

    In place, on RIBs assembled from a representative-space solve: every
    row kind (best, ECMP, candidate) is copied with its prefix rewritten.
    Slots at prefixes outside the index (derived aggregates) stay as they
    are. A route record recurs on every device that holds the route
    unchanged — records are interned flyweights — so each distinct (record,
    member prefix) pair is cloned once and the clone installed wherever it
    recurs.
    """
    members_of = {
        rep: [member for member in members if member != rep]
        for rep, members in index.members_by_representative().items()
        if len(members) > 1
    }
    # id(route.attrs) is a sound memo key: ``ribs`` keeps every source
    # route, and so its record, alive.
    clones: Dict[Prefix, Dict[int, Route]] = {}
    for rib in ribs.values():
        rib.clone_slots(members_of, clones)
