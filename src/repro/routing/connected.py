"""Protocol contention in a RIB slot, and the connected routes that join it.

Administrative preference decides between the protocols competing for one
``(vrf, prefix)`` slot: :func:`resolve_contenders` is the single statement
of that rule, used for the BGP rows of a slot and again when a device's
static and loopback-direct routes are installed on top
(:func:`install_connected_routes`). The rule is idempotent, so resolving
the BGP rows first and the combined list afterwards gives the same slot as
resolving everything at once — which is what lets connected routes be
installed *after* subtask RIBs are merged or representative rows are
cloned onto their equivalence-class members.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.net.addr import Prefix
from repro.net.model import NetworkModel
from repro.routing.attributes import Route, SOURCE_LOCAL
from repro.routing.rib import (
    ROUTE_TYPE_BEST,
    ROUTE_TYPE_CANDIDATE,
    ROUTE_TYPE_ECMP,
    DeviceRib,
)

Entries = List[Tuple[Route, str]]


def resolve_contenders(entries: Entries) -> Entries:
    """Apply admin preference to one slot's rows.

    Non-candidate rows that lose on preference are demoted to candidates,
    and exactly one BEST survives (later ones become ECMP).
    """
    if len(entries) == 1 and entries[0][1] == ROUTE_TYPE_BEST:
        # Overwhelmingly common: one BGP best route, nothing to demote.
        return entries
    best_pref = min(r.preference for r, t in entries if t != ROUTE_TYPE_CANDIDATE)
    seen_best = False
    resolved: Entries = []
    for route, route_type in entries:
        if route_type != ROUTE_TYPE_CANDIDATE:
            if route.preference != best_pref:
                route_type = ROUTE_TYPE_CANDIDATE
            elif route_type == ROUTE_TYPE_BEST:
                if seen_best:
                    route_type = ROUTE_TYPE_ECMP
                seen_best = True
        resolved.append((route, route_type))
    return resolved


def _connected_entries(
    model: NetworkModel, name: str, device
) -> Dict[Tuple[str, Prefix], Entries]:
    entries: Dict[Tuple[str, Prefix], Entries] = {}
    for static in device.statics.values():
        route = Route(
            prefix=static.prefix,
            nexthop=static.nexthop,
            protocol="static",
            source=SOURCE_LOCAL,
            preference=static.preference,
            origin_router=name,
            origin_vrf=static.vrf,
        )
        entries.setdefault((static.vrf, static.prefix), []).append(
            (route, ROUTE_TYPE_BEST)
        )
    loopback = model.loopback_of(name)
    if loopback is not None:
        direct = Route(
            prefix=Prefix.from_address(loopback),
            protocol="direct",
            source=SOURCE_LOCAL,
            preference=0,
            origin_router=name,
        )
        entries.setdefault(("global", direct.prefix), []).append(
            (direct, ROUTE_TYPE_BEST)
        )
    return entries


def install_connected_routes(
    model: NetworkModel, device_ribs: Dict[str, DeviceRib]
) -> Dict[str, DeviceRib]:
    """Install static/loopback-direct routes into BGP-only device RIBs in place.

    Also materializes an (empty) RIB for every device in the model, so a
    merged distributed result has the device key space of an in-process one.
    """
    for name, device in model.devices.items():
        rib = device_ribs.get(name)
        if rib is None:
            rib = device_ribs[name] = DeviceRib(name)
        if not model.topology.router_is_up(name):
            continue
        for (vrf, prefix), connected in _connected_entries(
            model, name, device
        ).items():
            combined = connected + rib.entries_for(prefix, vrf)
            rib.replace_prefix(vrf, prefix, resolve_contenders(combined))
    return device_ribs
