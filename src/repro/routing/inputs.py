"""Input route building (the pre-processing "input route building service").

Hoyan's simulation is seeded with *input routes*: the routes injected into
the network from outside (ISP announcements, DC aggregates, collected by the
route monitoring system) plus the locally originated ones derived from
configuration (redistributed direct/static routes). §2.2 describes the
filtering rules; §5.3 notes a real bug in one of them (discarding routes
with an empty AS path wrongly dropped DC aggregate routes) which the fault
injector reproduces via ``drop_empty_aspath``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.net.addr import Prefix
from repro.net.device import DeviceConfig, GLOBAL_VRF
from repro.net.model import NetworkModel
from repro.net.policy import apply_policy
from repro.routing.attributes import (
    PROTO_BGP,
    SOURCE_EBGP,
    SOURCE_LOCAL,
    Route,
)


@dataclass(frozen=True)
class InputRoute:
    """A route injected into the simulation at (router, vrf)."""

    router: str
    vrf: str
    route: Route

    def __str__(self) -> str:
        return f"{self.router}/{self.vrf}: {self.route}"


def _direct_prefixes(model: NetworkModel, device: DeviceConfig) -> List[Route]:
    """Direct (connected) routes of a device: loopback plus interface subnets.

    A numbered interface with a non-host mask also produces the extra /32
    host route of the Table-5 footnote; it carries the ``direct32`` flag so
    redistribution and advertisement can apply the two related VSBs.
    """
    routes: List[Route] = []
    loopback = model.loopback_of(device.name)
    if loopback is not None:
        routes.append(
            Route(
                prefix=Prefix.from_address(loopback),
                protocol="direct",
                source=SOURCE_LOCAL,
                origin_router=device.name,
            )
        )
    for link in model.topology.links_of(device.name):
        iface = link.interface_on(device.name)
        if iface.address is None:
            continue
        subnet = Prefix.from_address(iface.address, iface.prefix_length)
        routes.append(
            Route(
                prefix=subnet,
                protocol="direct",
                source=SOURCE_LOCAL,
                origin_router=device.name,
            )
        )
        if iface.prefix_length < subnet.bits:
            routes.append(
                Route(
                    prefix=Prefix.from_address(iface.address),
                    protocol="direct",
                    source=SOURCE_LOCAL,
                    origin_router=device.name,
                    flags=frozenset({"direct32"}),
                )
            )
    return routes


def build_local_inputs_for_device(
    model: NetworkModel, device: DeviceConfig
) -> List[InputRoute]:
    """Locally originated BGP input routes of a single device.

    Applies the redistribution route policy (VSB-aware) and the vendor's
    default redistribution weight; honours ``redistributes_direct_slash32``.
    """
    inputs: List[InputRoute] = []
    vendor = device.vendor
    for redist in device.redistributions.values():
        if redist.source == "direct":
            sources = _direct_prefixes(model, device)
        elif redist.source == "static":
            sources = [
                Route(
                    prefix=s.prefix,
                    nexthop=s.nexthop,
                    protocol="static",
                    source=SOURCE_LOCAL,
                    origin_router=device.name,
                    origin_vrf=s.vrf,
                )
                for s in device.statics.values()
                if s.vrf == redist.vrf
            ]
        else:
            # isis redistribution is modelled as loopback origination
            sources = []
        for source_route in sources:
            if "direct32" in source_route.flags and not (
                vendor.redistributes_direct_slash32
            ):
                continue
            candidate = source_route.evolve(
                protocol=PROTO_BGP,
                source=SOURCE_LOCAL,
                weight=vendor.redistribution_weight,
                origin_vrf=redist.vrf,
            )
            if redist.policy is not None:
                # No policy configured means unconditional redistribution
                # (the missing-policy VSB concerns session updates, not
                # redistribution).
                result = apply_policy(redist.policy, candidate, device.policy_ctx)
                if not result.permitted:
                    continue
                candidate = result.route
            inputs.append(
                InputRoute(router=device.name, vrf=redist.vrf, route=candidate)
            )
    return inputs


def build_local_input_routes(model: NetworkModel) -> List[InputRoute]:
    """Derive locally originated BGP input routes from redistribution config."""
    inputs: List[InputRoute] = []
    for device in model.devices.values():
        inputs.extend(build_local_inputs_for_device(model, device))
    return inputs


def filter_monitored_routes(
    monitored: Iterable[InputRoute],
    model: NetworkModel,
    drop_empty_aspath: bool = False,
    drop_no_external_peer_vrfs: bool = True,
) -> List[InputRoute]:
    """Apply the pre-defined input filtering rules of §2.2.

    * Routes from a VRF with no external (eBGP) peers are not inputs — they
      must have been produced by internal propagation.
    * ``drop_empty_aspath=True`` reproduces the §5.3 pre-processing bug:
      DC aggregate routes legitimately carry empty AS paths, so dropping
      them silently loses input routes.
    """
    kept: List[InputRoute] = []
    for item in monitored:
        device = model.devices.get(item.router)
        if device is None:
            continue
        if drop_no_external_peer_vrfs:
            has_external = any(
                p.vrf == item.vrf and p.remote_asn != device.asn
                for p in device.peers
            )
            is_local_origin = item.route.source == SOURCE_LOCAL
            if not has_external and not is_local_origin:
                continue
        if drop_empty_aspath and not item.route.as_path:
            continue
        kept.append(item)
    return kept


def inject_external_route(
    router: str,
    prefix: str,
    as_path: tuple,
    vrf: str = GLOBAL_VRF,
    communities: Optional[frozenset] = None,
    local_pref: int = 100,
    med: int = 0,
) -> InputRoute:
    """Convenience constructor for an eBGP-learned external input route."""
    return InputRoute(
        router=router,
        vrf=vrf,
        route=Route(
            prefix=Prefix.parse(prefix),
            as_path=as_path,
            communities=communities or frozenset(),
            local_pref=local_pref,
            med=med,
            protocol=PROTO_BGP,
            source=SOURCE_EBGP,
            origin_router=router,
            origin_vrf=vrf,
        ),
    )
