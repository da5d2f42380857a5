"""Shared test helpers: small network model builders."""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.net.addr import IPAddress
from repro.net.device import BgpPeerConfig, DeviceConfig
from repro.net.model import NetworkModel
from repro.net.topology import Router


def build_model(
    routers: Sequence[Tuple[str, int]],
    links: Sequence[Tuple[str, str, int]],
    vendor: str = "vendor-a",
    vendors: Optional[Dict[str, str]] = None,
) -> NetworkModel:
    """Build a model from (name, asn) routers and (a, b, igp_cost) links.

    Every router gets a loopback 10.255.0.<index>/32.
    """
    model = NetworkModel()
    for index, (name, asn) in enumerate(routers, start=1):
        chosen_vendor = (vendors or {}).get(name, vendor)
        model.topology.add_router(Router(name=name, asn=asn, vendor=chosen_vendor))
        device = DeviceConfig(name, vendor=chosen_vendor, asn=asn)
        model.add_device(
            device, loopback=IPAddress.parse(f"10.255.{index // 256}.{index % 256}")
        )
    for a, b, cost in links:
        model.topology.connect(a, b, igp_cost=cost)
    return model


def full_mesh_ibgp(model: NetworkModel, names: Iterable[str]) -> None:
    """Configure full-mesh iBGP among the named routers."""
    names = list(names)
    for a in names:
        for b in names:
            if a != b:
                model.device(a).add_peer(
                    BgpPeerConfig(peer=b, remote_asn=model.device(b).asn)
                )


def peer_both(model: NetworkModel, a: str, b: str, **kwargs) -> None:
    """Configure a bidirectional BGP session between a and b."""
    model.device(a).add_peer(
        BgpPeerConfig(peer=b, remote_asn=model.device(b).asn, **kwargs)
    )
    model.device(b).add_peer(
        BgpPeerConfig(peer=a, remote_asn=model.device(a).asn, **kwargs)
    )


def covered_prefixes(blast, *rib_maps) -> set:
    """The prefixes ``blast`` covers that a slot of any of ``rib_maps`` sits
    at: what a partial run hands ``IncrementalEngine.splice`` as ``covered``."""
    return {
        prefix
        for ribs in rib_maps
        for rib in ribs.values()
        for vrf in rib.vrfs
        for prefix in rib.prefixes(vrf)
        if blast.covers(prefix)
    }
