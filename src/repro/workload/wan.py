"""Synthetic WAN topology generator.

Builds a region-structured WAN like the paper's: each region has two route
reflectors, a core pool, border routers peering with ISPs, and DC-edge
routers peering with data centers. Regions interconnect through their cores
(ring plus chords). Vendors alternate between the two modelled dialects so
VSB interactions are exercised everywhere.

An optional DCN extension attaches a core layer of DCN routers behind each
DC edge, reproducing the paper's WAN+DCN scale experiments (Figure 1 /
Figure 5(a)).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.addr import IPAddress
from repro.net.device import BgpPeerConfig, DeviceConfig
from repro.net.model import NetworkModel
from repro.net.topology import Router

WAN_ASN = 64500
ISP_ASN_BASE = 65000
DC_ASN_BASE = 64600


@dataclass
class WanParams:
    """Scale and structure knobs for the generator."""

    regions: int = 4
    cores_per_region: int = 4
    borders_per_region: int = 2
    dc_edges_per_region: int = 2
    isps_per_border: int = 1
    #: DCN core-layer routers per DC edge (0 = WAN only)
    dcn_cores_per_edge: int = 0
    #: Parallel member links per inter-region trunk (LAG-style bundles).
    #: Real WAN trunks are link aggregates: losing one member leaves the
    #: adjacency up at the same IGP cost, so most single-member failures are
    #: routing no-ops — the structure k-failure equivalence pruning exploits.
    trunk_members: int = 1
    link_bandwidth: float = 100e9
    seed: int = 7
    vendors: Tuple[str, ...] = ("vendor-a", "vendor-b")

    # -- presets ----------------------------------------------------------

    @classmethod
    def paper_scale(cls, seed: int = 7) -> "WanParams":
        """The paper's headline instance: ~2000 WAN routers + O(10^4) DCN.

        50 regions x (2 RRs + 28 cores + 4 borders + 6 DC edges) = 2000 WAN
        routers; 300 DC edges x 34 DCN cores = 10,200 DCN routers; 200 ISP
        peers. Generation is cheap (seconds) — full BGP fixpoints at this
        scale are what the large benchmark tier measures.
        """
        return cls(
            regions=50,
            cores_per_region=28,
            borders_per_region=4,
            dc_edges_per_region=6,
            isps_per_border=1,
            dcn_cores_per_edge=34,
            seed=seed,
        )

    @classmethod
    def large(cls, seed: int = 7) -> "WanParams":
        """The standing large benchmark tier (~600 WAN + ~1000 DCN routers).

        Big enough that memory dominates (millions of RIB rows with a few
        hundred prefixes), small enough that a full fixpoint completes in
        minutes on the 1-core reference box; :meth:`paper_scale` keeps the
        full-size instance for machines with headroom.
        """
        return cls(
            regions=20,
            cores_per_region=20,
            borders_per_region=4,
            dc_edges_per_region=4,
            isps_per_border=1,
            dcn_cores_per_edge=13,
            seed=seed,
        )

    @classmethod
    def large_smoke(cls, seed: int = 7) -> "WanParams":
        """Scaled-down large preset for CI (~200 WAN routers)."""
        return cls(
            regions=10,
            cores_per_region=10,
            borders_per_region=4,
            dc_edges_per_region=4,
            isps_per_border=1,
            dcn_cores_per_edge=2,
            seed=seed,
        )

    # -- closed-form inventory expectations -------------------------------

    def expected_router_counts(self) -> Dict[str, int]:
        """Router count per inventory group, straight from the knobs."""
        return {
            "rrs": self.regions * 2,
            "cores": self.regions * self.cores_per_region,
            "borders": self.regions * self.borders_per_region,
            "dc_edges": self.regions * self.dc_edges_per_region,
            "isps": self.regions * self.borders_per_region * self.isps_per_border,
            "dcn_cores": (
                self.regions * self.dc_edges_per_region * self.dcn_cores_per_edge
            ),
        }

    def expected_wan_routers(self) -> int:
        """WAN routers (RRs + cores + borders + DC edges), closed form."""
        return self.regions * (
            2
            + self.cores_per_region
            + self.borders_per_region
            + self.dc_edges_per_region
        )

    def expected_total_routers(self) -> int:
        return sum(self.expected_router_counts().values())

    def expected_link_bounds(self) -> Tuple[int, int]:
        """(min, max) link count. Exact except for the seeded random chords.

        Per region: RRs connect to every non-RR member, cores mesh fully,
        each border and DC edge uplinks to one core. Between regions: a ring
        over ``core0`` (one link when only two regions) plus a parallel
        ``core1`` ring, then up to ``regions // 2`` random ``core2`` chords
        whose sample pairs may collide — the only non-closed-form term, so
        the bounds bracket it. Inter-region trunks carry ``trunk_members``
        parallel member links each.
        """
        c, b, e = self.cores_per_region, self.borders_per_region, self.dc_edges_per_region
        members = max(1, self.trunk_members)
        intra = self.regions * (2 * (c + b + e) + c * (c - 1) // 2 + b + e)
        ring = 0
        if self.regions > 1:
            rings = 1 + (1 if c > 1 else 0)
            ring = rings * (1 if self.regions == 2 else self.regions)
        chords_max = self.regions // 2 if self.regions > 3 and c > 2 else 0
        counts = self.expected_router_counts()
        stubs = counts["isps"] + counts["dcn_cores"]
        base = intra + ring * members + stubs
        return base, base + chords_max * members


@dataclass
class WanInventory:
    """Named router groups of a generated WAN (inputs for workloads/tests)."""

    rrs: List[str] = field(default_factory=list)
    cores: List[str] = field(default_factory=list)
    borders: List[str] = field(default_factory=list)
    dc_edges: List[str] = field(default_factory=list)
    isps: List[str] = field(default_factory=list)
    dcn_cores: List[str] = field(default_factory=list)
    regions: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def wan_routers(self) -> List[str]:
        return self.rrs + self.cores + self.borders + self.dc_edges


def _loopback(index: int) -> IPAddress:
    return IPAddress.parse(f"10.255.{index // 250}.{index % 250 + 1}")


def generate_wan(params: Optional[WanParams] = None) -> Tuple[NetworkModel, WanInventory]:
    """Generate the model and its inventory."""
    params = params or WanParams()
    rng = random.Random(params.seed)
    model = NetworkModel()
    inventory = WanInventory()
    counter = 0

    def add_router(
        name: str, asn: int, role: str, region: str, group: Optional[str] = None
    ) -> DeviceConfig:
        nonlocal counter
        counter += 1
        vendor = params.vendors[counter % len(params.vendors)]
        model.topology.add_router(
            Router(name=name, asn=asn, vendor=vendor, role=role, region=region,
                   group=group)
        )
        device = DeviceConfig(name, vendor=vendor, asn=asn)
        model.add_device(device, loopback=_loopback(counter))
        return device

    def connect(a: str, b: str, cost: int = 10) -> None:
        model.topology.connect(a, b, igp_cost=cost, bandwidth=params.link_bandwidth)

    # Per-region structure
    for r in range(params.regions):
        region = f"region{r}"
        members: List[str] = []
        rr_names = [f"{region}-rr{i}" for i in range(2)]
        for name in rr_names:
            add_router(name, WAN_ASN, "rr", region, group=f"{region}-rr")
            members.append(name)
        inventory.rrs.extend(rr_names)

        core_names = [f"{region}-core{i}" for i in range(params.cores_per_region)]
        for name in core_names:
            add_router(name, WAN_ASN, "core", region, group=f"{region}-core")
            members.append(name)
        inventory.cores.extend(core_names)

        border_names = [
            f"{region}-border{i}" for i in range(params.borders_per_region)
        ]
        for name in border_names:
            add_router(name, WAN_ASN, "border", region, group=f"{region}-border")
            members.append(name)
        inventory.borders.extend(border_names)

        edge_names = [
            f"{region}-dcedge{i}" for i in range(params.dc_edges_per_region)
        ]
        for name in edge_names:
            add_router(name, WAN_ASN, "dc-edge", region, group=f"{region}-dcedge")
            members.append(name)
        inventory.dc_edges.extend(edge_names)
        inventory.regions[region] = members

        # Intra-region links: RRs to everything, cores meshed lightly.
        for rr in rr_names:
            for other in core_names + border_names + edge_names:
                connect(rr, other, cost=10)
        for i, a in enumerate(core_names):
            for b in core_names[i + 1 :]:
                connect(a, b, cost=10)
        for i, border in enumerate(border_names):
            connect(border, core_names[i % len(core_names)], cost=10)
        for i, edge in enumerate(edge_names):
            connect(edge, core_names[i % len(core_names)], cost=10)

    # Inter-region: ring over region cores plus random chords. Each trunk
    # is a bundle of ``trunk_members`` equal-cost parallel links.
    def connect_trunk(a: str, b: str, cost: int) -> None:
        for _ in range(max(1, params.trunk_members)):
            connect(a, b, cost=cost)

    regions = [f"region{r}" for r in range(params.regions)]
    for r, region in enumerate(regions):
        next_region = regions[(r + 1) % len(regions)]
        a = f"{region}-core0"
        b = f"{next_region}-core0"
        if model.topology.find_link(a, b) is None:
            connect_trunk(a, b, cost=30)
        if params.cores_per_region > 1:
            a2 = f"{region}-core1"
            b2 = f"{next_region}-core1"
            if model.topology.find_link(a2, b2) is None:
                connect_trunk(a2, b2, cost=30)
    if len(regions) > 3:
        for _ in range(len(regions) // 2):
            ra, rb = rng.sample(regions, 2)
            a, b = f"{ra}-core2", f"{rb}-core2"
            if (
                params.cores_per_region > 2
                and model.topology.find_link(a, b) is None
            ):
                connect_trunk(a, b, cost=40)

    # iBGP: RRs full-mesh across regions; all other WAN routers are clients
    # of their region's RRs.
    for a in inventory.rrs:
        for b in inventory.rrs:
            if a != b:
                model.device(a).add_peer(BgpPeerConfig(peer=b, remote_asn=WAN_ASN))
    for region, members in inventory.regions.items():
        rr_names = [m for m in members if model.topology.router(m).role == "rr"]
        for member in members:
            role = model.topology.router(member).role
            if role == "rr":
                continue
            # Edge routers (borders, DC edges) set next-hop-self towards the
            # RRs so the region resolves exits to the edge's loopback.
            nhs = role in ("border", "dc-edge")
            for rr in rr_names:
                model.device(member).add_peer(
                    BgpPeerConfig(peer=rr, remote_asn=WAN_ASN, next_hop_self=nhs)
                )
                model.device(rr).add_peer(
                    BgpPeerConfig(
                        peer=member, remote_asn=WAN_ASN, route_reflector_client=True
                    )
                )

    # ISP peers off each border router.
    isp_index = 0
    for border in inventory.borders:
        region = model.topology.router(border).region
        for i in range(params.isps_per_border):
            isp_index += 1
            isp_name = f"isp{isp_index}"
            isp_asn = ISP_ASN_BASE + isp_index
            add_router(isp_name, isp_asn, "isp", region)
            connect(border, isp_name, cost=10)
            inventory.isps.append(isp_name)
            model.device(border).add_peer(
                BgpPeerConfig(peer=isp_name, remote_asn=isp_asn)
            )
            model.device(isp_name).add_peer(
                BgpPeerConfig(peer=border, remote_asn=WAN_ASN)
            )

    # Optional DCN core layer behind each DC edge.
    if params.dcn_cores_per_edge > 0:
        for e, edge in enumerate(inventory.dc_edges):
            region = model.topology.router(edge).region
            dc_asn = DC_ASN_BASE + e
            for i in range(params.dcn_cores_per_edge):
                name = f"{edge}-dcn{i}"
                add_router(name, dc_asn, "dcn-core", region, group=f"{edge}-dcn")
                connect(edge, name, cost=10)
                inventory.dcn_cores.append(name)
                model.device(edge).add_peer(
                    BgpPeerConfig(peer=name, remote_asn=dc_asn)
                )
                model.device(name).add_peer(
                    BgpPeerConfig(peer=edge, remote_asn=WAN_ASN)
                )

    _install_policies(model, inventory)
    return model, inventory


def wan_fingerprint(model: NetworkModel) -> str:
    """Canonical hex digest of a generated WAN (topology + BGP sessions).

    Two ``generate_wan`` calls with equal :class:`WanParams` must produce
    equal fingerprints — the determinism contract the workload layer owes
    the benchmarks (A/B variants must simulate the *same* network).
    """
    digest = hashlib.sha256()
    for line in sorted(repr(router) for router in model.topology.routers):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    for line in sorted(repr(link) for link in model.topology.links):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    for name in sorted(model.devices):
        device = model.device(name)
        digest.update(
            repr((name, device.vendor, device.asn)).encode("utf-8")
        )
        for peer in device.peers:
            digest.update(
                repr(
                    (
                        peer.peer,
                        peer.remote_asn,
                        peer.route_reflector_client,
                        peer.next_hop_self,
                        peer.import_policy,
                        peer.export_policy,
                    )
                ).encode("utf-8")
            )
        digest.update(b"\n")
    return digest.hexdigest()


def _install_policies(model: NetworkModel, inventory: WanInventory) -> None:
    """Representative route policies: community tagging and ISP preferences.

    Borders tag ISP-learned routes with a per-region community and prefer
    ISP routes carrying the "primary" community; DC edges permit DC routes
    and tag them. vendor-b devices need explicit eBGP import policies (the
    missing-policy VSB), so every eBGP session gets one.
    """
    for border in inventory.borders:
        device = model.device(border)
        region_tag = f"650{inventory.borders.index(border) % 10:02d}"
        ctx = device.policy_ctx
        # Bogon AS filtering with substring semantics — the §5.3 AS-path
        # regex implementation bug flips this to full-match and silently
        # stops filtering.
        ctx.define_aspath_list("BOGON").add("65013")
        imp = ctx.define_policy("ISP-IN")
        imp.node(8, "deny").match("aspath-list", "BOGON")
        imp.node(10, "permit").set("community-add", (f"{region_tag}:100",)).set(
            "local-pref", 120
        )
        exp = ctx.define_policy("ISP-OUT")
        exp.node(10, "permit")
        for peer in device.peers:
            if peer.remote_asn != device.asn:
                peer.import_policy = "ISP-IN"
                peer.export_policy = "ISP-OUT"

    for edge in inventory.dc_edges:
        device = model.device(edge)
        ctx = device.policy_ctx
        imp = ctx.define_policy("DC-IN")
        imp.node(10, "permit").set("community-add", ("64512:200",)).set(
            "local-pref", 200
        )
        for peer in device.peers:
            if peer.remote_asn != device.asn:
                peer.import_policy = "DC-IN"

    for dcn in inventory.dcn_cores:
        device = model.device(dcn)
        ctx = device.policy_ctx
        ctx.define_policy("WAN-IN").node(10, "permit")
        for peer in device.peers:
            if peer.remote_asn != device.asn:
                peer.import_policy = "WAN-IN"

    for isp in inventory.isps:
        device = model.device(isp)
        device.policy_ctx.define_policy("PEER-IN").node(10, "permit")
        for peer in device.peers:
            peer.import_policy = "PEER-IN"

    # SR policies and IS-IS cost overrides: core0 of each region steers SR
    # traffic towards border0 (the Figure 9 VSB surface), and rr0 biases its
    # IGP cost to border0 (the IS-IS-for-TE surface of the unmodeled-feature
    # fault).
    for region, members in inventory.regions.items():
        border0 = next((m for m in members if m.endswith("border0")), None)
        core0 = next((m for m in members if m.endswith("core0")), None)
        rr0 = next((m for m in members if m.endswith("rr0")), None)
        if border0 and core0:
            model.device(core0).add_sr_policy("SR-EXIT", endpoint=border0)
        if border0 and rr0:
            # rr0 penalizes border0 in IS-IS but also configures an SR
            # policy towards it: whether the SR tunnel masks the penalty is
            # exactly the Figure 9 VSB, so both the unknown-VSB and the
            # unmodeled-feature faults have observable route effects.
            model.device(rr0).isis.cost_overrides[border0] = 15
            model.device(rr0).add_sr_policy("SR-EXIT", endpoint=border0)
