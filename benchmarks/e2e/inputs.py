"""Seeded inputs of the benchmark: three worlds, seven plan templates, one sweep.

Everything here is a pure function of ``(tier, seed)``; the program under
test only ever sees the generated objects. Sizes are fixed per tier — a
later PR that wants a cheaper run scales op counts in ``workloads.py``,
never a WAN.

**What the seed draws.** The network itself — WAN chords, route attributes
and injection points — comes from ``STRUCTURE_SEED`` and is the same on
every run; ``--seed`` draws what is asked of it: the flows, the device and
prefix of every change plan, and the ISP whose single-homed prefix the
sweep protects. Seeding the network too was tried first: over ten seeds the
best-row count of ``w4`` varied by ±10 % and the BGP messages of the sweep
by ±15 %, which put more run-to-run spread into every timing than the
machine's own noise (14 % against 5 % on ``kfailure_sweep``) and would have
forced regression bounds too wide to gate anything.

* ``w4``  — 4 regions (48 routers), 200 prefixes, 600 flows: the change
  workloads' base network.
* ``w4t`` — ``w4`` with two-member trunks (132 links), no flows, plus one
  single-homed external /24: the k-failure sweep's network.
* ``w8``  — 8 regions (96 routers), 400 prefixes, 400 flows: the cold base
  simulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from repro.core.change_plan import ChangePlan, add_link, remove_link
from repro.core.intents import NoOverloadedLinks, PrefixReaches, RclIntent
from repro.kfailure import PropertyCheck, reachability_property
from repro.net.model import NetworkModel
from repro.net.topology import Link
from repro.routing.inputs import InputRoute, inject_external_route
from repro.traffic.flow import Flow
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)
from repro.workload.wan import WanInventory


@dataclass(frozen=True)
class Tier:
    """WAN and population sizes of one benchmark tier."""

    name: str
    w4: Tuple[Tuple[str, int], ...]
    w4_prefixes: int
    w4_flows: int
    w8: Tuple[Tuple[str, int], ...]
    w8_prefixes: int
    w8_flows: int
    #: the sweep fails every ``link_stride``-th link of ``w4t``
    link_stride: int


FULL = Tier(
    name="full",
    w4=(("regions", 4),),
    w4_prefixes=200,
    w4_flows=600,
    w8=(("regions", 8),),
    w8_prefixes=400,
    w8_flows=400,
    link_stride=9,
)

#: the tests' tier: every code path of the full tier in a few seconds
SMOKE = Tier(
    name="smoke",
    w4=(("regions", 2), ("cores_per_region", 3)),
    w4_prefixes=40,
    w4_flows=60,
    w8=(("regions", 2), ("cores_per_region", 3)),
    w8_prefixes=40,
    w8_flows=60,
    link_stride=3,
)


#: seed of the network structure; see the module docstring
STRUCTURE_SEED = 7


@dataclass
class World:
    """One generated network with its route and flow populations."""

    model: NetworkModel
    inventory: WanInventory
    routes: List[InputRoute]
    flows: List[Flow]


def _world(
    knobs: Sequence[Tuple[str, int]], prefixes: int, flows: int, seed: int
) -> World:
    model, inventory = generate_wan(WanParams(seed=STRUCTURE_SEED, **dict(knobs)))
    routes = generate_input_routes(
        inventory, n_prefixes=prefixes, seed=STRUCTURE_SEED
    )
    flow_list = (
        generate_flows(inventory, routes, n_flows=flows, seed=seed)
        if flows
        else []
    )
    return World(model, inventory, routes, flow_list)


def make_w4(tier: Tier, seed: int) -> World:
    return _world(tier.w4, tier.w4_prefixes, tier.w4_flows, seed)


def make_w8(tier: Tier, seed: int) -> World:
    return _world(tier.w8, tier.w8_prefixes, tier.w8_flows, seed)


# -- k-failure sweep ---------------------------------------------------------

#: documentation prefix (TEST-NET-3), outside both generator pools
SINGLE_HOMED_PREFIX = "203.0.113.0/24"


@dataclass
class Sweep:
    """The k-failure sweep's network, failable links and property."""

    world: World
    links: List[Link]
    prop: PropertyCheck
    #: the ISP that alone announces ``SINGLE_HOMED_PREFIX``
    isp: str


def make_sweep(tier: Tier, seed: int) -> Sweep:
    """``w4t``: trunked ``w4``, one single-homed prefix, a bounded sweep.

    The property — the single-homed prefix reachable on every DC edge —
    holds on the base network and breaks exactly when an uplink of the
    announcing ISP fails, so a sweep over every third link plus those
    uplinks violates in a few scenarios and holds in all the others.
    """
    world = _world(
        tier.w4 + (("trunk_members", 2),), tier.w4_prefixes, 0, seed
    )
    rng = random.Random(f"e2e-sweep-{seed}")
    isp = rng.choice(world.inventory.isps)
    world.routes.append(
        inject_external_route(isp, SINGLE_HOMED_PREFIX, (65900, 65901))
    )
    topology = world.model.topology
    uplinks = list(topology.links_of(isp))
    links = [
        link
        for index, link in enumerate(topology.links)
        if index % tier.link_stride == 0 and link not in uplinks
    ]
    links.extend(uplinks)
    prop = reachability_property(SINGLE_HOMED_PREFIX, world.inventory.dc_edges)
    return Sweep(world=world, links=links, prop=prop, isp=isp)


# -- change plans -----------------------------------------------------------


@dataclass(frozen=True)
class PlanSpec:
    """A change request before the verifier has seen it.

    ``build()`` turns the request into a :class:`ChangePlan` — parsing its
    RCL specification — and is part of the timed op: an operator's wait
    starts at the request, not at a pre-parsed plan.
    """

    name: str
    template: str
    #: the prefix the change is about (its intents name it)
    prefix: str
    build: Callable[[], ChangePlan]


def _isp_of(model: NetworkModel, border: str) -> str:
    device = model.device(border)
    return next(p.peer for p in device.peers if p.remote_asn != device.asn)


def _policy_node(
    model: NetworkModel, border: str, plist: str, prefix: str, node: int,
    action: str,
) -> List[str]:
    """A prefix-list plus an ``ISP-IN`` node applying ``action`` to it."""
    address, length = prefix.split("/")
    if model.device(border).vendor_name == "vendor-a":
        verb = {"local-pref": "set local-preference 150",
                "community": "set community 64999:77"}[action]
        return [
            f"ip prefix-list {plist} permit {prefix}",
            f"route-map ISP-IN permit {node}",
            f" match ip prefix-list {plist}",
            f" {verb}",
        ]
    verb = {"local-pref": "apply local-preference 150",
            "community": "apply community 64999:77"}[action]
    return [
        f"ip ip-prefix {plist} index 10 permit {address} {length}",
        f"route-policy ISP-IN permit node {node}",
        f" if-match ip-prefix {plist}",
        f" {verb}",
    ]


def _intents(index: int, prefix: str, guard_device: str, reach: Sequence[str]):
    """One RCL intent, one reachability intent, one load intent.

    The RCL intent alternates between the prefix-scoped "nothing else
    moved" and a device-scoped no-change guard, the two shapes operators
    attach to a bounded change (Hoyan §4.3).
    """
    spec = (
        f"not prefix = {prefix} => PRE = POST"
        if index % 2 == 0
        else f"device = {guard_device} => PRE = POST"
    )
    return [RclIntent(spec), PrefixReaches(prefix, reach), NoOverloadedLinks()]


def _isp_prefix(world: World, isp: str, rng: random.Random) -> str:
    own = sorted(
        {str(r.route.prefix) for r in world.routes if r.router == isp}
    ) or sorted(
        {str(r.route.prefix) for r in world.routes
         if r.router in world.inventory.isps}
    )
    return rng.choice(own)


def _small_specs(world: World, index: int, rng: random.Random) -> PlanSpec:
    """One bounded-blast change; the template rotates with ``index``."""
    model, inv = world.model, world.inventory
    template = ("local_pref", "static_route", "announce", "community")[index % 4]
    border = rng.choice(inv.borders)
    isp = _isp_of(model, border)
    guard = rng.choice(inv.rrs)
    reach = inv.rrs[:2]
    name = f"{template}-{index}"

    if template in ("local_pref", "community"):
        prefix = _isp_prefix(world, isp, rng)
        commands = _policy_node(
            model, border, f"E2E-{index}", prefix, 9 if template == "local_pref" else 5,
            "local-pref" if template == "local_pref" else "community",
        )

        def build() -> ChangePlan:
            return ChangePlan(
                name=name,
                change_type="route-attributes-modification",
                device_commands={border: list(commands)},
                intents=_intents(index, prefix, guard, reach),
            )

    elif template == "static_route":
        edge = rng.choice(inv.dc_edges)
        prefix = f"172.20.{rng.randrange(250)}.0/24"
        nexthop = model.loopback_of(rng.choice(inv.cores))
        address, length = prefix.split("/")
        command = (
            f"ip route {prefix} {nexthop}"
            if model.device(edge).vendor_name == "vendor-a"
            else f"ip route-static {address} {length} {nexthop}"
        )

        def build() -> ChangePlan:
            return ChangePlan(
                name=name,
                change_type="static-route-modification",
                device_commands={edge: [command]},
                intents=_intents(index, prefix, guard, [edge]),
            )

    else:
        prefix = f"198.51.{rng.randrange(250)}.0/24"

        def build() -> ChangePlan:
            return ChangePlan(
                name=name,
                change_type="new-prefix-announcement",
                new_input_routes=[
                    inject_external_route(isp, prefix, (65900, 65901))
                ],
                intents=_intents(index, prefix, guard, reach),
            )

    return PlanSpec(name=name, template=template, prefix=prefix, build=build)


def _widened_specs(world: World, index: int, rng: random.Random) -> PlanSpec:
    """One change the blast analyzer cannot bound (topology or IGP)."""
    model, inv = world.model, world.inventory
    template = ("add_link", "isis_cost", "remove_link")[index % 3]
    guard = rng.choice(inv.rrs)
    prefix = _isp_prefix(world, rng.choice(inv.isps), rng)
    reach = inv.rrs[:2]
    name = f"{template}-{index}"
    regions = sorted(inv.regions)

    if template == "add_link":
        # a new cross-region trunk between two cores that share no link
        pairs = [
            (a, b)
            for a in inv.cores
            for b in inv.cores
            if a < b
            and a.split("-")[0] != b.split("-")[0]
            and model.topology.find_link(a, b) is None
        ]
        a, b = rng.choice(pairs)
        ops, commands, change_type = [add_link(a, b, cost=30)], {}, "adding-new-links"
    elif template == "isis_cost":
        region = rng.choice(regions)
        cores = [m for m in inv.regions[region] if "-core" in m]
        ops, change_type = [], "topology-adjustment"
        commands = {f"{region}-rr0": [f"isis cost {rng.choice(cores)} 1000"]}
    else:
        # drain one intra-region core-core link; the mesh keeps the region
        # connected, so reachability intents still hold
        region = rng.choice(regions)
        cores = [m for m in inv.regions[region] if "-core" in m]
        a, b = rng.sample(cores, 2)
        ops, commands, change_type = [remove_link(a, b)], {}, "topology-adjustment"

    def build() -> ChangePlan:
        return ChangePlan(
            name=name,
            change_type=change_type,
            device_commands={k: list(v) for k, v in commands.items()},
            topology_ops=list(ops),
            intents=_intents(index, prefix, guard, reach),
        )

    return PlanSpec(name=name, template=template, prefix=prefix, build=build)


def small_plans(world: World, seed: int, count: int) -> List[PlanSpec]:
    rng = random.Random(f"e2e-small-{seed}")
    return [_small_specs(world, index, rng) for index in range(count)]


def widened_plans(world: World, seed: int, count: int) -> List[PlanSpec]:
    rng = random.Random(f"e2e-widened-{seed}")
    return [_widened_specs(world, index, rng) for index in range(count)]
