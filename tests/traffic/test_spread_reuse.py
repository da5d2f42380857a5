"""Reused base spreads are exactly what a full re-forward produces.

A change keeps the base run's spread for every flow EC whose base paths
meet no touched RIB slot covering its destination and whose walk read no
moved ``(router, target)`` IGP/link pair
(:class:`~repro.traffic.simulator.SpreadReuse`), keeps the base flow-EC
partition unless a touched prefix entered or left the prefix universe
under some flow's destination, and then patches the base link loads.
These tests pin that the spreads, status counts, EC classes, cost units
and link loads — floats and key order — equal a fresh forward of the
updated network: for bounded and widened plans, drawn IS-IS costs and
link deltas, and for hypothesis-drawn supersets of the touched slots and
moved pairs. They also pin that a more specific slot on a path router,
or a moved pair a walk read, does force a re-forward, and that changes to
forwarding state besides the RIBs and the IGP never build a reuse.
The all-change-types comparison against ``incremental=False`` lives in
``tests/incremental/test_equivalence.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from benchmarks.test_table2_change_types import build_plans
from repro.core.change_plan import ChangePlan, add_link, fail_link, remove_link
from repro.core.pipeline import ChangeVerifier
from repro.ec.flow_ec import build_prefix_universe
from repro.incremental.diff import FORWARDING_SECTIONS, DeviceDelta, ModelDiff
from repro.incremental.engine import MODE_INCREMENTAL, MODE_NOOP, MODE_WIDENED
from repro.net.addr import Prefix
from repro.obs import RunContext
from repro.routing.isis import compute_igp
from repro.routing.rib import DeviceRib
from repro.traffic.forwarding import ForwardingEngine
from repro.traffic.simulator import SpreadReuse, TrafficSimulator
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)

#: plans the incremental path bounds (``build_plans`` names)
BOUNDED = ("static-route-modification", "new-prefix-announcement")


@pytest.fixture(scope="module")
def world():
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=3, seed=7)
    )
    routes = generate_input_routes(inventory, n_prefixes=48, seed=11)
    flows = generate_flows(inventory, routes, n_flows=150, seed=13)
    return model, inventory, routes, flows


@pytest.fixture(scope="module")
def verifier(world):
    model, _, routes, flows = world
    verifier = ChangeVerifier(model, routes, input_flows=flows)
    verifier.prepare_base()
    return verifier


@pytest.fixture(scope="module")
def plans(world):
    model, inventory, routes, _ = world
    return build_plans(model, inventory, routes)


def snapshot(traffic, flows):
    """Every flow's spread, the status counts, the EC classes (in order),
    the cost units and the loads exactly: floats and key order."""
    return (
        [traffic.path_of(flow) for flow in flows],
        traffic.status_counts(),
        [(ec.representative, ec.members) for ec in traffic.ec_index.classes],
        traffic.cost_units,
        list(traffic.loads.loads.items()),
    )


def make_reuse(verifier, touched):
    return SpreadReuse(
        verifier.base_world.traffic,
        touched,
        verifier.base_world.device_ribs,
        verifier.input_flows,
    )


def compile_meta(trace):
    (span,) = trace.find_all("traffic.compile")
    return span.meta


def slot_diff(before, after):
    """Per device, the ``(vrf, prefix)`` slots whose rows differ."""
    touched = {}
    for name in set(before) | set(after):
        sides = (before.get(name), after.get(name))
        for rib in filter(None, sides):
            for vrf in rib.vrfs:
                for prefix in rib.prefixes(vrf):
                    rows = [s.entries_for(prefix, vrf) if s else [] for s in sides]
                    if rows[0] != rows[1]:
                        touched.setdefault(name, set()).add((vrf, prefix))
    return touched


def reuse_spans(report):
    return [s for s in report.trace.find_all("traffic.forward") if "reused" in s.meta]


def declined(report):
    return [s.meta.get("reuse_declined") for s in report.trace.find_all("traffic_sim")]


def dialect(model, device, a_cmds, b_cmds):
    return a_cmds if model.device(device).vendor_name == "vendor-a" else b_cmds


def static_route(model, device, prefix, nexthop):
    network, length = str(prefix).split("/")
    return dialect(
        model,
        device,
        [f"ip route {prefix} {nexthop}"],
        [f"ip route-static {network} {length} {nexthop}"],
    )


def pin_host_plan(verifier):
    """A host route at a multi-hop flow's ingress, towards an off-path router.

    Returns ``(plan, flow, detour)``: the /32 is more specific than the
    base LPM of ``flow`` at its ingress, so the flow must leave its base
    path for ``detour``.
    """
    base = verifier.base_world.traffic
    model = verifier.base_model
    flow, spread = next(
        (flow, spread)
        for flow, spread in base.paths.items()
        if len(spread) == 1 and len(spread[0][0].routers) >= 3 and spread[0][0].ok
    )
    path = spread[0][0]
    ingress = path.routers[0]
    detour = next(
        name
        for name in sorted(model.devices)
        if name not in path.routers and model.loopback_of(name) is not None
    )
    plan = ChangePlan(
        name="pin-host",
        change_type="static-route-modification",
        device_commands={
            ingress: static_route(
                model, ingress, Prefix.from_address(flow.dst), model.loopback_of(detour)
            )
        },
    )
    return plan, flow, detour


# -- the updated network of a bounded plan ------------------------------------


#: whether each plan keeps the base flow-EC partition
KEEPS_PARTITION = {
    "static-route-modification": True,
    "new-prefix-announcement": True,
    # the host route enters the prefix universe under a flow's destination
    "pin-host": False,
}


@pytest.fixture(scope="module", params=sorted(KEEPS_PARTITION))
def updated(request, verifier, plans):
    """(plan name, updated world, real slot diff, full re-forward)."""
    if request.param == "pin-host":
        plan = pin_host_plan(verifier)[0]
    else:
        plan = plans[request.param]
    report = verifier.verify(plan)
    assert report.incremental.mode == MODE_INCREMENTAL
    world = report.updated_world
    touched = slot_diff(verifier.base_world.device_ribs, world.device_ribs)
    full = TrafficSimulator(
        world.model, world.device_ribs, verifier._base_igp
    ).simulate(verifier.input_flows)
    return request.param, world, touched, full


def assert_matches_full(verifier, world):
    """``world``'s traffic equals a fresh forward over its RIBs and IGP."""
    full = TrafficSimulator(
        world.model, world.device_ribs, compute_igp(world.model)
    ).simulate(verifier.input_flows)
    assert snapshot(world.traffic, verifier.input_flows) == snapshot(
        full, verifier.input_flows
    )


def reuse_run(verifier, world, touched):
    ctx = RunContext("reuse")
    result = TrafficSimulator(
        world.model, world.device_ribs, verifier._base_igp
    ).simulate(verifier.input_flows, ctx=ctx, reuse=make_reuse(verifier, touched))
    return result, ctx


def test_real_slot_diff_reuses_and_matches_full(verifier, updated):
    name, world, touched, full = updated
    result, ctx = reuse_run(verifier, world, touched)
    assert snapshot(result, verifier.input_flows) == snapshot(
        full, verifier.input_flows
    )
    counters = ctx.counters()
    assert counters["traffic.ecs_reused"] > 0
    assert (
        counters["traffic.ecs_reused"] + counters["traffic.ecs_reforwarded"]
        == len(full.ec_index.classes)
    )
    kept = result.ec_index is verifier.base_world.traffic.ec_index
    assert kept == KEEPS_PARTITION[name]
    meta = compile_meta(ctx.root)
    assert meta["flow_ecs"] == ("reused" if kept else "recomputed")
    assert ("traffic.links_patched" in counters) == kept
    if not kept:
        assert meta["ecs_recomputed"] == "universe_moved"


@st.composite
def extra_slots(draw, verifier):
    """Extra (device, vrf, prefix) slots: base slots and supernets of dsts."""
    ribs = verifier.base_world.device_ribs
    devices = sorted(ribs)
    base_slots = sorted(
        {(vrf, p) for rib in ribs.values() for vrf in rib.vrfs for p in rib.prefixes(vrf)},
        key=str,
    )
    dst_slots = sorted(
        {
            (flow.vrf, Prefix.from_address(flow.dst, length))
            for flow in verifier.input_flows
            for length in (0, 8, 16, 24, 28, 32)
        },
        key=str,
    )
    slot = st.one_of(st.sampled_from(base_slots), st.sampled_from(dst_slots))
    return draw(st.lists(st.tuples(st.sampled_from(devices), slot), max_size=6))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_touched_supersets_give_the_full_result(verifier, updated, data):
    _, world, touched, full = updated
    superset = {name: set(slots) for name, slots in touched.items()}
    for device, slot in data.draw(extra_slots(verifier)):
        superset.setdefault(device, set()).add(slot)
    result, _ = reuse_run(verifier, world, superset)
    assert snapshot(result, verifier.input_flows) == snapshot(
        full, verifier.input_flows
    )


# -- widened plans: RIB diff slots and moved IGP/link pairs ---------------------


#: widened Table-2 plans whose traffic patches the base run
WIDENED = (
    "adding-new-links",
    "route-attributes-modification",
    "topology-adjustment",
    "traffic-steering",
)


def moved_pairs(verifier, model, igp):
    """The pairs the pipeline hands a reuse: IGP answers and up links."""
    def up(model):
        return {
            pair
            for link in model.topology.up_links
            for pair in (link.endpoints, link.endpoints[::-1])
        }

    return verifier._base_igp.moved_pairs(igp) | (up(verifier.base_model) ^ up(model))


@pytest.fixture(scope="module", params=WIDENED)
def widened(request, verifier, plans):
    """(report, real slot diff, real moved pairs, updated IGP, full forward)."""
    report = verifier.verify(plans[request.param])
    assert report.incremental.mode == MODE_WIDENED
    world = report.updated_world
    igp = compute_igp(world.model)
    full = TrafficSimulator(world.model, world.device_ribs, igp).simulate(
        verifier.input_flows
    )
    touched = slot_diff(verifier.base_world.device_ribs, world.device_ribs)
    return report, touched, moved_pairs(verifier, world.model, igp), igp, full


def test_widened_plans_patch_the_base_traffic(verifier, widened):
    report, _, moved, _, full = widened
    assert snapshot(report.updated_world.traffic, verifier.input_flows) == snapshot(
        full, verifier.input_flows
    )
    (sim,) = report.trace.find_all("traffic_sim")
    assert sim.meta["moved_pairs"] == len(moved)
    assert "reuse_declined" not in sim.meta
    (span,) = reuse_spans(report)
    total = span.meta["work"] + span.meta["reused"]
    assert total == len(full.ec_index.classes)
    assert f"traffic: re-forwarded {span.meta['work']}/{total} flow ECs" in (
        report.summary()
    )


@st.composite
def extra_pairs(draw, verifier):
    router = st.sampled_from(sorted(verifier.base_model.devices))
    return draw(st.lists(st.tuples(router, router), max_size=8))


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_moved_and_touched_supersets_give_the_full_result(verifier, widened, data):
    report, touched, moved, igp, full = widened
    world = report.updated_world
    superset = {name: set(slots) for name, slots in touched.items()}
    for device, slot in data.draw(extra_slots(verifier)):
        superset.setdefault(device, set()).add(slot)
    reuse = SpreadReuse(
        verifier.base_world.traffic,
        superset,
        verifier.base_world.device_ribs,
        verifier.input_flows,
        moved | set(data.draw(extra_pairs(verifier))),
    )
    result = TrafficSimulator(world.model, world.device_ribs, igp).simulate(
        verifier.input_flows, reuse=reuse
    )
    assert snapshot(result, verifier.input_flows) == snapshot(
        full, verifier.input_flows
    )


def links(model):
    return sorted(tuple(sorted(link.endpoints)) for link in model.topology.links)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_drawn_isis_costs_patch_to_the_full_result(verifier, data):
    model = verifier.base_model
    a, b = data.draw(st.sampled_from(links(model)))
    router, neighbor = data.draw(st.sampled_from([(a, b), (b, a)]))
    cost = data.draw(st.sampled_from([1, 5, 15, 40, 1000]))
    plan = ChangePlan(
        name="isis-cost",
        change_type="topology-adjustment",
        device_commands={router: [f"isis cost {neighbor} {cost}"]},
    )
    report = verifier.verify(plan)
    # a drawn cost equal to the link's leaves the model as it was: no traffic_sim
    assert not any(declined(report))
    assert_matches_full(verifier, report.updated_world)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_link_deltas_patch_to_the_full_result(verifier, data):
    model = verifier.base_model
    kind = data.draw(st.sampled_from(["add", "remove", "fail"]))
    if kind == "add":
        # parallel links included: the copy numbers their interfaces on
        routers = st.sampled_from(sorted(model.devices))
        a, b = data.draw(st.lists(routers, min_size=2, max_size=2, unique=True))
        op = add_link(a, b, cost=data.draw(st.sampled_from([5, 10, 30])))
    else:
        a, b = data.draw(st.sampled_from(links(model)))
        op = (remove_link if kind == "remove" else fail_link)(a, b)
    plan = ChangePlan(
        name=f"{kind}-link", change_type="topology-adjustment", topology_ops=[op]
    )
    report = verifier.verify(plan)
    assert declined(report) == [None]
    assert_matches_full(verifier, report.updated_world)


def test_a_moved_pair_an_ec_read_forces_a_reforward(verifier):
    """Raising the IS-IS cost towards the next hop of a pair some EC read
    moves that EC. The RIBs are held at the base's, so nothing but the
    pair reaches the EC: reusing its spread would be wrong."""
    base = verifier.base_world
    traffic = base.traffic
    model = verifier.base_model
    base_igp = verifier._base_igp
    candidates = (
        (ec.representative, (router, target))
        for ec in traffic.ec_index.classes
        for router, target in sorted(traffic.reads[ec.representative])
        if base_igp.hops_towards(router, target)
        and not model.topology.has_up_link(router, target)
    )
    for flow, (router, target) in candidates:
        hop = base_igp.hops_towards(router, target)[0]
        updated = ChangePlan(
            name="steer-off",
            change_type="topology-adjustment",
            device_commands={router: [f"isis cost {hop} 1000"]},
        ).build_updated_model(model)
        igp = compute_igp(updated)
        fresh = ForwardingEngine(updated, base.device_ribs, igp).forward_spread(flow)
        if fresh != traffic.paths[flow]:
            break
    else:
        pytest.fail("no IS-IS cost edit moves an EC")
    moved = base_igp.moved_pairs(igp)
    assert (router, target) in moved
    ctx = RunContext("moved")
    result = TrafficSimulator(updated, base.device_ribs, igp).simulate(
        verifier.input_flows,
        ctx=ctx,
        reuse=SpreadReuse(traffic, {}, base.device_ribs, verifier.input_flows, moved),
    )
    assert result.ec_index is traffic.ec_index
    assert result.paths[flow] == fresh
    assert 0 < ctx.counters()["traffic.ecs_reforwarded"] < len(
        traffic.ec_index.classes
    )
    full = TrafficSimulator(updated, base.device_ribs, igp).simulate(
        verifier.input_flows
    )
    assert snapshot(result, verifier.input_flows) == snapshot(
        full, verifier.input_flows
    )


def test_a_dear_new_link_moves_only_its_up_pairs(verifier):
    """A link dearer than every IGP path moves no IGP answer, but a router
    forwards straight to a target it has an up link to: both directions of
    the new link are moved pairs, and an EC that resolved across it moves."""
    traffic = verifier.base_world.traffic
    topology = verifier.base_model.topology
    flow, (router, target) = next(
        (ec.representative, pair)
        for ec in traffic.ec_index.classes
        for pair in sorted(traffic.reads[ec.representative])
        if not topology.has_up_link(*pair)
    )
    plan = ChangePlan(
        name="dear-link",
        change_type="adding-new-links",
        topology_ops=[add_link(router, target, cost=100000)],
    )
    report = verifier.verify(plan)
    world = report.updated_world
    assert not verifier._base_igp.moved_pairs(compute_igp(world.model))
    (sim,) = report.trace.find_all("traffic_sim")
    assert sim.meta["moved_pairs"] == 2
    assert any(
        (router, target) in path.links for path, _ in world.traffic.paths[flow]
    )
    assert_matches_full(verifier, world)


# -- the reuse rule -------------------------------------------------------------


def test_touched_slot_off_the_path_is_reused(verifier):
    base = verifier.base_world.traffic
    flow, spread = next(
        (flow, spread)
        for flow, spread in base.paths.items()
        if all(path.routers for path, _ in spread)
    )
    on_path = spread[0][0].routers[0]
    off_path = next(
        name
        for name in verifier.base_world.device_ribs
        if all(name not in path.routers for path, _ in spread)
    )
    slot = (flow.vrf, Prefix.from_address(flow.dst))
    assert make_reuse(verifier, {off_path: [slot]}).spread_for(flow) is spread
    assert make_reuse(verifier, {on_path: [slot]}).spread_for(flow) is None
    # a slot elsewhere in the address space reaches nobody
    other = ("global", Prefix.parse("203.0.113.0/24"))
    assert make_reuse(verifier, {on_path: [other]}).spread_for(flow) is spread

    # through a simulation: only ECs to that destination whose paths cross
    # the touched device re-forward, and the counters say so
    ctx = RunContext("off-path")
    result = TrafficSimulator(
        verifier.base_model, verifier.base_world.device_ribs, verifier._base_igp
    ).simulate(
        verifier.input_flows,
        ctx=ctx,
        reuse=make_reuse(verifier, {off_path: [slot]}),
    )
    counters = ctx.counters()
    expected = sum(
        1
        for ec in result.ec_index.classes
        if (ec.representative.vrf, ec.representative.dst) == (flow.vrf, flow.dst)
        and any(off_path in p.routers for p, _ in base.paths[ec.representative])
    )
    assert counters["traffic.ecs_reforwarded"] == expected
    assert counters["traffic.ecs_reused"] == len(result.ec_index.classes) - expected
    assert result.paths[flow] is spread


def test_more_specific_slot_on_the_path_forces_a_reforward(verifier):
    """A host route at the ingress beats the base LPM and moves the path.

    The /32 is new to the prefix universe and covers ``flow``'s
    destination, so the flow ECs are recomputed, and the summary says why.
    """
    base = verifier.base_world.traffic
    plan, flow, detour = pin_host_plan(verifier)
    universe = build_prefix_universe(verifier.base_world.device_ribs.values())
    assert Prefix.from_address(flow.dst) not in dict(universe.all_matches(flow.dst))
    report = verifier.verify(plan)
    assert report.incremental.mode == MODE_INCREMENTAL
    assert report.trace.total("traffic.ecs_reforwarded") >= 1
    assert compile_meta(report.trace) == {
        "flows": len(verifier.input_flows),
        "flow_ecs": "recomputed",
        "ecs_recomputed": "universe_moved",
    }
    assert "flow ECs recomputed (universe_moved)" in report.summary()
    assert all("traffic.links_patched" not in s.counters for s in report.trace.walk())
    updated = report.updated_world.traffic
    assert updated.path_of(flow) != base.path_of(flow)
    assert detour in {r for p, _ in updated.path_of(flow) for r in p.routers}

    world = report.updated_world
    full = TrafficSimulator(
        world.model, world.device_ribs, verifier._base_igp
    ).simulate(verifier.input_flows)
    assert snapshot(updated, verifier.input_flows) == snapshot(
        full, verifier.input_flows
    )


def test_new_prefix_off_every_flow_keeps_the_partition(verifier, plans):
    """An announced prefix no flow targets leaves every EC key alone."""
    plan = plans["new-prefix-announcement"]
    (announced,) = {route.route.prefix for route in plan.new_input_routes}
    assert not any(announced.contains_address(f.dst) for f in verifier.input_flows)
    report = verifier.verify(plan)
    assert compile_meta(report.trace) == {
        "flows": len(verifier.input_flows),
        "flow_ecs": "reused",
    }
    traffic = report.updated_world.traffic
    assert traffic.ec_index is verifier.base_world.traffic.ec_index
    assert "base flow-EC partition kept" in report.summary()
    world = report.updated_world
    full = TrafficSimulator(
        world.model, world.device_ribs, verifier._base_igp
    ).simulate(verifier.input_flows)
    assert snapshot(traffic, verifier.input_flows) == snapshot(
        full, verifier.input_flows
    )


def without_prefix(ribs, prefix):
    """Copies of ``ribs`` with every row at ``prefix`` gone, and the slots."""
    copies, touched = {}, {}
    for name, rib in ribs.items():
        copy = copies[name] = DeviceRib(name)
        for vrf in rib.vrfs:
            for held in rib.prefixes(vrf):
                if held == prefix:
                    touched.setdefault(name, set()).add((vrf, held))
                    continue
                for route, route_type in rib.entries_for(held, vrf):
                    copy.install(route, vrf, route_type)
    return copies, touched


def test_prefix_gone_from_every_rib_recomputes_the_partition(verifier):
    """A flow's longest universe match leaves the universe: its key moves."""
    base = verifier.base_world
    universe = build_prefix_universe(base.device_ribs.values())
    flow = verifier.input_flows[0]
    prefix = universe.all_matches(flow.dst)[-1][0]
    ribs, touched = without_prefix(base.device_ribs, prefix)
    simulator = TrafficSimulator(base.model, ribs, verifier._base_igp)
    ctx = RunContext("gone")
    result = simulator.simulate(
        verifier.input_flows,
        ctx=ctx,
        reuse=SpreadReuse(
            base.traffic, touched, base.device_ribs, verifier.input_flows
        ),
    )
    assert compile_meta(ctx.root)["ecs_recomputed"] == "universe_moved"
    assert result.ec_index is not base.traffic.ec_index
    full = TrafficSimulator(base.model, ribs, verifier._base_igp).simulate(
        verifier.input_flows
    )
    assert snapshot(result, verifier.input_flows) == snapshot(
        full, verifier.input_flows
    )


def test_other_flows_recompute_the_partition(verifier):
    base = verifier.base_world
    flows = verifier.input_flows[1:]
    ctx = RunContext("other-flows")
    result = TrafficSimulator(
        base.model, base.device_ribs, verifier._base_igp
    ).simulate(flows, ctx=ctx, reuse=make_reuse(verifier, {}))
    assert compile_meta(ctx.root)["ecs_recomputed"] == "other_flows"
    assert result.ec_index.total_flows == len(flows)


# -- when the pipeline builds a reuse ---------------------------------------------


@pytest.mark.parametrize("section", sorted(FORWARDING_SECTIONS))
def test_forwarding_sections_are_forwarding_affecting(section):
    diff = ModelDiff(device_deltas={"r1": DeviceDelta("r1", frozenset({section}))})
    assert diff.forwarding_affecting == f"{section}_changed"


@pytest.mark.parametrize(
    "section", ["statics", "policies", "peers", "aggregates", "isis"]
)
def test_routing_sections_are_not_forwarding_affecting(section):
    """IS-IS settings reach forwarding only through the IGP's moved pairs."""
    diff = ModelDiff(device_deltas={"r1": DeviceDelta("r1", frozenset({section}))})
    assert diff.forwarding_affecting is None


def test_device_set_and_address_changes_are_forwarding_affecting():
    assert ModelDiff(devices_added=frozenset({"r9"})).forwarding_affecting == (
        "devices_changed"
    )
    assert ModelDiff(devices_removed=frozenset({"r1"})).forwarding_affecting == (
        "devices_changed"
    )
    assert ModelDiff(loopbacks_changed=True).forwarding_affecting == "addresses_moved"
    moved = ModelDiff(topology_changed=True, interface_addresses_changed=True)
    assert moved.forwarding_affecting == "addresses_moved"
    # links alone reach forwarding only through the up-link and IGP pairs
    assert ModelDiff(topology_changed=True).forwarding_affecting is None
    assert ModelDiff().forwarding_affecting is None


def test_bounded_plans_build_a_reuse(verifier, plans):
    for name in BOUNDED:
        report = verifier.verify(plans[name])
        (span,) = reuse_spans(report)
        assert declined(report) == [None]
        total = span.meta["work"] + span.meta["reused"]
        assert f"traffic: re-forwarded {span.meta['work']}/{total} flow ECs" in (
            report.summary()
        )


def forwarding_plans(plans):
    core0 = "region0-core0"
    return {
        "acl": (plans["acl-modification"], "acls_changed"),
        "pbr": (plans["pbr-modification"], "pbr_changed"),
        # the IS-IS cost moves IGP pairs only: a reuse re-forwards their readers
        "isis-cost": (plans["topology-adjustment"], None),
        "new-router": (plans["adding-new-routers"], "devices_changed"),
        "sr": (
            ChangePlan(
                name="sr-steer",
                change_type="traffic-steering",
                device_commands={
                    core0: [
                        "segment-routing policy SRP1 endpoint region1-core0 color 100"
                    ]
                },
            ),
            "sr_changed",
        ),
    }


@pytest.mark.parametrize("kind", ["acl", "pbr", "isis-cost", "new-router", "sr"])
def test_forwarding_deltas_build_no_reuse(verifier, plans, kind):
    plan, reason = forwarding_plans(plans)[kind]
    report = verifier.verify(plan)
    assert declined(report) == [reason]
    if reason is None:
        (span,) = reuse_spans(report)
        assert 0 < span.meta["work"] < span.meta["work"] + span.meta["reused"]
        assert_matches_full(verifier, report.updated_world)
    else:
        assert not reuse_spans(report)
        assert "traffic: re-forwarded" not in report.summary()


def test_topology_change_under_a_bound_acl_builds_no_reuse(world):
    """Which ACL a link selects goes by interface name: links must hold."""
    model, _, routes, flows = world
    model = model.copy()
    core0, core1 = "region0-core0", "region0-core1"
    link = model.topology.find_link(core0, core1)
    model.edit(core1).interface_acls[link.interface_on(core1).name] = "GUARD"
    verifier = ChangeVerifier(model, routes, input_flows=flows)
    verifier.prepare_base()
    plan = ChangePlan(
        name="drain", change_type="topology-adjustment",
        topology_ops=[remove_link(core0, core1)],
    )
    report = verifier.verify(plan)
    assert declined(report) == ["topology_with_acls"]


def test_noop_plan_reuses_every_ec(verifier, world):
    """An empty blast with a non-forwarding diff forwards nothing."""
    model = world[0]
    edge0 = "region0-dcedge0"
    plan = ChangePlan(
        name="redistribute-nothing",
        change_type="os-patch",
        device_commands={
            edge0: dialect(
                model,
                edge0,
                [f"router bgp {model.device(edge0).asn}", " redistribute static"],
                [f"bgp {model.device(edge0).asn}", " import-route static"],
            )
        },
    )
    report = verifier.verify(plan)
    assert report.incremental.mode == MODE_NOOP
    (span,) = reuse_spans(report)
    assert span.meta["work"] == 0 and span.meta["reused"] > 0
    assert report.trace.total("traffic.links_patched") == 0
    base = verifier.base_world.traffic
    updated = report.updated_world.traffic
    assert updated.loads.loads is not base.loads.loads
    assert list(updated.loads.loads.items()) == list(base.loads.loads.items())


def test_full_mode_records_why(world, plans):
    model, _, routes, flows = world
    verifier = ChangeVerifier(model, routes, input_flows=flows, incremental=False)
    verifier.prepare_base()
    report = verifier.verify(plans["static-route-modification"])
    assert not reuse_spans(report)
    assert declined(report) == ["incremental_off"]
