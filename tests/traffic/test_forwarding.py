"""Tests for flow forwarding: RIB LPM, ECMP, PBR, ACL, SR tunnels.

Every case walks ``ForwardingEngine.forward_spread``, the one forwarding
decision that loads, intents and root causes read.
"""

import pytest

from repro.net.device import PbrRuleConfig, AclConfig, AclRuleConfig
from repro.net.addr import IPAddress, Prefix
from repro.routing.attributes import SOURCE_EBGP, SOURCE_IBGP, Route
from repro.routing.inputs import inject_external_route
from repro.routing.isis import compute_igp
from repro.routing.rib import DeviceRib
from repro.routing.simulator import simulate_routes
from repro.traffic import ForwardingEngine, TrafficSimulator, make_flow
from repro.traffic.forwarding import (
    STATUS_BLOCKED,
    STATUS_DELIVERED,
    STATUS_DROPPED,
    STATUS_EXITED,
    STATUS_LOOP,
    STATUS_STRANDED,
)

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"
DST = "203.0.113.9"


def square_model():
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("A", "C", 10), ("B", "D", 10), ("C", "D", 10)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    return model


def engine_for(model, inputs):
    result = simulate_routes(model, inputs)
    return ForwardingEngine(model, result.device_ribs, result.igp), result


def spread_paths(engine, flow):
    """``{routers: status}`` over a flow's spread; fractions sum to 1."""
    spread = engine.forward_spread(flow)
    assert sum(f for _, f in spread) == pytest.approx(1.0)
    return {tuple(path.routers): path.status for path, _ in spread}


def only_path(engine, flow):
    """The one path a flow's spread takes, with its whole volume."""
    [(path, fraction)] = engine.forward_spread(flow)
    assert fraction == pytest.approx(1.0)
    return path


class TestBasicForwarding:
    def test_exit_at_border(self):
        model = square_model()
        engine, _ = engine_for(model, [inject_external_route("D", PFX, (65010,))])
        paths = spread_paths(engine, make_flow("A", "10.0.0.1", DST))
        assert paths == {
            ("A", "B", "D"): STATUS_EXITED,
            ("A", "C", "D"): STATUS_EXITED,
        }

    def test_delivery_to_loopback(self):
        model = square_model()
        engine, _ = engine_for(model, [])
        dst = str(model.loopback_of("D"))
        paths = spread_paths(engine, make_flow("A", "10.0.0.1", dst))
        assert paths == {
            ("A", "B", "D"): STATUS_DELIVERED,
            ("A", "C", "D"): STATUS_DELIVERED,
        }

    def test_no_route_dropped(self):
        model = square_model()
        engine, _ = engine_for(model, [])
        path = only_path(engine, make_flow("A", "10.0.0.1", "198.51.100.1"))
        assert path.status == STATUS_DROPPED
        assert path.routers == ["A"]

    def test_matched_prefixes_recorded(self):
        model = square_model()
        engine, _ = engine_for(model, [inject_external_route("D", PFX, (65010,))])
        spread = engine.forward_spread(make_flow("A", "10.0.0.1", DST))
        assert len(spread) == 2
        assert all(PFX in path.matched_prefixes for path, _ in spread)

    def test_ecmp_spreads_over_flows(self):
        """Flows that differ only by source port share one even spread."""
        model = square_model()
        engine, _ = engine_for(model, [inject_external_route("D", PFX, (65010,))])
        seen = {
            tuple(
                (tuple(path.routers), fraction)
                for path, fraction in engine.forward_spread(
                    make_flow("A", "10.0.0.1", DST, src_port=p)
                )
            )
            for p in range(64)
        }
        assert seen == {((("A", "B", "D"), 0.5), (("A", "C", "D"), 0.5))}


class TestSpreadMode:
    def test_fractions_sum_to_one(self):
        model = square_model()
        engine, _ = engine_for(model, [inject_external_route("D", PFX, (65010,))])
        spread = engine.forward_spread(make_flow("A", "10.0.0.1", DST))
        assert sum(f for _, f in spread) == pytest.approx(1.0)
        assert {tuple(p.routers) for p, _ in spread} == {
            ("A", "B", "D"),
            ("A", "C", "D"),
        }
        assert all(f == pytest.approx(0.5) for _, f in spread)

    def test_single_path_full_fraction(self):
        model = square_model()
        engine, _ = engine_for(model, [inject_external_route("B", PFX, (65010,))])
        spread = engine.forward_spread(make_flow("A", "10.0.0.1", DST))
        assert len(spread) == 1
        assert spread[0][1] == pytest.approx(1.0)


class TestPbrAndAcl:
    def test_pbr_overrides_rib(self):
        model = square_model()
        # RIB prefers A-B-D; PBR forces via C.
        model.topology.find_link("A", "C")  # exists
        model.device("A").add_pbr_rule(
            PbrRuleConfig(seq=10, nexthop="C", dst_prefix=Prefix.parse(PFX))
        )
        engine, _ = engine_for(model, [inject_external_route("D", PFX, (65010,))])
        path = only_path(engine, make_flow("A", "10.0.0.1", DST, src_port=7))
        assert path.routers == ["A", "C", "D"]
        assert path.status == STATUS_EXITED

    def test_pbr_disabled_rule_ignored(self):
        model = square_model()
        rule = PbrRuleConfig(
            seq=10, nexthop="C", dst_prefix=Prefix.parse(PFX), enabled=False
        )
        model.device("A").add_pbr_rule(rule)
        engine, _ = engine_for(model, [inject_external_route("B", PFX, (65010,))])
        path = only_path(engine, make_flow("A", "10.0.0.1", DST))
        assert path.routers == ["A", "B"]
        assert path.status == STATUS_EXITED

    def test_acl_blocks_flow(self):
        model = square_model()
        acl = AclConfig(name="BLOCK")
        acl.add(
            AclRuleConfig(seq=10, action="deny", dst_prefix=Prefix.parse(PFX))
        )
        acl.add(AclRuleConfig(seq=20, action="permit"))
        device_b = model.device("B")
        device_b.add_acl(acl)
        link = model.topology.find_link("A", "B")
        device_b.bind_acl(link.interface_on("B").name, "BLOCK")
        # Only the B path available so the ACL is on-path.
        model.topology.fail_link(model.topology.find_link("A", "C"))
        engine, _ = engine_for(model, [inject_external_route("D", PFX, (65010,))])
        path = only_path(engine, make_flow("A", "10.0.0.1", DST))
        assert path.status == STATUS_BLOCKED
        assert path.routers == ["A", "B"]

    def test_acl_permits_other_flows(self):
        model = square_model()
        acl = AclConfig(name="BLOCK")
        acl.add(
            AclRuleConfig(seq=10, action="deny", dst_prefix=Prefix.parse("9.9.9.0/24"))
        )
        acl.add(AclRuleConfig(seq=20, action="permit"))
        device_b = model.device("B")
        device_b.add_acl(acl)
        link = model.topology.find_link("A", "B")
        device_b.bind_acl(link.interface_on("B").name, "BLOCK")
        model.topology.fail_link(model.topology.find_link("A", "C"))
        engine, _ = engine_for(model, [inject_external_route("D", PFX, (65010,))])
        path = only_path(engine, make_flow("A", "10.0.0.1", DST))
        assert path.routers == ["A", "B", "D"]
        assert path.status == STATUS_EXITED


class TestSrForwarding:
    def test_sr_tunnel_steers_path(self):
        # A -> D via SR policy with segment C even though B path is equal.
        model = square_model()
        model.device("A").add_sr_policy("VIA-C", endpoint="D", segments=("C",))
        engine, _ = engine_for(model, [inject_external_route("D", PFX, (65010,))])
        spread = engine.forward_spread(make_flow("A", "10.0.0.1", DST))
        assert {tuple(p.routers) for p, _ in spread} == {("A", "C", "D")}

    def test_broken_tunnel_falls_back_to_igp(self):
        model = square_model()
        model.device("A").add_sr_policy("VIA-C", endpoint="D", segments=("C",))
        model.topology.fail_router("C")
        engine, _ = engine_for(model, [inject_external_route("D", PFX, (65010,))])
        path = only_path(engine, make_flow("A", "10.0.0.1", DST))
        assert path.routers == ["A", "B", "D"]
        assert path.status == STATUS_EXITED


class TestTrafficSimulator:
    def test_loads_conserve_volume(self):
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        sim = TrafficSimulator(model, result.device_ribs, result.igp)
        flows = [
            make_flow("A", f"10.0.{i}.1", DST, src_port=i, volume=10.0)
            for i in range(20)
        ]
        out = sim.simulate(flows)
        # Each flow crosses exactly 2 links; total volume 200 -> 400 link-volume.
        assert out.loads.total() == pytest.approx(400.0)

    def test_ec_and_full_simulation_loads_agree(self):
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        flows = [
            make_flow("A", f"10.0.{i}.1", DST, src_port=i, volume=5.0)
            for i in range(16)
        ]
        with_ecs = TrafficSimulator(model, result.device_ribs, result.igp).simulate(flows)
        without = TrafficSimulator(
            model, result.device_ribs, result.igp, use_ecs=False
        ).simulate(flows)
        for key in set(with_ecs.loads.loads) | set(without.loads.loads):
            assert with_ecs.loads.loads.get(key, 0.0) == pytest.approx(
                without.loads.loads.get(key, 0.0)
            )

    def test_ec_reduction_reported(self):
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        sim = TrafficSimulator(model, result.device_ribs, result.igp)
        flows = [
            make_flow("A", f"10.{i}.0.1", DST, src_port=i) for i in range(50)
        ]
        out = sim.simulate(flows)
        assert out.ec_index.reduction_factor == 50.0

    def test_path_of_member_flow(self):
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        sim = TrafficSimulator(model, result.device_ribs, result.igp)
        flows = [make_flow("A", f"10.{i}.0.1", DST, src_port=i) for i in range(4)]
        out = sim.simulate(flows)
        for flow in flows:
            assert out.path_of(flow)
            assert out.primary_path(flow).routers[0] == "A"

    def test_utilization_and_overload(self):
        model = build_model(
            routers=[("A", 100), ("B", 100)], links=[("A", "B", 10)]
        )
        full_mesh_ibgp(model, ["A", "B"])
        # Shrink the link so it overloads.
        for link in model.topology.links:
            object.__setattr__(link.a, "bandwidth", 100.0)
            object.__setattr__(link.b, "bandwidth", 100.0)
        result = simulate_routes(model, [inject_external_route("B", PFX, (65010,))])
        sim = TrafficSimulator(model, result.device_ribs, result.igp)
        out = sim.simulate([make_flow("A", "10.0.0.1", DST, volume=150.0)])
        overloaded = out.loads.overloaded_links(model.topology)
        assert overloaded and overloaded[0][0] == ("A", "B")


class TestPathologicalForwarding:
    def loop_model(self):
        """Static routes pointing at each other: a forwarding loop."""
        from repro.net.addr import IPAddress

        model = build_model(
            routers=[("A", 100), ("B", 100)], links=[("A", "B", 10)]
        )
        model.device("A").add_static("9.9.9.0/24", str(model.loopback_of("B")))
        model.device("B").add_static("9.9.9.0/24", str(model.loopback_of("A")))
        return model

    def test_static_loop_detected(self):
        model = self.loop_model()
        engine, _ = engine_for(model, [])
        path = only_path(engine, make_flow("A", "10.0.0.1", "9.9.9.9"))
        assert path.status == STATUS_LOOP
        assert path.routers == ["A", "B", "A"]

    def test_spread_mode_loop_detected(self):
        model = self.loop_model()
        engine, _ = engine_for(model, [])
        spread = engine.forward_spread(make_flow("A", "10.0.0.1", "9.9.9.9"))
        assert all(p.status == STATUS_LOOP for p, _ in spread)
        assert sum(f for _, f in spread) == pytest.approx(1.0)

    def test_stranded_when_nexthop_owner_unreachable(self):
        model = build_model(
            routers=[("A", 100), ("B", 100), ("C", 100)],
            links=[("A", "B", 10), ("B", "C", 10)],
        )
        # A static route via C, but C is cut off from A (B fails).
        model.device("A").add_static("9.9.9.0/24", str(model.loopback_of("C")))
        model.topology.fail_router("B")
        engine, _ = engine_for(model, [])
        path = only_path(engine, make_flow("A", "10.0.0.1", "9.9.9.9"))
        assert path.status == STATUS_STRANDED
        assert path.routers == ["A"]

    def test_pbr_to_non_adjacent_target_uses_igp(self):
        model = build_model(
            routers=[("A", 100), ("B", 100), ("C", 100)],
            links=[("A", "B", 10), ("B", "C", 10)],
        )
        full_mesh_ibgp(model, ["A", "B", "C"])
        from repro.net.device import PbrRuleConfig
        from repro.net.addr import Prefix as _P

        model.device("A").add_pbr_rule(
            PbrRuleConfig(seq=10, nexthop="C", dst_prefix=_P.parse(PFX))
        )
        engine, _ = engine_for(model, [inject_external_route("C", PFX, (65010,))])
        path = only_path(engine, make_flow("A", "10.0.0.1", DST))
        # PBR target C is two hops away; the IGP provides the first hop.
        assert path.routers == ["A", "B", "C"]
        assert path.status == STATUS_EXITED

    def test_unknown_ingress_dropped(self):
        model = square_model()
        engine, _ = engine_for(model, [])
        path = only_path(engine, make_flow("GHOST", "10.0.0.1", DST))
        assert path.status == STATUS_DROPPED
        assert path.routers == []
        assert path.detail == "unknown ingress"


def engine_over(model, entries):
    """An engine whose RIBs hold exactly ``{router: [route, ...]}``."""
    ribs = {name: DeviceRib(name) for name in model.devices}
    for router, routes in entries.items():
        for route in routes:
            ribs[router].install(route)
    return ForwardingEngine(model, ribs, compute_igp(model))


def ibgp_route(nexthop, origin):
    return Route(
        prefix=Prefix.parse(PFX), nexthop=nexthop, source=SOURCE_IBGP, origin_router=origin
    )


def local_exit(router):
    return Route(prefix=Prefix.parse(PFX), source=SOURCE_EBGP, origin_router=router)


class TestMultiRouteEntries:
    """LPM entries holding several routes: each is a branch or ends the walk."""

    UNOWNED = IPAddress.parse("192.0.2.1")

    def test_unresolvable_next_hop_beside_a_resolvable_one(self):
        model = square_model()
        engine = engine_over(
            model,
            {
                "A": [
                    ibgp_route(self.UNOWNED, "D"),
                    ibgp_route(model.loopback_of("B"), "B"),
                ],
                "B": [local_exit("B")],
            },
        )
        flow = make_flow("A", "10.0.0.1", DST)
        assert engine.decision(flow, "A") == ("hops", ([PFX], ["B"]))
        path = only_path(engine, flow)
        assert path.routers == ["A", "B"]
        assert path.status == STATUS_EXITED

    def test_only_unresolvable_next_hops_strand(self):
        engine = engine_over(square_model(), {"A": [ibgp_route(self.UNOWNED, "D")]})
        path = only_path(engine, make_flow("A", "10.0.0.1", DST))
        assert path.status == STATUS_STRANDED
        assert path.routers == ["A"]

    @pytest.mark.parametrize("exit_first", [False, True])
    def test_local_ebgp_exit_in_the_entry_exits(self, exit_first):
        model = square_model()
        routes = [ibgp_route(model.loopback_of("B"), "B"), local_exit("A")]
        if exit_first:
            routes.reverse()
        engine = engine_over(model, {"A": routes, "B": [local_exit("B")]})
        flow = make_flow("A", "10.0.0.1", DST)
        assert engine.decision(flow, "A") == ("terminal", STATUS_EXITED)
        path = only_path(engine, flow)
        assert path.routers == ["A"]
        assert path.status == STATUS_EXITED
