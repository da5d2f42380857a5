"""Tests for input route building and the §2.2 filtering rules."""

from repro.net.addr import Prefix
from repro.net.vendors import VENDOR_A, VENDOR_B
from repro.routing.inputs import (
    build_local_input_routes,
    filter_monitored_routes,
    inject_external_route,
)

from tests.helpers import build_model, peer_both


def redist_model(vendor="vendor-a"):
    model = build_model(
        routers=[("A", 100), ("B", 100)], links=[("A", "B", 10)], vendor=vendor
    )
    model.device("A").add_redistribution("direct")
    return model


class TestDirectRedistribution:
    def test_loopback_redistributed(self):
        inputs = build_local_input_routes(redist_model())
        prefixes = {str(i.route.prefix) for i in inputs}
        assert str(Prefix.from_address(redist_model().loopback_of("A"))) in prefixes

    def test_interface_subnet_and_host_route(self):
        model = redist_model()
        model.topology.connect(
            "A", "B", a_addr="192.0.2.0", b_addr="192.0.2.1"
        )
        inputs = build_local_input_routes(model)
        prefixes = {str(i.route.prefix) for i in inputs}
        assert "192.0.2.0/31" in prefixes
        # vendor-a redistributes the extra /32 direct route (Table 5).
        assert "192.0.2.0/32" in prefixes

    def test_direct32_vsb_blocks_redistribution(self):
        model = redist_model(vendor="vendor-b")  # does not redistribute /32
        model.topology.connect("A", "B", a_addr="192.0.2.0", b_addr="192.0.2.1")
        inputs = build_local_input_routes(model)
        prefixes = {str(i.route.prefix) for i in inputs}
        assert "192.0.2.0/31" in prefixes
        assert "192.0.2.0/32" not in prefixes

    def test_redistribution_weight_vsb(self):
        for vendor, profile in (("vendor-a", VENDOR_A), ("vendor-b", VENDOR_B)):
            inputs = build_local_input_routes(redist_model(vendor))
            assert inputs, vendor
            assert all(
                i.route.weight == profile.redistribution_weight for i in inputs
            ), vendor

    def test_redistribution_policy_filters(self):
        model = redist_model()
        ctx = model.device("A").policy_ctx
        ctx.define_prefix_list("LOOPS").add("10.255.0.0/16", le=32)
        policy = ctx.define_policy("RED")
        policy.node(10, "permit").match("prefix-list", "LOOPS")
        model.device("A").redistributions[("global", "direct")].policy = "RED"
        model.topology.connect("A", "B", a_addr="192.0.2.0", b_addr="192.0.2.1")
        inputs = build_local_input_routes(model)
        prefixes = {str(i.route.prefix) for i in inputs}
        assert all(p.startswith("10.255.") for p in prefixes)

    def test_static_redistribution(self):
        model = build_model(routers=[("A", 100)], links=[])
        model.device("A").add_static("172.16.0.0/12", "10.255.0.1")
        model.device("A").add_redistribution("static")
        inputs = build_local_input_routes(model)
        assert [str(i.route.prefix) for i in inputs] == ["172.16.0.0/12"]
        assert inputs[0].route.protocol == "bgp"

    def test_direct32_advertisement_vsb(self):
        """/32 direct routes redistribute but are not sent to peers (knob)."""
        from repro.routing.simulator import simulate_routes

        model = redist_model()
        model.topology.connect("A", "B", a_addr="192.0.2.0", b_addr="192.0.2.1")
        peer_both(model, "A", "B")
        result = simulate_routes(model)
        b_prefixes = {
            str(p) for p in result.device_ribs["B"].prefixes("global")
        }
        assert "192.0.2.0/31" in b_prefixes
        # vendor-a: sends_direct_slash32_to_peer = False
        assert "192.0.2.0/32" not in b_prefixes


class TestMonitoredFiltering:
    def make_model(self):
        model = build_model(
            routers=[("BORDER", 100), ("CORE", 100), ("EXT", 65010)],
            links=[("BORDER", "CORE", 10), ("BORDER", "EXT", 10)],
        )
        peer_both(model, "BORDER", "EXT")
        peer_both(model, "BORDER", "CORE")
        return model

    def test_routes_from_internal_only_vrfs_dropped(self):
        model = self.make_model()
        ext = inject_external_route("BORDER", "203.0.113.0/24", (65010,))
        internal = inject_external_route("CORE", "198.51.100.0/24", (65010,))
        kept = filter_monitored_routes([ext, internal], model)
        # CORE has no external peers, so a non-local route there is not an
        # input; BORDER's is kept.
        assert [i.router for i in kept] == ["BORDER"]

    def test_local_origin_always_kept(self):
        model = self.make_model()
        local = inject_external_route("CORE", "198.51.100.0/24", ())
        local = type(local)(
            router=local.router,
            vrf=local.vrf,
            route=local.route.evolve(source="local"),
        )
        kept = filter_monitored_routes([local], model)
        assert len(kept) == 1

    def test_unknown_router_dropped(self):
        model = self.make_model()
        ghost = inject_external_route("GHOST", "203.0.113.0/24", (65010,))
        assert filter_monitored_routes([ghost], model) == []

    def test_empty_aspath_bug_reproduction(self):
        # §5.3: the flawed rule discards DC aggregate routes (empty AS path).
        model = self.make_model()
        aggregate = inject_external_route("BORDER", "10.0.0.0/8", ())
        normal = inject_external_route("BORDER", "203.0.113.0/24", (65010,))
        good = filter_monitored_routes([aggregate, normal], model)
        assert len(good) == 2
        flawed = filter_monitored_routes(
            [aggregate, normal], model, drop_empty_aspath=True
        )
        assert [str(i.route.prefix) for i in flawed] == ["203.0.113.0/24"]
