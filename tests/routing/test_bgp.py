"""Behavioural tests for the BGP fixpoint engine."""

from repro.net.addr import Prefix
from repro.net.device import BgpPeerConfig, VrfConfig
from repro.net.vendors import VENDOR_A, VENDOR_B, mismodel
from repro.routing.attributes import SOURCE_EBGP, SOURCE_IBGP
from repro.routing.bgp import build_sessions
from repro.routing.inputs import InputRoute, inject_external_route
from repro.routing.isis import compute_igp
from repro.routing.simulator import simulate_routes

from tests.helpers import build_model, full_mesh_ibgp, peer_both

PFX = "203.0.113.0/24"


def best(result, device, prefix=PFX, vrf="global"):
    routes = result.device_ribs[device].routes_for(Prefix.parse(prefix), vrf)
    return routes


class TestEbgpBasics:
    def make_two_as(self, **peer_kwargs):
        model = build_model(
            routers=[("A", 100), ("B", 200)], links=[("A", "B", 10)]
        )
        peer_both(model, "A", "B", **peer_kwargs)
        return model

    def test_as_prepend_and_nexthop(self):
        model = self.make_two_as()
        result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
        routes = best(result, "B")
        assert len(routes) == 1
        assert routes[0].as_path == (100, 65010)
        assert routes[0].nexthop == model.loopback_of("A")
        assert routes[0].source == SOURCE_EBGP

    def test_local_pref_not_transitive_over_ebgp(self):
        model = self.make_two_as()
        inp = inject_external_route("A", PFX, (65010,), local_pref=500)
        result = simulate_routes(model, [inp])
        assert best(result, "A")[0].local_pref == 500
        assert best(result, "B")[0].local_pref == 100

    def test_as_loop_prevention(self):
        # B's ASN already in the path: B must reject the route.
        model = self.make_two_as()
        inp = inject_external_route("A", PFX, (65010, 200))
        result = simulate_routes(model, [inp])
        assert best(result, "A")  # installed at A
        assert best(result, "B") == []

    def test_ebgp_session_needs_live_link(self):
        model = self.make_two_as()
        model.topology.fail_link(model.topology.find_link("A", "B"))
        result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
        assert best(result, "B") == []

    def test_shutdown_peer_blocks_session(self):
        model = self.make_two_as()
        model.device("A").peer_to("B").enabled = False
        result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
        assert best(result, "B") == []

    def test_default_preference_vsb(self):
        model_a = self.make_two_as()
        result = simulate_routes(model_a, [inject_external_route("A", PFX, (65010,))])
        assert best(result, "B")[0].preference == VENDOR_A.default_bgp_preference[0]

        model_b = build_model(
            routers=[("A", 100), ("B", 200)], links=[("A", "B", 10)],
            vendor="vendor-b",
        )
        peer_both(model_b, "A", "B")
        # vendor-b denies eBGP updates without an import policy (the
        # missing-policy VSB), so give B an explicit permit-all.
        model_b.device("B").policy_ctx.define_policy("PASS").node(10, "permit")
        model_b.device("B").peer_to("A").import_policy = "PASS"
        result_b = simulate_routes(model_b, [inject_external_route("A", PFX, (65010,))])
        assert best(result_b, "B")[0].preference == VENDOR_B.default_bgp_preference[0]


class TestIbgpPropagation:
    def line_model(self):
        # A - B - C in one AS, line topology.
        model = build_model(
            routers=[("A", 100), ("B", 100), ("C", 100)],
            links=[("A", "B", 10), ("B", "C", 10)],
        )
        return model

    def test_ibgp_does_not_transit(self):
        # A-B and B-C iBGP sessions, but no A-C: without RR, C never learns.
        model = self.line_model()
        peer_both(model, "A", "B")
        peer_both(model, "B", "C")
        result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
        assert best(result, "B")
        assert best(result, "C") == []

    def test_full_mesh_propagates(self):
        model = self.line_model()
        full_mesh_ibgp(model, ["A", "B", "C"])
        result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
        assert best(result, "C")
        assert best(result, "C")[0].source == SOURCE_IBGP

    def test_route_reflector(self):
        model = self.line_model()
        # B is RR; A and C are clients.
        model.device("B").add_peer(
            BgpPeerConfig(peer="A", remote_asn=100, route_reflector_client=True)
        )
        model.device("B").add_peer(
            BgpPeerConfig(peer="C", remote_asn=100, route_reflector_client=True)
        )
        model.device("A").add_peer(BgpPeerConfig(peer="B", remote_asn=100))
        model.device("C").add_peer(BgpPeerConfig(peer="B", remote_asn=100))
        result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
        assert best(result, "C")
        assert best(result, "C")[0].nexthop == model.loopback_of("A")

    def test_ibgp_session_needs_igp_reachability(self):
        model = self.line_model()
        full_mesh_ibgp(model, ["A", "B", "C"])
        model.topology.fail_router("B")
        igp = compute_igp(model)
        sessions = build_sessions(model, igp)
        assert not any({s.sender, s.receiver} == {"A", "C"} for s in sessions)

    def test_local_pref_propagates_over_ibgp(self):
        model = self.line_model()
        full_mesh_ibgp(model, ["A", "B", "C"])
        inp = inject_external_route("A", PFX, (65010,), local_pref=333)
        result = simulate_routes(model, [inp])
        assert best(result, "C")[0].local_pref == 333


class TestPolicies:
    def test_import_policy_denies_by_community(self):
        model = build_model(routers=[("A", 100), ("B", 200)], links=[("A", "B", 10)])
        peer_both(model, "A", "B")
        ctx = model.device("B").policy_ctx
        ctx.define_community_list("BLOCK").add("100:1")
        ctx.define_policy("IMP").node(10, "deny").match("community-list", "BLOCK")
        model.device("B").peer_to("A").import_policy = "IMP"
        blocked = inject_external_route(
            "A", PFX, (65010,), communities=frozenset({"100:1"})
        )
        allowed = inject_external_route("A", "198.51.100.0/24", (65010,))
        result = simulate_routes(model, [blocked, allowed])
        # vendor-a default-policy VSB denies unmatched routes too, so add
        # an explicit permit node for the test to be about the deny.
        assert best(result, "B", PFX) == []

    def test_export_policy_sets_med(self):
        model = build_model(routers=[("A", 100), ("B", 200)], links=[("A", "B", 10)])
        peer_both(model, "A", "B")
        ctx = model.device("A").policy_ctx
        ctx.define_policy("EXP").node(10, "permit").set("med", 77)
        model.device("A").peer_to("B").export_policy = "EXP"
        result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
        assert best(result, "B")[0].med == 77

    def test_aspath_overwrite_own_asn_vsb(self):
        for vendor, expected_path in (
            ("vendor-a", (100, 65099)),  # adds own ASN after overwrite
            ("vendor-b", (65099,)),      # does not
        ):
            model = build_model(
                routers=[("A", 100), ("B", 200)], links=[("A", "B", 10)],
                vendor=vendor,
            )
            peer_both(model, "A", "B")
            ctx = model.device("A").policy_ctx
            ctx.define_policy("EXP").node(10, "permit").set("aspath-set", (65099,))
            model.device("A").peer_to("B").export_policy = "EXP"
            if vendor == "vendor-b":
                # vendor-b needs an explicit eBGP import policy (missing-
                # policy VSB denies otherwise).
                model.device("B").policy_ctx.define_policy("PASS").node(10, "permit")
                model.device("B").peer_to("A").import_policy = "PASS"
            result = simulate_routes(
                model, [inject_external_route("A", PFX, (65010,))]
            )
            routes = best(result, "B")
            assert routes and routes[0].as_path == expected_path, vendor


class TestEcmpAndSrVsb:
    def fig9_model(self, vendor="vendor-a"):
        """A learns the prefix via iBGP from borders B and C, equal IGP cost."""
        model = build_model(
            routers=[("A", 100), ("B", 100), ("C", 100)],
            links=[("A", "B", 10), ("A", "C", 10)],
            vendor=vendor,
        )
        full_mesh_ibgp(model, ["A", "B", "C"])
        return model

    def inputs(self):
        return [
            inject_external_route("B", PFX, (65010,)),
            inject_external_route("C", PFX, (65010,)),
        ]

    def test_equal_igp_cost_gives_ecmp(self):
        model = self.fig9_model(vendor="vendor-b")  # no SR VSB
        result = simulate_routes(model, self.inputs())
        routes = best(result, "A")
        assert len(routes) == 2
        assert {str(r.nexthop) for r in routes} == {
            str(model.loopback_of("B")),
            str(model.loopback_of("C")),
        }

    def test_sr_policy_zeroes_igp_cost_on_vendor_a(self):
        # Figure 9: A has an SR policy towards B; vendor A reports IGP cost
        # 0 for SR destinations, so ECMP collapses to the single B route.
        model = self.fig9_model(vendor="vendor-a")
        model.device("A").add_sr_policy("TO-B", endpoint="B")
        result = simulate_routes(model, self.inputs())
        routes = best(result, "A")
        assert len(routes) == 1
        assert routes[0].nexthop == model.loopback_of("B")

    def test_sr_policy_harmless_on_other_vendor(self):
        model = self.fig9_model(vendor="vendor-b")
        model.device("A").add_sr_policy("TO-B", endpoint="B")
        result = simulate_routes(model, self.inputs())
        assert len(best(result, "A")) == 2

    def test_mismodelled_sr_vsb_diverges(self):
        # Hoyan-before-the-fix: vendor A modelled without the SR VSB gives a
        # different RIB than the ground truth — the Figure 9 discrepancy.
        truth_model = self.fig9_model(vendor="vendor-a")
        truth_model.device("A").add_sr_policy("TO-B", endpoint="B")
        truth = simulate_routes(truth_model, self.inputs())

        wrong_model = self.fig9_model(vendor="vendor-a")
        wrong_model.device("A").add_sr_policy("TO-B", endpoint="B")
        wrong_profile = mismodel(VENDOR_A, "sr_tunnel_zeroes_igp_cost")
        wrong_model.device("A").set_vendor_profile(wrong_profile)
        simulated = simulate_routes(wrong_model, self.inputs())

        assert len(best(truth, "A")) == 1
        assert len(best(simulated, "A")) == 2

    def test_max_paths_respected(self):
        model = self.fig9_model(vendor="vendor-b")
        model.device("A").max_paths = 1
        result = simulate_routes(model, self.inputs())
        assert len(best(result, "A")) == 1


class TestAddPath:
    def test_addpath_advertises_multiple(self):
        # RR B with add-path 2 towards client A; two borders C and D inject.
        model = build_model(
            routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
            links=[("A", "B", 10), ("B", "C", 10), ("B", "D", 10)],
        )
        model.device("B").add_peer(
            BgpPeerConfig(peer="A", remote_asn=100, route_reflector_client=True, addpath=2)
        )
        model.device("A").add_peer(BgpPeerConfig(peer="B", remote_asn=100))
        peer_both(model, "B", "C")
        peer_both(model, "B", "D")
        model.device("B").peer_to("C").route_reflector_client = True
        model.device("B").peer_to("D").route_reflector_client = True
        inputs = [
            inject_external_route("C", PFX, (65010,)),
            inject_external_route("D", PFX, (65010,)),
        ]
        result = simulate_routes(model, inputs)
        routes = best(result, "A")
        assert len(routes) == 2


class TestAggregation:
    def agg_model(self, vendor="vendor-a", as_set=False, summary_only=False):
        model = build_model(
            routers=[("A", 100), ("B", 100)], links=[("A", "B", 10)], vendor=vendor
        )
        full_mesh_ibgp(model, ["A", "B"])
        model.device("A").add_aggregate(
            "10.0.0.0/8", as_set=as_set, summary_only=summary_only
        )
        return model

    def contributors(self):
        return [
            inject_external_route(
                "A", "10.1.0.0/16", (65010, 7), communities=frozenset({"1:1"})
            ),
            inject_external_route(
                "A", "10.2.0.0/16", (65010, 8), communities=frozenset({"2:2"})
            ),
        ]

    def test_aggregate_originated(self):
        result = simulate_routes(self.agg_model(), self.contributors())
        agg = best(result, "A", "10.0.0.0/8")
        assert len(agg) == 1
        assert agg[0].aggregator == "A"
        assert best(result, "B", "10.0.0.0/8")

    def test_no_aggregate_without_contributors(self):
        result = simulate_routes(self.agg_model(), [])
        assert best(result, "A", "10.0.0.0/8") == []

    def test_common_aspath_vsb(self):
        # vendor-a keeps the common AS-path prefix; vendor-b drops it.
        result_a = simulate_routes(self.agg_model("vendor-a"), self.contributors())
        assert best(result_a, "A", "10.0.0.0/8")[0].as_path == (65010,)
        result_b = simulate_routes(self.agg_model("vendor-b"), self.contributors())
        assert best(result_b, "A", "10.0.0.0/8")[0].as_path == ()

    def test_as_set_unions_communities(self):
        result = simulate_routes(
            self.agg_model(as_set=True), self.contributors()
        )
        agg = best(result, "A", "10.0.0.0/8")[0]
        assert {"1:1", "2:2"} <= agg.communities

    def test_summary_only_suppresses_specifics(self):
        result = simulate_routes(
            self.agg_model(summary_only=True), self.contributors()
        )
        # A still has the specifics...
        assert best(result, "A", "10.1.0.0/16")
        # ...but B only sees the aggregate.
        assert best(result, "B", "10.0.0.0/8")
        assert best(result, "B", "10.1.0.0/16") == []

    def test_without_summary_only_specifics_propagate(self):
        result = simulate_routes(self.agg_model(), self.contributors())
        assert best(result, "B", "10.1.0.0/16")


class TestVrfLeaking:
    def leak_model(self, vendor="vendor-a"):
        model = build_model(
            routers=[("A", 100)], links=[], vendor=vendor
        )
        device = model.device("A")
        device.add_vrf(VrfConfig(name="vrf1", export_rts={"100:1"}))
        device.add_vrf(VrfConfig(name="vrf2", import_rts={"100:1"}))
        return model

    def test_rt_leak(self):
        model = self.leak_model()
        inp = InputRoute(
            router="A",
            vrf="vrf1",
            route=inject_external_route("A", PFX, (65010,), vrf="vrf1").route,
        )
        result = simulate_routes(model, [inp])
        assert best(result, "A", PFX, vrf="vrf1")
        assert best(result, "A", PFX, vrf="vrf2")

    def test_no_leak_without_rt_match(self):
        model = self.leak_model()
        model.device("A").vrfs["vrf2"].import_rts = {"999:9"}
        inp = inject_external_route("A", PFX, (65010,), vrf="vrf1")
        result = simulate_routes(model, [inp])
        assert best(result, "A", PFX, vrf="vrf2") == []

    def test_releak_vsb(self):
        # vrf1 -> vrf2 -> vrf3 chained leak: only vendors with the re-leak
        # VSB propagate to vrf3.
        for vendor, expect_vrf3 in (("vendor-a", False), ("vendor-b", True)):
            model = build_model(routers=[("A", 100)], links=[], vendor=vendor)
            device = model.device("A")
            device.add_vrf(VrfConfig(name="vrf1", export_rts={"1:1"}))
            device.add_vrf(
                VrfConfig(name="vrf2", import_rts={"1:1"}, export_rts={"2:2"})
            )
            device.add_vrf(VrfConfig(name="vrf3", import_rts={"2:2"}))
            inp = inject_external_route("A", PFX, (65010,), vrf="vrf1")
            result = simulate_routes(model, [inp])
            assert bool(best(result, "A", PFX, vrf="vrf3")) is expect_vrf3, vendor

    def test_global_leak_export_policy_vsb(self):
        # Global routes leaked into a VRF: whether the VRF's export policy
        # applies is vendor-specific.
        for vendor, expect_leak in (("vendor-a", True), ("vendor-b", False)):
            model = build_model(routers=[("A", 100)], links=[], vendor=vendor)
            device = model.device("A")
            device.vrfs["global"].export_rts = {"1:1"}
            device.add_vrf(
                VrfConfig(name="vpn", import_rts={"1:1"}, export_policy="BLOCK")
            )
            device.policy_ctx.define_policy("BLOCK").node(10, "deny")
            inp = inject_external_route("A", PFX, (65010,))
            result = simulate_routes(model, [inp])
            # vendor-a ignores the VRF export policy for leaked global
            # routes (knob False -> policy NOT applied -> leak succeeds);
            # vendor-b applies it (BLOCK -> deny).
            assert bool(best(result, "A", PFX, vrf="vpn")) is expect_leak, vendor


class TestConvergence:
    def test_stats_reported(self):
        model = build_model(
            routers=[("A", 100), ("B", 100)], links=[("A", "B", 10)]
        )
        full_mesh_ibgp(model, ["A", "B"])
        result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
        stats = result.stats
        assert stats.converged
        assert 0 < stats.rounds <= 20
        assert stats.messages >= 1
        assert Prefix.parse(PFX) in stats.prefix_messages

    def test_deterministic_results(self):
        def run():
            model = build_model(
                routers=[("A", 100), ("B", 100), ("C", 100)],
                links=[("A", "B", 10), ("B", "C", 10), ("A", "C", 10)],
            )
            full_mesh_ibgp(model, ["A", "B", "C"])
            inputs = [
                inject_external_route("A", PFX, (65010,)),
                inject_external_route("B", PFX, (65020,)),
            ]
            return simulate_routes(model, inputs).global_rib().identity_set()

        assert run() == run()
