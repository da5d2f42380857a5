"""Tests for the blast-radius analyzer (repro.incremental.blast)."""

from repro.incremental.blast import BlastRadius, analyze_blast_radius
from repro.incremental.diff import diff_models
from repro.net.addr import as_prefix
from repro.net.policy import MatchClause, PolicyNode, PrefixList, RoutePolicy
from repro.routing.inputs import inject_external_route

from tests.helpers import build_model


def base_model():
    return build_model(
        routers=[("A", 100), ("B", 100), ("C", 100)],
        links=[("A", "B", 10), ("B", "C", 10)],
    )


def analyze(base, updated, new_routes=()):
    diff = diff_models(base, updated, tuple(new_routes))
    return analyze_blast_radius(diff, base, updated)


class TestEmptyAndWiden:
    def test_empty_diff_is_empty_radius(self):
        base = base_model()
        blast = analyze(base, base.copy())
        assert blast.is_empty
        assert not blast.widened
        assert not blast.covers(as_prefix("10.0.0.0/8"))

    def test_topology_change_widens(self):
        base = base_model()
        updated = base.copy()
        updated.topology.connect("A", "C", igp_cost=5)
        blast = analyze(base, updated)
        assert blast.widened
        assert any("topology" in reason for reason in blast.reasons)
        assert blast.covers(as_prefix("203.0.113.0/24"))

    def test_isis_delta_widens(self):
        base = base_model()
        updated = base.copy()
        updated.edit("A").isis.cost_overrides["B"] = 1000
        blast = analyze(base, updated)
        assert blast.widened
        assert any("isis" in reason for reason in blast.reasons)

    def test_peer_delta_widens(self):
        base = base_model()
        updated = base.copy()
        from repro.net.device import BgpPeerConfig

        updated.edit("A").add_peer(BgpPeerConfig(peer="B", remote_asn=100))
        blast = analyze(base, updated)
        assert blast.widened

    def test_community_list_change_widens(self):
        base = base_model()
        updated = base.copy()
        from repro.net.policy import CommunityList

        updated.edit("A").policy_ctx.community_lists["CL"] = CommunityList(
            "CL", ["64512:1"]
        )
        blast = analyze(base, updated)
        assert blast.widened
        assert any("community-list" in reason for reason in blast.reasons)

    def test_policy_added_widens(self):
        base = base_model()
        updated = base.copy()
        updated.edit("A").policy_ctx.policies["NEW"] = RoutePolicy("NEW")
        blast = analyze(base, updated)
        assert blast.widened

    def test_unconstrained_policy_node_widens(self):
        base = base_model()
        base.device("A").policy_ctx.policies["P"] = RoutePolicy("P")
        updated = base.copy()
        node = PolicyNode(seq=5, matches=[MatchClause("community", "64512:1")])
        updated.edit("A").policy_ctx.policies["P"].nodes.append(node)
        blast = analyze(base, updated)
        assert blast.widened
        assert any("no prefix constraint" in reason for reason in blast.reasons)


class TestNarrowAnalysis:
    def test_static_delta_yields_its_prefix(self):
        base = base_model()
        updated = base.copy()
        updated.edit("A").add_static("172.20.0.0/16", "10.255.0.2")
        blast = analyze(base, updated)
        assert not blast.widened
        assert as_prefix("172.20.0.0/16") in blast.affected_prefixes
        assert blast.covers(as_prefix("172.20.0.0/16"))
        assert blast.covers(as_prefix("172.20.5.0/24"))
        assert not blast.covers(as_prefix("10.0.0.0/8"))

    def test_prefix_constrained_policy_node_is_narrow(self):
        base = base_model()
        base.device("A").policy_ctx.prefix_lists["NET"] = PrefixList(
            "NET", 4
        ).add("100.64.1.0/24")
        base.device("A").policy_ctx.policies["P"] = RoutePolicy("P")
        updated = base.copy()
        node = PolicyNode(seq=5, matches=[MatchClause("prefix-list", "NET")])
        updated.edit("A").policy_ctx.policies["P"].nodes.append(node)
        blast = analyze(base, updated)
        assert not blast.widened
        assert as_prefix("100.64.1.0/24") in blast.affected_prefixes

    def test_prefix_list_edit_contributes_old_and_new_entries(self):
        base = base_model()
        base.device("A").policy_ctx.prefix_lists["NET"] = PrefixList(
            "NET", 4
        ).add("100.64.1.0/24")
        updated = base.copy()
        plist = updated.edit("A").policy_ctx.prefix_lists["NET"]
        plist.entries = [e for e in plist.entries]  # force distinct list
        updated.edit("A").policy_ctx.prefix_lists["NET"] = PrefixList(
            "NET", 4
        ).add("100.64.2.0/24")
        blast = analyze(base, updated)
        assert not blast.widened
        assert as_prefix("100.64.1.0/24") in blast.affected_prefixes
        assert as_prefix("100.64.2.0/24") in blast.affected_prefixes

    def test_new_input_routes_join_the_space(self):
        base = base_model()
        new = inject_external_route("A", "198.51.77.0/24", (64999,))
        blast = analyze(base, base.copy(), [new])
        assert not blast.widened
        assert blast.covers(as_prefix("198.51.77.0/24"))

    def test_exact_prefix_match_clause_is_narrow(self):
        base = base_model()
        base.device("A").policy_ctx.policies["P"] = RoutePolicy("P")
        updated = base.copy()
        node = PolicyNode(
            seq=5, matches=[MatchClause("prefix", as_prefix("192.0.2.0/24"))]
        )
        updated.edit("A").policy_ctx.policies["P"].nodes.append(node)
        blast = analyze(base, updated)
        assert not blast.widened
        assert blast.covers(as_prefix("192.0.2.0/24"))


class TestAggregateClosure:
    def test_space_pulls_in_overlapping_aggregate(self):
        base = base_model()
        base.device("B").add_aggregate("172.20.0.0/14")
        updated = base.copy()
        updated.edit("A").add_static("172.20.5.0/24", "10.255.0.2")
        blast = analyze(base, updated)
        assert not blast.widened
        # The aggregate prefix joins the space, so its other contributors
        # (anywhere inside 172.20.0.0/14) are re-simulated too.
        assert as_prefix("172.20.0.0/14") in blast.affected_prefixes
        assert blast.covers(as_prefix("172.21.0.0/24"))

    def test_nested_aggregates_close_transitively(self):
        base = base_model()
        base.device("B").add_aggregate("172.20.0.0/14")
        base.device("C").add_aggregate("172.16.0.0/12")
        updated = base.copy()
        updated.edit("A").add_static("172.20.5.0/24", "10.255.0.2")
        blast = analyze(base, updated)
        assert as_prefix("172.16.0.0/12") in blast.affected_prefixes

    def test_new_aggregate_config_is_its_own_space(self):
        base = base_model()
        updated = base.copy()
        updated.edit("B").add_aggregate("10.8.0.0/16", summary_only=True)
        blast = analyze(base, updated)
        assert not blast.widened
        assert blast.covers(as_prefix("10.8.3.0/24"))
        assert not blast.covers(as_prefix("10.9.0.0/24"))


class TestTrafficOnly:
    def test_acl_delta_is_traffic_only(self):
        base = base_model()
        updated = base.copy()
        updated.edit("A").interface_acls["eth0"] = "BLOCK"
        blast = analyze(base, updated)
        assert not blast.widened
        assert blast.is_empty
        assert blast.traffic_affected

    def test_pbr_delta_is_traffic_only(self):
        base = base_model()
        updated = base.copy()
        updated.edit("A").pbr_rules[99] = "rule-sentinel"
        blast = analyze(base, updated)
        assert blast.is_empty
        assert blast.traffic_affected


class TestBlastRadiusCovers:
    def test_widened_covers_everything(self):
        blast = BlastRadius(widened=True, reasons=("because",))
        assert blast.covers(as_prefix("0.0.0.0/0"))
        assert "widened" in blast.summary()

    def test_all_v6_flag(self):
        blast = BlastRadius(include_all_v6=True)
        assert blast.covers(as_prefix("2001:db8::/32"))
        assert not blast.covers(as_prefix("10.0.0.0/8"))
