"""Tests for k-failure checking and daily configuration auditing."""

from repro.core import Auditor
from repro.kfailure import KFailureEngine, reachability_property
from repro.routing.inputs import inject_external_route
from repro.routing.simulator import simulate_routes

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"


def redundant_world():
    """A reaches D via B or C; redundant to any single failure."""
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("B", "D", 10), ("A", "C", 10), ("C", "D", 10)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    return model, [inject_external_route("D", PFX, (65010,))]


class TestKFailure:
    def test_single_failure_tolerated(self):
        model, inputs = redundant_world()
        engine = KFailureEngine(model, inputs)
        result = engine.check(1, reachability_property(PFX, ["A"]))
        assert result.ok
        assert result.scenarios_checked == 4  # one per link

    def test_double_failure_found(self):
        model, inputs = redundant_world()
        engine = KFailureEngine(model, inputs)
        result = engine.check(2, reachability_property(PFX, ["A"]))
        assert not result.ok
        # Failing both A-B and A-C cuts A off.
        broken = {
            frozenset(frozenset(l) for l in v.failed_links)
            for v in result.violations
        }
        assert frozenset({frozenset({"A", "B"}), frozenset({"A", "C"})}) in broken

    def test_non_redundant_link_found_at_k1(self):
        model, inputs = redundant_world()
        link = model.topology.find_link("C", "D")
        model.topology.remove_link(link)
        # Now B is the only way to D.
        engine = KFailureEngine(model, inputs)
        result = engine.check(1, reachability_property(PFX, ["A"]))
        assert not result.ok

    def test_router_failures(self):
        model, inputs = redundant_world()
        engine = KFailureEngine(model, inputs, fail_links=False, fail_routers=True)
        result = engine.check(1, reachability_property(PFX, ["A"]))
        # Failing D (the border) removes the prefix everywhere.
        assert not result.ok
        assert any(v.failed_routers == ("D",) for v in result.violations)

    def test_scenario_cap(self):
        model, inputs = redundant_world()
        engine = KFailureEngine(model, inputs, max_scenarios=2)
        result = engine.check(2, reachability_property(PFX, ["A"]))
        assert result.truncated
        assert result.scenarios_checked == 2

    def test_violation_str(self):
        model, inputs = redundant_world()
        engine = KFailureEngine(model, inputs)
        result = engine.check(2, reachability_property(PFX, ["A"]))
        assert "failure scenario" in str(result.violations[0])


class TestAuditor:
    def world(self):
        model, inputs = redundant_world()
        result = simulate_routes(model, inputs)
        return model, result.device_ribs

    def test_clean_network_passes(self):
        model, ribs = self.world()
        results = Auditor(model, ribs).run()
        assert all(r.ok for r in results), [str(r) for r in results if not r.ok]

    def test_group_prefix_consistency(self):
        model, ribs = self.world()
        # Put B and C in the same group, then give B an extra static route.
        for name in ("B", "C"):
            model.topology.router(name).__dict__["group"] = "pair"
        model.device("B").add_static("172.16.0.0/12", "10.255.0.1")
        from repro.routing.simulator import simulate_routes

        result = simulate_routes(
            model, [inject_external_route("D", PFX, (65010,))]
        )
        audit = Auditor(model, result.device_ribs).run(["group-prefix-consistency"])
        assert not audit[0].ok
        assert "pair" in audit[0].problems[0]

    def test_undefined_policy_reference(self):
        model, ribs = self.world()
        model.device("A").peers[0].import_policy = "GHOST"
        results = Auditor(model, ribs).run(["policy-references-defined"])
        assert not results[0].ok
        assert "GHOST" in results[0].problems[0]

    def test_undefined_filter_reference(self):
        model, ribs = self.world()
        ctx = model.device("A").policy_ctx
        ctx.define_policy("P").node(10, "permit").match("prefix-list", "TYPO")
        results = Auditor(model, ribs).run(["policy-references-defined"])
        assert not results[0].ok
        assert "TYPO" in results[0].problems[0]

    def test_unresolvable_static_nexthop(self):
        model, ribs = self.world()
        model.device("A").add_static("172.16.0.0/12", "192.0.2.199")
        results = Auditor(model, ribs).run(["static-nexthops-resolvable"])
        assert not results[0].ok

    def test_isolated_transit_detected(self):
        model = build_model(
            routers=[("A", 100), ("M", 100), ("B", 100)],
            links=[("A", "M", 10), ("M", "B", 10)],
        )
        model.device("M").isolated = True
        results = Auditor(model, {}).run(["isolated-devices-not-transit"])
        assert not results[0].ok
        assert "only path" in results[0].problems[0]

    def test_custom_audit_registration(self):
        model, ribs = self.world()
        auditor = Auditor(model, ribs)
        auditor.register("always-fails", lambda m, r: ["nope"])
        results = auditor.run(["always-fails"])
        assert not results[0].ok
