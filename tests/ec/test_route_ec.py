"""Tests for route equivalence classes (§3.1)."""

from repro import perfopts
from repro.ec import compute_prefix_group_ecs, compute_route_ecs, expand_device_ribs
from repro.net.addr import Prefix
from repro.routing.inputs import inject_external_route
from repro.routing.rib import DeviceRib
from repro.routing.simulator import simulate_routes

from tests.helpers import build_model, full_mesh_ibgp


def simple_model():
    model = build_model(
        routers=[("A", 100), ("B", 100)], links=[("A", "B", 10)]
    )
    full_mesh_ibgp(model, ["A", "B"])
    return model


class TestGrouping:
    def test_identical_attribute_routes_group(self):
        model = simple_model()
        inputs = [
            inject_external_route("A", f"203.0.{i}.0/24", (65010,))
            for i in range(10)
        ]
        index = compute_route_ecs(model, inputs)
        assert index.total_routes == 10
        assert len(index.classes) == 1
        assert index.reduction_factor == 10.0

    def test_different_attributes_split(self):
        model = simple_model()
        inputs = [
            inject_external_route("A", "203.0.0.0/24", (65010,)),
            inject_external_route("A", "203.0.1.0/24", (65020,)),  # other path
        ]
        index = compute_route_ecs(model, inputs)
        assert len(index.classes) == 2

    def test_different_injection_router_splits(self):
        model = simple_model()
        inputs = [
            inject_external_route("A", "203.0.0.0/24", (65010,)),
            inject_external_route("B", "203.0.1.0/24", (65010,)),
        ]
        assert len(compute_route_ecs(model, inputs).classes) == 2

    def test_different_vrf_splits(self):
        model = simple_model()
        inputs = [
            inject_external_route("A", "203.0.0.0/24", (65010,)),
            inject_external_route("A", "203.0.1.0/24", (65010,), vrf="vrf1"),
        ]
        assert len(compute_route_ecs(model, inputs).classes) == 2

    def test_prefix_list_membership_splits(self):
        model = simple_model()
        # A prefix list on B distinguishes 203.0.0.0/24 from others.
        model.device("B").policy_ctx.define_prefix_list("SPECIAL").add(
            "203.0.0.0/24"
        )
        inputs = [
            inject_external_route("A", "203.0.0.0/24", (65010,)),
            inject_external_route("A", "203.0.1.0/24", (65010,)),
            inject_external_route("A", "203.0.2.0/24", (65010,)),
        ]
        index = compute_route_ecs(model, inputs)
        assert len(index.classes) == 2
        sizes = sorted(ec.size for ec in index.classes)
        assert sizes == [1, 2]

    def test_aggregate_trigger_splits(self):
        model = simple_model()
        model.device("A").add_aggregate("203.0.0.0/16")
        inputs = [
            inject_external_route("A", "203.0.1.0/24", (65010,)),  # triggers
            inject_external_route("A", "198.51.100.0/24", (65010,)),  # not
        ]
        assert len(compute_route_ecs(model, inputs).classes) == 2

    def test_exact_prefix_clause_splits(self):
        model = simple_model()
        policy = model.device("B").policy_ctx.define_policy("P")
        policy.node(10, "deny").match("prefix", Prefix.parse("203.0.1.0/24"))
        inputs = [
            inject_external_route("A", "203.0.1.0/24", (65010,)),
            inject_external_route("A", "203.0.2.0/24", (65010,)),
        ]
        assert len(compute_route_ecs(model, inputs).classes) == 2


class TestSoundness:
    def test_ec_simulation_matches_full_simulation(self):
        """Simulating representatives + expansion == simulating everything."""
        model = simple_model()
        model.device("B").policy_ctx.define_prefix_list("SPECIAL").add(
            "203.0.0.0/24"
        )
        imp = model.device("B").policy_ctx.define_policy("IMP")
        imp.node(10, "permit").match("prefix-list", "SPECIAL").set(
            "local-pref", 300
        )
        imp.node(20, "permit")
        model.device("B").peer_to("A").import_policy = "IMP"

        inputs = [
            inject_external_route("A", f"203.0.{i}.0/24", (65010,)) for i in range(6)
        ]

        # Full simulation (the simulator's own reduction off)
        with perfopts.configured(route_ecs=False):
            full = simulate_routes(model, inputs).global_rib(best_only=True)

            # EC-reduced simulation + expansion
            index = compute_prefix_group_ecs(model, inputs)
            assert len(index.classes) == 2  # SPECIAL vs the rest
            reduced = simulate_routes(
                model, index.representative_routes, include_connected=False
            )
        expand_device_ribs(index, reduced.device_ribs)

        loopback_prefixes = {
            Prefix.from_address(model.loopback_of(n)) for n in ("A", "B")
        }
        full_rows = {
            row.identity()
            for row in full
            if row.route.prefix not in loopback_prefixes
        }
        expanded_rows = {
            row.identity()
            for row in reduced.global_rib(best_only=True)
            if row.route.prefix not in loopback_prefixes
        }
        assert expanded_rows == full_rows

    def test_expand_keeps_foreign_prefix_rows_once(self):
        model = simple_model()
        inputs = [
            inject_external_route("A", "203.0.0.0/24", (65010,)),
            inject_external_route("A", "203.0.1.0/24", (65010,)),
        ]
        index = compute_prefix_group_ecs(model, inputs)
        (ec,) = index.classes
        rib = DeviceRib("A")
        rib.install(inputs[0].route.evolve(prefix=Prefix.parse("10.0.0.0/8")))
        rib.install(ec.representative_routes[0].route)
        expand_device_ribs(index, {"A": rib})
        prefixes = sorted(str(row.route.prefix) for row in rib.all_rows())
        assert prefixes == ["10.0.0.0/8", "203.0.0.0/24", "203.0.1.0/24"]


class TestReductionFactorEdgeCases:
    """Regression: an empty input set must report a 1.0 reduction factor.

    Callers divide measured durations by the factor; 0.0 (or a
    ZeroDivisionError) from the no-routes case would poison the Figure 5
    series for empty subtasks.
    """

    def test_empty_route_index_is_neutral(self):
        from repro.ec import RouteEcIndex

        index = RouteEcIndex(classes=[], total_routes=0)
        assert index.reduction_factor == 1.0

    def test_empty_group_index_is_neutral(self):
        from repro.ec import PrefixGroupEcIndex

        index = PrefixGroupEcIndex(classes=[], total_groups=0, total_routes=0)
        assert index.reduction_factor == 1.0

    def test_empty_inputs_through_compute(self):
        model = simple_model()
        index = compute_route_ecs(model, [])
        assert index.total_routes == 0
        assert index.reduction_factor == 1.0
