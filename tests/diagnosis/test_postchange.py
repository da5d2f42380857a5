"""Tests for post-change validation (§6.2)."""

from repro.diagnosis import validate_post_change
from repro.net.vendors import VENDOR_A, mismodel
from repro.routing.inputs import inject_external_route
from repro.routing.simulator import simulate_routes

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"


def build(vendor_profile=None):
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100)],
        links=[("A", "B", 10), ("A", "C", 10)],
        vendor="vendor-a",
    )
    full_mesh_ibgp(model, ["A", "B", "C"])
    model.device("A").add_sr_policy("TO-B", endpoint="B")
    if vendor_profile is not None:
        model.device("A").set_vendor_profile(vendor_profile)
    return model


def inputs():
    return [
        inject_external_route("B", PFX, (65010,)),
        inject_external_route("C", PFX, (65010,)),
    ]


class TestPostChangeValidation:
    def test_consistent_when_vendor_behaves(self):
        expected = build()
        live = simulate_routes(build(), inputs())
        verdict = validate_post_change(expected, inputs(), live.device_ribs)
        assert verdict.consistent
        assert "keep" in verdict.recommendation
        assert "CONSISTENT" in verdict.summary()

    def test_inconsistent_vendor_bug_triggers_rollback(self):
        # The executed network behaves per the *mismodelled* profile — i.e.
        # the new vendor's gear has an implementation quirk Hoyan's expected
        # model does not predict.
        expected = build()
        buggy_live = simulate_routes(
            build(mismodel(VENDOR_A, "sr_tunnel_zeroes_igp_cost")), inputs()
        )
        verdict = validate_post_change(expected, inputs(), buggy_live.device_ribs)
        assert not verdict.consistent
        assert "roll back" in verdict.recommendation
        assert verdict.report.route_discrepancies

    def test_time_budget_exceeded_flagged(self):
        expected = build()
        live = simulate_routes(build(), inputs())
        verdict = validate_post_change(
            expected, inputs(), live.device_ribs, time_budget_seconds=0.0
        )
        assert "too slow" in verdict.recommendation
