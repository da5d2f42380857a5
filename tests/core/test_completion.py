"""Tests for intent-completeness heuristics (§7)."""

from repro.core import (
    ChangePlan,
    ChangeVerifier,
    NoOverloadedLinks,
    RclIntent,
    add_no_change_guard,
    completeness_warnings,
    no_change_spec,
)
from repro.core.completion import touched_scope
from repro.rcl import parse
from repro.routing.inputs import inject_external_route

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"


def make_plan(intents, commands=None, change_type="route-attributes-modification"):
    return ChangePlan(
        name="p", change_type=change_type,
        device_commands=commands or {},
        intents=intents,
    )


class TestScopeExtraction:
    def test_field_equality_and_in(self):
        plan = make_plan([
            RclIntent(f"prefix = {PFX} => POST |> count() >= 1"),
            RclIntent("forall device in {R1, R2}: PRE = POST"),
        ])
        scope = touched_scope(plan)
        assert ("prefix", PFX) in scope
        assert ("device", "R1") in scope and ("device", "R2") in scope

    def test_contains(self):
        plan = make_plan([
            RclIntent("communities contains 100:1 => POST |> count() = 0")
        ])
        assert ("communities", "100:1") in touched_scope(plan)

    def test_commands_imply_device_scope(self):
        plan = make_plan([], commands={"B1": ["router isis"]})
        assert ("device", "B1") in touched_scope(plan)


class TestNoChangeSpec:
    def test_spec_shape(self):
        plan = make_plan(
            [RclIntent(f"prefix = {PFX} => POST |> distVals(localPref) = {{300}}")]
        )
        spec = no_change_spec(plan)
        assert spec is not None
        assert spec.endswith("PRE = POST")
        parse(spec)  # must be valid RCL

    def test_no_scope_no_spec(self):
        plan = make_plan([RclIntent("POST |> count() >= 1")])
        assert no_change_spec(plan) is None

    def test_guard_is_appended(self):
        plan = make_plan(
            [RclIntent(f"prefix = {PFX} => POST |> distVals(localPref) = {{300}}")]
        )
        augmented = add_no_change_guard(plan)
        assert len(augmented.intents) == len(plan.intents) + 1
        assert "PRE = POST" in augmented.intents[-1].spec

    def test_idempotent(self):
        plan = make_plan([RclIntent(f"prefix != {PFX} => PRE = POST")])
        assert add_no_change_guard(plan) is plan

    def test_augmented_plan_catches_the_paper_incident(self):
        """The §7 story: effects verified, collateral change missed —
        until the default no-change guard is added."""
        model = build_model(
            routers=[("A", 100), ("B", 100)], links=[("A", "B", 10)]
        )
        full_mesh_ibgp(model, ["A", "B"])
        inputs = [
            inject_external_route("A", PFX, (65010,)),
            inject_external_route("A", "198.51.100.0/24", (65010,)),
        ]
        verifier = ChangeVerifier(model, inputs)
        # The change raises local-pref for EVERYTHING (overly broad match),
        # but the operator only specified the intended prefix's effect.
        plan = ChangePlan(
            name="incident", change_type="route-attributes-modification",
            device_commands={
                "B": [
                    "route-map FROM-A permit 10",
                    " set local-preference 300",
                    "router bgp 100",
                    " neighbor A route-map FROM-A in",
                ]
            },
            intents=[
                RclIntent(
                    f"device = B and prefix = {PFX} => "
                    "POST |> distVals(localPref) = {300}"
                )
            ],
        )
        incomplete = verifier.verify(plan)
        assert incomplete.ok  # passes — the incident

        augmented = add_no_change_guard(plan)
        complete = verifier.verify(augmented)
        assert not complete.ok  # the collateral change is caught
        assert any(
            "198.51.100" in example
            for result in complete.violated
            for example in result.counterexamples
        )


class TestWarnings:
    def test_starred_type_without_rcl(self):
        plan = make_plan([NoOverloadedLinks()], change_type="os-upgrade")
        warnings = completeness_warnings(plan)
        assert any("starred" in w for w in warnings)

    def test_missing_no_change_component(self):
        plan = make_plan([RclIntent(f"prefix = {PFX} => POST |> count() = 1")])
        assert any("others do not change" in w for w in completeness_warnings(plan))

    def test_steering_without_load_intent(self):
        plan = make_plan(
            [RclIntent("PRE = POST")], change_type="traffic-steering"
        )
        assert any("traffic-load" in w for w in completeness_warnings(plan))

    def test_empty_plan(self):
        plan = make_plan([], change_type="os-patch")
        assert any("no intents" in w for w in completeness_warnings(plan))

    def test_complete_plan_is_clean(self):
        plan = make_plan(
            [
                RclIntent(f"prefix = {PFX} => POST |> count() = 1"),
                RclIntent(f"not prefix = {PFX} => PRE = POST"),
                NoOverloadedLinks(),
            ],
            change_type="traffic-steering",
        )
        assert completeness_warnings(plan) == []
