"""Tests for the change-verification pipeline and intents."""

import pytest

from repro.core import (
    ChangePlan,
    ChangeVerifier,
    FlowsAvoid,
    FlowsDelivered,
    FlowsMoved,
    FlowsTraverse,
    LinkLoadBelow,
    NoOverloadedLinks,
    PrefixReaches,
    RclIntent,
    remove_link,
)
from repro.core.intents import flows_to_prefix
from repro.exec import DistributedBackend
from repro.rcl.errors import RclParseError
from repro.routing.inputs import inject_external_route
from repro.traffic import make_flow

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"


def square_world():
    """A-B-D / A-C-D square with the prefix injected at D."""
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("B", "D", 10), ("A", "C", 20), ("C", "D", 20)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    inputs = [inject_external_route("D", PFX, (65010,))]
    flows = [
        make_flow("A", f"10.0.0.{i}", "203.0.113.9", src_port=i, volume=1e9)
        for i in range(4)
    ]
    return model, inputs, flows


class TestPipelineBasics:
    def test_passing_plan(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="noop-patch",
            change_type="os-patch",
            device_commands={"A": ["router isis"]},
            intents=[RclIntent("PRE = POST"), NoOverloadedLinks()],
        )
        report = verifier.verify(plan)
        assert report.ok
        assert "PASS" in report.summary()
        assert report.elapsed_seconds >= 0

    def test_route_change_detected_by_rcl(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="lp-bump",
            change_type="route-attributes-modification",
            device_commands={
                "A": [
                    "route-map FROM-D permit 10",
                    " set local-preference 333",
                    "router bgp 100",
                    " neighbor D route-map FROM-D in",
                ]
            },
            intents=[RclIntent("PRE = POST")],
        )
        report = verifier.verify(plan)
        assert not report.ok
        assert report.violated
        assert report.violated[0].counterexamples

    def test_base_world_cached(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        verifier.prepare_base()
        first = verifier.base_world
        assert verifier.base_world is first

    def test_distributed_mode_agrees_with_direct(self):
        model, inputs, flows = square_world()
        plan = ChangePlan(
            name="noop", change_type="os-patch",
            intents=[RclIntent("PRE = POST")],
        )
        direct = ChangeVerifier(model, inputs, flows).verify(plan)
        distributed = ChangeVerifier(
            model, inputs, flows, backend=DistributedBackend(route_subtasks=4)
        ).verify(plan)
        assert direct.ok == distributed.ok

    def test_invalid_rcl_fails_fast(self):
        with pytest.raises(RclParseError):
            RclIntent("PRE = ")


class TestReachabilityIntents:
    def test_prefix_reaches(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="announce",
            change_type="new-prefix-announcement",
            new_input_routes=[inject_external_route("D", "198.51.100.0/24", (65020,))],
            intents=[PrefixReaches("198.51.100.0/24", ["A", "B", "C"])],
        )
        assert verifier.verify(plan).ok

    def test_prefix_absent(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="reclaim-check",
            change_type="prefix-reclamation",
            intents=[PrefixReaches(PFX, ["A"], expect_present=False)],
        )
        report = verifier.verify(plan)
        assert not report.ok  # the prefix is still announced at D

    def test_counterexamples_name_devices(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="x", change_type="new-prefix-announcement",
            intents=[PrefixReaches("198.51.100.0/24", ["A"])],
        )
        report = verifier.verify(plan)
        assert "A" in report.violated[0].counterexamples[0]


class TestFlowIntents:
    def test_flows_traverse(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="check-path", change_type="pbr-modification",
            intents=[FlowsTraverse(flows_to_prefix(PFX), ["B"])],
        )
        assert verifier.verify(plan).ok  # B is on the cheap path

    def test_flows_avoid_violated(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="check-avoid", change_type="pbr-modification",
            intents=[FlowsAvoid(flows_to_prefix(PFX), "B")],
        )
        report = verifier.verify(plan)
        assert not report.ok
        assert "A-B-D" in report.violated[0].counterexamples[0]

    def test_flows_moved_by_topology_change(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="shift", change_type="topology-adjustment",
            topology_ops=[remove_link("B", "D")],
            intents=[
                FlowsMoved(
                    flows_to_prefix(PFX), from_path=["A", "B"], to_path=["A", "C"]
                )
            ],
        )
        assert verifier.verify(plan).ok

    def test_flows_moved_violated_without_change(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="no-shift", change_type="topology-adjustment",
            intents=[
                FlowsMoved(
                    flows_to_prefix(PFX), from_path=["A", "B"], to_path=["A", "C"]
                )
            ],
        )
        assert not verifier.verify(plan).ok

    def test_flows_delivered_and_blocked(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        ok_plan = ChangePlan(
            name="deliver", change_type="acl-modification",
            intents=[FlowsDelivered(flows_to_prefix(PFX))],
        )
        assert verifier.verify(ok_plan).ok
        block_plan = ChangePlan(
            name="block", change_type="acl-modification",
            device_commands={
                "B": [
                    f"access-list BLOCK 10 deny dst {PFX}",
                    "interface eth1",
                    " ip access-group BLOCK",
                ],
            },
            intents=[FlowsDelivered(flows_to_prefix(PFX), expect_ok=False)],
        )
        report = verifier.verify(block_plan)
        # eth1 is the A-B interface on B in this construction order.
        assert report.ok


class TestLoadIntents:
    def tiny_link_world(self):
        model = build_model(
            routers=[("A", 100), ("B", 100)], links=[("A", "B", 10)]
        )
        for link in model.topology.links:
            object.__setattr__(link.a, "bandwidth", 1e9)
            object.__setattr__(link.b, "bandwidth", 1e9)
        full_mesh_ibgp(model, ["A", "B"])
        inputs = [inject_external_route("B", PFX, (65010,))]
        flows = [make_flow("A", "10.0.0.1", "203.0.113.9", volume=2e9)]
        return model, inputs, flows

    def test_overload_detected(self):
        model, inputs, flows = self.tiny_link_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="check", change_type="traffic-steering",
            intents=[NoOverloadedLinks()],
        )
        report = verifier.verify(plan)
        assert not report.ok
        assert "utilization" in report.violated[0].counterexamples[0]

    def test_link_load_below(self):
        model, inputs, flows = self.tiny_link_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="check", change_type="traffic-steering",
            intents=[LinkLoadBelow("A", "B", 0.5)],
        )
        assert not verifier.verify(plan).ok
        relaxed = ChangePlan(
            name="check2", change_type="traffic-steering",
            intents=[LinkLoadBelow("A", "B", 5.0)],
        )
        assert verifier.verify(relaxed).ok
