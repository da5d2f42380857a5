"""Tests for segment routing tunnel resolution and the IGP-cost VSB."""

from repro.net.vendors import VENDOR_A, VENDOR_B
from repro.routing.inputs import inject_external_route
from repro.routing.isis import compute_igp
from repro.routing.simulator import simulate_routes
from repro.routing.sr import effective_igp_cost, first_tunnel_target
from repro.traffic import ForwardingEngine, make_flow

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"
DST = "203.0.113.9"


def diamond():
    """A - B - D and A - C - D with an extra A - D shortcut."""
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[
            ("A", "B", 10), ("B", "D", 10),
            ("A", "C", 10), ("C", "D", 10),
            ("A", "D", 15),
        ],
    )
    return model, compute_igp(model)


def square():
    """A - B - D (cost 20) and A - C - D (cost 25): the IGP goes via B."""
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("B", "D", 10), ("A", "C", 10), ("C", "D", 15)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    return model


def first_hops(model):
    """A's next routers for a flow to D's external prefix."""
    result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
    engine = ForwardingEngine(model, result.device_ribs, result.igp)
    kind, payload = engine.decision(make_flow("A", "10.0.0.1", DST), "A")
    assert kind == "hops"
    return payload[1]


class TestTunnelPath:
    """An SR policy steers forwarding towards its tunnel's first waypoint."""

    def test_direct_policy_follows_igp(self):
        model = square()
        model.device("A").add_sr_policy("P", endpoint="D")
        assert first_hops(model) == ["B"]

    def test_segments_force_waypoints(self):
        model = square()
        model.device("A").add_sr_policy("P", endpoint="D", segments=("C",))
        assert first_hops(model) == ["C"]

    def test_multiple_segments(self):
        # Only the first segment steers A's hop; the routers after it
        # resolve the BGP next hop on their own.
        model = square()
        policy = model.device("A").add_sr_policy(
            "P", endpoint="D", segments=("C", "B")
        )
        assert first_tunnel_target("A", policy) == "C"
        assert first_hops(model) == ["C"]

    def test_unreachable_leg_returns_none(self):
        # The first waypoint is down: forwarding takes the plain IGP hops.
        model = square()
        model.topology.fail_router("C")
        model.device("A").add_sr_policy("P", endpoint="D", segments=("C",))
        assert first_hops(model) == ["B"]

    def test_segment_equal_to_source_skipped(self):
        model = square()
        policy = model.device("A").add_sr_policy(
            "P", endpoint="D", segments=("A", "C")
        )
        assert first_tunnel_target("A", policy) == "C"
        assert first_hops(model) == ["C"]

    def test_first_tunnel_hops(self):
        model, igp = diamond()
        policy = model.device("A").add_sr_policy("P", endpoint="D", segments=("C",))
        assert first_tunnel_target("A", policy) == "C"
        assert igp.hops_towards("A", "C") == ("C",)


class TestEffectiveIgpCost:
    def test_no_policy_keeps_cost(self):
        model, _ = diamond()
        device = model.device("A")
        assert effective_igp_cost(device, "D", 15.0) == 15.0

    def test_vendor_a_zeroes_cost(self):
        model, _ = diamond()
        device = model.device("A")
        device.add_sr_policy("P", endpoint="D")
        device.set_vendor_profile(VENDOR_A)
        assert effective_igp_cost(device, "D", 15.0) == 0.0

    def test_vendor_b_keeps_cost(self):
        model, _ = diamond()
        device = model.device("A")
        device.add_sr_policy("P", endpoint="D")
        device.set_vendor_profile(VENDOR_B)
        assert effective_igp_cost(device, "D", 15.0) == 15.0

    def test_policy_to_other_endpoint_irrelevant(self):
        model, _ = diamond()
        device = model.device("A")
        device.add_sr_policy("P", endpoint="B")
        device.set_vendor_profile(VENDOR_A)
        assert effective_igp_cost(device, "D", 15.0) == 15.0

    def test_none_owner_keeps_cost(self):
        model, _ = diamond()
        device = model.device("A")
        assert effective_igp_cost(device, None, 7.0) == 7.0
