"""The data-plane fast path is semantically transparent.

The spread memo and the topology indices must produce
byte-identical forwarding results — same paths in the same order, same
matched prefixes, same fractions, same link loads — as the interpreted
scans they replace, across ECMP, PBR, ACL, SR, and pathological (loop /
stranded) scenarios.
"""

import pytest

from repro import perfopts
from repro.net.addr import Prefix
from repro.net.device import AclConfig, AclRuleConfig, PbrRuleConfig
from repro.obs import RunContext
from repro.routing.inputs import inject_external_route
from repro.routing.simulator import simulate_routes
from repro.traffic import ForwardingEngine, TrafficSimulator, make_flow
from repro.workload import WanParams, generate_flows, generate_input_routes, generate_wan

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"
DST = "203.0.113.9"

FASTPATH_OFF = dict(topo_index=False, spread_memo=False)


def snap(spread):
    """Order-preserving byte-comparable snapshot of a spread result."""
    return [
        (tuple(p.routers), p.status, tuple(p.matched_prefixes), p.detail, f)
        for p, f in spread
    ]


def square_model():
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("A", "C", 10), ("B", "D", 10), ("C", "D", 10)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    return model


def ecmp_scenario():
    model = square_model()
    return model, [inject_external_route("D", PFX, (65010,))]


def acl_scenario():
    model = square_model()
    acl = AclConfig(name="EDGE")
    acl.add(
        AclRuleConfig(seq=10, action="deny", dst_prefix=Prefix.parse(PFX))
    )
    acl.add(AclRuleConfig(seq=20, action="permit"))
    device_b = model.device("B")
    device_b.add_acl(acl)
    link = model.topology.find_link("A", "B")
    device_b.bind_acl(link.interface_on("B").name, "EDGE")
    return model, [inject_external_route("D", PFX, (65010,))]


def pbr_scenario():
    model = square_model()
    model.device("A").add_pbr_rule(
        PbrRuleConfig(seq=10, nexthop="C", dst_prefix=Prefix.parse(PFX))
    )
    return model, [inject_external_route("D", PFX, (65010,))]


def sr_scenario():
    model = square_model()
    model.device("A").add_sr_policy("VIA-C", endpoint="D", segments=("C",))
    return model, [inject_external_route("D", PFX, (65010,))]


def loop_scenario():
    model = build_model(routers=[("A", 100), ("B", 100)], links=[("A", "B", 10)])
    model.device("A").add_static("9.9.9.0/24", str(model.loopback_of("B")))
    model.device("B").add_static("9.9.9.0/24", str(model.loopback_of("A")))
    return model, []


SCENARIOS = {
    "ecmp": ecmp_scenario,
    "acl": acl_scenario,
    "pbr": pbr_scenario,
    "sr": sr_scenario,
    "loop": loop_scenario,
}


def scenario_flows():
    flows = [
        make_flow("A", f"10.0.{i}.1", DST, src_port=1000 + i, volume=7.0)
        for i in range(24)
    ]
    flows += [make_flow("A", "10.0.0.1", "9.9.9.9", src_port=5)]
    return flows


class TestFlagTransparency:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_spread_identical_flags_on_off(self, name):
        model, inputs = SCENARIOS[name]()
        result = simulate_routes(model, inputs)
        flows = scenario_flows()
        fast = ForwardingEngine(model, result.device_ribs, result.igp)
        on = [snap(fast.forward_spread(f)) for f in flows]
        with perfopts.configured(**FASTPATH_OFF):
            slow = ForwardingEngine(model, result.device_ribs, result.igp)
            off = [snap(slow.forward_spread(f)) for f in flows]
        assert on == off

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_forward_identical_flags_on_off(self, name):
        """Every router's per-hop decision, answered fresh and from the memo."""
        model, inputs = SCENARIOS[name]()
        result = simulate_routes(model, inputs)
        flows = scenario_flows()
        routers = sorted(model.devices)
        with perfopts.configured(topo_index=True, spread_memo=True):
            fast = ForwardingEngine(model, result.device_ribs, result.igp)
            on = [
                fast.decision(f, r) for _ in range(2) for f in flows for r in routers
            ]
        assert fast.stats.memo_hits and fast.stats.memo_misses
        with perfopts.configured(**FASTPATH_OFF):
            slow = ForwardingEngine(model, result.device_ribs, result.igp)
            off = [
                slow.decision(f, r) for _ in range(2) for f in flows for r in routers
            ]
        assert on == off

    def test_wan_simulation_identical_flags_on_off(self):
        model, inventory = generate_wan(WanParams(regions=2, cores_per_region=2, seed=3))
        routes = generate_input_routes(inventory, n_prefixes=30, redundancy=2, seed=5)
        flows = generate_flows(inventory, routes, n_flows=150, seed=9)
        result = simulate_routes(model, routes, include_local_inputs=True)
        fast = TrafficSimulator(model, result.device_ribs, result.igp).simulate(flows)
        with perfopts.configured(**FASTPATH_OFF):
            slow = TrafficSimulator(model, result.device_ribs, result.igp).simulate(flows)
        assert {f: snap(s) for f, s in fast.paths.items()} == {
            f: snap(s) for f, s in slow.paths.items()
        }
        assert fast.loads.loads == slow.loads.loads
        assert fast.loads.total() == slow.loads.total()


class TestFastPathMechanics:
    @pytest.fixture(autouse=True)
    def memo_on(self):
        """These tests assert the spread memo's own counters."""
        with perfopts.configured(spread_memo=True):
            yield

    def test_memo_counters_populate(self):
        model, inputs = ecmp_scenario()
        result = simulate_routes(model, inputs)
        engine = ForwardingEngine(model, result.device_ribs, result.igp)
        flow = make_flow("A", "10.0.0.1", DST, src_port=1)
        engine.forward_spread(flow)
        assert engine.stats.memo_misses > 0
        # Same EC signature again: every branch decision is a memo hit.
        misses = engine.stats.memo_misses
        engine.forward_spread(make_flow("A", "10.0.0.1", DST, src_port=2))
        assert engine.stats.memo_hits > 0
        assert engine.stats.memo_misses == misses

    def test_as_counters_namespaced(self):
        model, inputs = ecmp_scenario()
        result = simulate_routes(model, inputs)
        engine = ForwardingEngine(model, result.device_ribs, result.igp)
        engine.forward_spread(make_flow("A", "10.0.0.1", DST))
        counters = engine.stats.as_counters()
        assert all(name.startswith("traffic.") for name in counters)
        assert counters["traffic.spread_memo_misses"] > 0

    def test_simulator_records_spans_and_counters(self):
        model, inputs = ecmp_scenario()
        result = simulate_routes(model, inputs)
        ctx = RunContext("traffic-test")
        sim = TrafficSimulator(model, result.device_ribs, result.igp)
        sim.simulate(scenario_flows(), ctx=ctx)
        names = {span.name for span in ctx.root.walk()}
        assert {"traffic.compile", "traffic.forward", "traffic.merge"} <= names
        all_counters = {}
        for span in ctx.root.walk():
            all_counters.update(span.counters)
        assert all_counters.get("traffic.spread_memo_misses", 0) > 0
