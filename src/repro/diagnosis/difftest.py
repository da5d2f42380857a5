"""Differential testing for vendor-specific behaviours (§7's proposed
automatic testing framework, applied to the Table-5 catalog).

For every modelled VSB knob there is a micro-scenario whose *observable
outcome* (installed routes, attributes, ECMP sizes) is sensitive to exactly
that knob. Running the same scenario under two vendor profiles — e.g. the
real vendor vs Hoyan's (mis)model of it — and comparing observables detects
the behaviour difference, which is how the Table-5 rows are "discovered" in
the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.net.addr import IPAddress, Prefix
from repro.net.device import BgpPeerConfig, DeviceConfig, VrfConfig
from repro.net.model import NetworkModel
from repro.net.topology import Router
from repro.net.vendors import VSB_KNOBS, VendorProfile, mismodel
from repro.routing.inputs import (
    InputRoute,
    build_local_input_routes,
    inject_external_route,
)
from repro.routing.simulator import simulate_routes

PFX = "203.0.113.0/24"
Observable = Tuple
Scenario = Callable[[VendorProfile], Observable]


def _two_as_model(profile: VendorProfile) -> NetworkModel:
    """A (AS 100, under test) receiving from external E (AS 200)."""
    model = NetworkModel()
    for index, (name, asn) in enumerate((("A", 100), ("E", 200)), start=1):
        model.topology.add_router(Router(name=name, asn=asn))
        device = DeviceConfig(name, asn=asn)
        model.add_device(device, loopback=IPAddress.parse(f"10.255.9.{index}"))
    model.topology.connect("A", "E", igp_cost=10)
    model.device("A").add_peer(BgpPeerConfig(peer="E", remote_asn=200))
    model.device("E").add_peer(BgpPeerConfig(peer="A", remote_asn=100))
    model.device("A").set_vendor_profile(profile)
    return model


def _ibgp_pair(profile: VendorProfile, device_under_test: str = "A") -> NetworkModel:
    model = NetworkModel()
    for index, name in enumerate(("A", "B"), start=1):
        model.topology.add_router(Router(name=name, asn=100))
        device = DeviceConfig(name, asn=100)
        model.add_device(device, loopback=IPAddress.parse(f"10.255.8.{index}"))
    model.topology.connect("A", "B", igp_cost=10)
    model.device("A").add_peer(BgpPeerConfig(peer="B", remote_asn=100))
    model.device("B").add_peer(BgpPeerConfig(peer="A", remote_asn=100))
    model.device(device_under_test).set_vendor_profile(profile)
    return model


def _best(result, device, prefix=PFX, vrf="global"):
    return result.device_ribs[device].routes_for(Prefix.parse(prefix), vrf)


# --- one scenario per knob ----------------------------------------------------


def scenario_missing_policy(profile: VendorProfile) -> Observable:
    model = _two_as_model(profile)
    result = simulate_routes(model, [inject_external_route("E", PFX, (65010,))])
    return ("accepted", bool(_best(result, "A")))


def scenario_undefined_policy(profile: VendorProfile) -> Observable:
    model = _two_as_model(profile)
    model.device("A").peer_to("E").import_policy = "GHOST"
    result = simulate_routes(model, [inject_external_route("E", PFX, (65010,))])
    return ("accepted", bool(_best(result, "A")))


def scenario_default_policy(profile: VendorProfile) -> Observable:
    model = _two_as_model(profile)
    ctx = model.device("A").policy_ctx
    ctx.define_policy("IMP").node(10, "permit").match("community", "9:9")
    model.device("A").peer_to("E").import_policy = "IMP"
    result = simulate_routes(model, [inject_external_route("E", PFX, (65010,))])
    return ("accepted", bool(_best(result, "A")))


def scenario_undefined_filter(profile: VendorProfile) -> Observable:
    model = _two_as_model(profile)
    ctx = model.device("A").policy_ctx
    policy = ctx.define_policy("IMP")
    policy.node(10, "permit").match("prefix-list", "GHOST").set("local-pref", 300)
    policy.node(20, "deny")
    model.device("A").peer_to("E").import_policy = "IMP"
    result = simulate_routes(model, [inject_external_route("E", PFX, (65010,))])
    routes = _best(result, "A")
    return ("accepted", bool(routes), routes[0].local_pref if routes else None)


def scenario_implicit_action(profile: VendorProfile) -> Observable:
    model = _two_as_model(profile)
    model.device("A").policy_ctx.define_policy("IMP").node(10, None)
    model.device("A").peer_to("E").import_policy = "IMP"
    result = simulate_routes(model, [inject_external_route("E", PFX, (65010,))])
    return ("accepted", bool(_best(result, "A")))


def scenario_default_preference(profile: VendorProfile) -> Observable:
    model = _two_as_model(profile)
    result = simulate_routes(model, [inject_external_route("E", PFX, (65010,))])
    routes = _best(result, "A")
    if not routes:
        # Vendors that deny on missing policy need a permit-all to observe
        # the preference default.
        model = _two_as_model(profile)
        model.device("A").policy_ctx.define_policy("PASS").node(10, "permit")
        model.device("A").peer_to("E").import_policy = "PASS"
        result = simulate_routes(model, [inject_external_route("E", PFX, (65010,))])
        routes = _best(result, "A")
    return ("preference", routes[0].preference if routes else None)


def scenario_redistribution_weight(profile: VendorProfile) -> Observable:
    model = _ibgp_pair(profile)
    model.device("A").add_redistribution("direct")
    inputs = build_local_input_routes(model)
    weights = sorted({i.route.weight for i in inputs if i.router == "A"})
    return ("weights", tuple(weights))


def scenario_aspath_overwrite(profile: VendorProfile) -> Observable:
    model = _two_as_model(profile)
    ctx = model.device("A").policy_ctx
    ctx.define_policy("EXP").node(10, "permit").set("aspath-set", (65099,))
    model.device("A").peer_to("E").export_policy = "EXP"
    model.device("E").policy_ctx.define_policy("PASS").node(10, "permit")
    model.device("E").peer_to("A").import_policy = "PASS"
    result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
    routes = _best(result, "E")
    return ("aspath", routes[0].as_path if routes else None)


def scenario_aggregate_common_aspath(profile: VendorProfile) -> Observable:
    model = _ibgp_pair(profile)
    model.device("A").add_aggregate("10.0.0.0/8")
    inputs = [
        inject_external_route("A", "10.1.0.0/16", (65010, 7)),
        inject_external_route("A", "10.2.0.0/16", (65010, 8)),
    ]
    result = simulate_routes(model, inputs)
    agg = _best(result, "A", "10.0.0.0/8")
    return ("agg-aspath", agg[0].as_path if agg else None)


def scenario_vrf_export_on_leaked_global(profile: VendorProfile) -> Observable:
    model = NetworkModel()
    model.topology.add_router(Router(name="A", asn=100))
    device = DeviceConfig("A", asn=100)
    model.add_device(device, loopback=IPAddress.parse("10.255.7.1"))
    device.set_vendor_profile(profile)
    device.vrfs["global"].export_rts = {"1:1"}
    device.add_vrf(VrfConfig(name="vpn", import_rts={"1:1"}, export_policy="BLOCK"))
    device.policy_ctx.define_policy("BLOCK").node(10, "deny")
    result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
    return ("leaked", bool(_best(result, "A", vrf="vpn")))


def scenario_releak_by_rt(profile: VendorProfile) -> Observable:
    model = NetworkModel()
    model.topology.add_router(Router(name="A", asn=100))
    device = DeviceConfig("A", asn=100)
    model.add_device(device, loopback=IPAddress.parse("10.255.7.2"))
    device.set_vendor_profile(profile)
    device.add_vrf(VrfConfig(name="vrf1", export_rts={"1:1"}))
    device.add_vrf(VrfConfig(name="vrf2", import_rts={"1:1"}, export_rts={"2:2"}))
    device.add_vrf(VrfConfig(name="vrf3", import_rts={"2:2"}))
    inp = inject_external_route("A", PFX, (65010,), vrf="vrf1")
    result = simulate_routes(model, [inp])
    return ("releaked", bool(_best(result, "A", vrf="vrf3")))


def _slash32_model(profile: VendorProfile) -> NetworkModel:
    model = _ibgp_pair(profile)
    model.topology.connect("A", "B", a_addr="192.0.2.0", b_addr="192.0.2.1")
    model.device("A").add_redistribution("direct")
    return model


def scenario_redistribute_slash32(profile: VendorProfile) -> Observable:
    model = _slash32_model(profile)
    inputs = build_local_input_routes(model)
    return (
        "slash32-redistributed",
        any(str(i.route.prefix) == "192.0.2.0/32" for i in inputs),
    )


def scenario_send_slash32(profile: VendorProfile) -> Observable:
    # Table 5's footnote: the send-to-peer behaviour is only observable "if
    # redistribution is permitted", so pin the redistribution knob on.
    from dataclasses import replace

    pinned = replace(profile, redistributes_direct_slash32=True)
    model = _slash32_model(pinned)
    result = simulate_routes(model)
    return ("slash32-at-peer", bool(_best(result, "B", "192.0.2.0/32")))


def scenario_sr_igp_cost(profile: VendorProfile) -> Observable:
    model = NetworkModel()
    for index, name in enumerate(("A", "B", "C"), start=1):
        model.topology.add_router(Router(name=name, asn=100))
        device = DeviceConfig(name, asn=100)
        model.add_device(device, loopback=IPAddress.parse(f"10.255.6.{index}"))
    model.topology.connect("A", "B", igp_cost=10)
    model.topology.connect("A", "C", igp_cost=10)
    for a in ("A", "B", "C"):
        for b in ("A", "B", "C"):
            if a != b:
                model.device(a).add_peer(BgpPeerConfig(peer=b, remote_asn=100))
    model.device("A").set_vendor_profile(profile)
    model.device("A").add_sr_policy("TO-B", endpoint="B")
    inputs = [
        inject_external_route("B", PFX, (65010,)),
        inject_external_route("C", PFX, (65010,)),
    ]
    result = simulate_routes(model, inputs)
    return ("ecmp-size", len(_best(result, "A")))


def scenario_subview_inheritance(profile: VendorProfile) -> Observable:
    model = NetworkModel()
    model.topology.add_router(Router(name="A", asn=100))
    device = DeviceConfig("A", asn=100)
    model.add_device(device, loopback=IPAddress.parse("10.255.5.1"))
    device.set_vendor_profile(profile)
    device.add_vrf(VrfConfig(name="vrf1"))
    inputs = [
        InputRoute(
            "A", "vrf1",
            inject_external_route("A", PFX, (65010,), vrf="vrf1").route.evolve(
                nexthop=IPAddress.parse(f"10.255.5.{i}")
            ),
        )
        for i in (2, 3)
    ]
    result = simulate_routes(model, inputs)
    return ("vrf-multipath", len(_best(result, "A", vrf="vrf1")))


def scenario_isolation(profile: VendorProfile) -> Observable:
    # A -- M -- B, M is the RR in the middle and is isolated.
    model = NetworkModel()
    for index, name in enumerate(("A", "M", "B"), start=1):
        model.topology.add_router(Router(name=name, asn=100))
        device = DeviceConfig(name, asn=100)
        model.add_device(device, loopback=IPAddress.parse(f"10.255.4.{index}"))
    model.topology.connect("A", "M", igp_cost=10)
    model.topology.connect("M", "B", igp_cost=10)
    for spoke in ("A", "B"):
        model.device("M").add_peer(
            BgpPeerConfig(peer=spoke, remote_asn=100, route_reflector_client=True)
        )
        model.device(spoke).add_peer(BgpPeerConfig(peer="M", remote_asn=100))
    model.device("M").set_vendor_profile(profile)
    model.device("M").isolated = True
    result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
    return ("m-learns", bool(_best(result, "M")), "b-learns", bool(_best(result, "B")))


def scenario_ip_prefix_ipv6(profile: VendorProfile) -> Observable:
    model = _two_as_model(profile)
    ctx = model.device("A").policy_ctx
    ctx.define_prefix_list("V4ONLY", family=4).add("10.0.0.0/8", le=32)
    policy = ctx.define_policy("IMP")
    policy.node(10, "permit").match("prefix-list", "V4ONLY")
    policy.node(20, "deny")
    model.device("A").peer_to("E").import_policy = "IMP"
    inp = inject_external_route("E", "2001:db8::/32", (65010,))
    result = simulate_routes(model, [inp])
    return ("v6-accepted", bool(_best(result, "A", "2001:db8::/32")))


SCENARIOS: Dict[str, Scenario] = {
    "missing_policy_accepts": scenario_missing_policy,
    "undefined_policy_accepts": scenario_undefined_policy,
    "default_policy_accepts": scenario_default_policy,
    "undefined_filter_matches": scenario_undefined_filter,
    "implicit_action_permits": scenario_implicit_action,
    "default_bgp_preference": scenario_default_preference,
    "redistribution_weight": scenario_redistribution_weight,
    "adds_own_asn_after_overwrite": scenario_aspath_overwrite,
    "aggregate_keeps_common_aspath": scenario_aggregate_common_aspath,
    "vrf_export_applies_to_leaked_global": scenario_vrf_export_on_leaked_global,
    "releaks_vpn_routes_by_rt": scenario_releak_by_rt,
    "redistributes_direct_slash32": scenario_redistribute_slash32,
    "sends_direct_slash32_to_peer": scenario_send_slash32,
    "sr_tunnel_zeroes_igp_cost": scenario_sr_igp_cost,
    "subview_inherits_options": scenario_subview_inheritance,
    "isolation_via_policy": scenario_isolation,
    "ip_prefix_permits_ipv6": scenario_ip_prefix_ipv6,
}


@dataclass(frozen=True)
class VsbDetection:
    """Outcome of one knob's differential test."""

    knob: str
    observable_a: Observable
    observable_b: Observable

    @property
    def detected(self) -> bool:
        return self.observable_a != self.observable_b


def detect_vsbs(
    profile_a: VendorProfile, profile_b: VendorProfile
) -> List[VsbDetection]:
    """Run every scenario under both profiles and compare observables."""
    detections = []
    for knob in VSB_KNOBS:
        scenario = SCENARIOS[knob]
        detections.append(
            VsbDetection(
                knob=knob,
                observable_a=scenario(profile_a),
                observable_b=scenario(profile_b),
            )
        )
    return detections


def detect_against_mismodel(profile: VendorProfile) -> List[VsbDetection]:
    """For each knob, test the profile against its own mismodelled copy.

    This is the Table-5 discovery framing: Hoyan's (wrong) model of a
    vendor vs the vendor's actual behaviour, one behaviour at a time.
    """
    detections = []
    for knob in VSB_KNOBS:
        scenario = SCENARIOS[knob]
        detections.append(
            VsbDetection(
                knob=knob,
                observable_a=scenario(profile),
                observable_b=scenario(mismodel(profile, knob)),
            )
        )
    return detections
