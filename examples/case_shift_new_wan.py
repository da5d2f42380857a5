#!/usr/bin/env python3
"""Case study: shifting traffic to the new WAN (Figure 10(a)).

Operators shift traffic for 1.0.0.0/24 from the old WAN (router A) to the
new WAN (router B) by deleting policy node 10 (deny-all from B) on M1 and
M2. A latent misconfiguration — M1's pre-installed policy is missing node
20, the permit for route R — makes the change dangerous:

* M1 never installs route R (its policy now matches nothing and the vendor
  denies by default);
* A won't re-advertise R to M1 (M1 and M2 share an AS: loop prevention);
* M1 falls back to its 1.0.0.0/8 default via A, so its traffic takes
  M1 -> A -> M2 -> B, overloading link A-M2.

Hoyan detects both violations before the change is executed.

Run: python examples/case_shift_new_wan.py
"""

from repro.core import (
    ChangePlan,
    ChangeVerifier,
    FlowsTraverse,
    NoOverloadedLinks,
    RclIntent,
)
from repro.core.intents import flows_to_prefix
from repro.net.addr import IPAddress
from repro.net.device import BgpPeerConfig, DeviceConfig
from repro.net.model import NetworkModel
from repro.net.topology import Router
from repro.routing.inputs import inject_external_route
from repro.traffic import make_flow

METRO_AS, OLD_WAN_AS, NEW_WAN_AS = 100, 200, 300
TARGET = "1.0.0.0/24"
DEFAULT = "1.0.0.0/8"


def build_network() -> NetworkModel:
    model = NetworkModel()
    routers = [("M1", METRO_AS), ("M2", METRO_AS), ("A", OLD_WAN_AS), ("B", NEW_WAN_AS)]
    for index, (name, asn) in enumerate(routers, start=1):
        model.topology.add_router(Router(name=name, asn=asn, vendor="vendor-a"))
        model.add_device(
            DeviceConfig(name, vendor="vendor-a", asn=asn),
            loopback=IPAddress.parse(f"10.255.0.{index}"),
        )
    # Old-WAN links are 100G; the next-generation WAN links are 400G —
    # shifting is safe only if the traffic actually lands on them.
    for a, b in (("M1", "A"), ("M2", "A")):
        model.topology.connect(a, b, igp_cost=10, bandwidth=100e9)
    for a, b in (("M1", "B"), ("M2", "B")):
        model.topology.connect(a, b, igp_cost=10, bandwidth=400e9)

    def peer(x: str, y: str) -> None:
        model.device(x).add_peer(BgpPeerConfig(peer=y, remote_asn=model.device(y).asn))
        model.device(y).add_peer(BgpPeerConfig(peer=x, remote_asn=model.device(x).asn))

    for pair in (("M1", "A"), ("M2", "A"), ("M1", "B"), ("M2", "B")):
        peer(*pair)

    # Pre-installed ingress policy towards B: node 10 denies everything,
    # node 20 permits route R with high preference. M1 is MISSING node 20 —
    # the latent misconfiguration of the case study.
    for name, has_node20 in (("M1", False), ("M2", True)):
        ctx = model.device(name).policy_ctx
        ctx.define_prefix_list("NEWWAN-R").add(TARGET)
        policy = ctx.define_policy("FROM-B")
        policy.node(10, "deny")
        if has_node20:
            node = policy.node(20, "permit")
            node.match("prefix-list", "NEWWAN-R")
            node.set("local-pref", 500)
        model.device(name).peer_to("B").import_policy = "FROM-B"
    return model


def inputs():
    return [
        # The old WAN advertises the covering default.
        inject_external_route("A", DEFAULT, (OLD_WAN_AS + 9,)),
        # Route R: the target prefix via the new WAN.
        inject_external_route("B", TARGET, (NEW_WAN_AS + 9,)),
    ]


def flows():
    # M1 carries the bulk of the DC's traffic (120 Gb/s); M2 a trickle.
    heavy = [
        make_flow("M1", f"172.16.{i}.1", "1.0.0.5", src_port=i, volume=30e9)
        for i in range(4)
    ]
    light = [
        make_flow("M2", f"172.17.{i}.1", "1.0.0.5", src_port=i, volume=5e9)
        for i in range(4)
    ]
    return heavy + light


def change_plan() -> ChangePlan:
    return ChangePlan(
        name="shift-traffic-to-new-wan",
        change_type="traffic-steering",
        description="delete deny node 10 so route R from B is used",
        device_commands={
            "M1": ["no route-map FROM-B deny 10"],
            "M2": ["no route-map FROM-B deny 10"],
        },
        intents=[
            # (1) Route R installed as best on both M1 and M2.
            RclIntent(
                "forall device in {M1, M2}: "
                f"POST || prefix = {TARGET} |> count() >= 1"
            ),
            # (2) Traffic successfully shifts to B...
            FlowsTraverse(
                flows_to_prefix(TARGET), ["B"],
                label="traffic to 1.0.0.0/24 exits via the new WAN (B)",
            ),
            # ...without overloading any link.
            NoOverloadedLinks(threshold=1.0),
        ],
    )


def main() -> None:
    model = build_network()
    verifier = ChangeVerifier(model, inputs(), flows())

    print("=== verifying the planned change (latent misconfig on M1) ===")
    report = verifier.verify(change_plan())
    print(report.summary())
    assert not report.ok, "Hoyan must detect this risk"

    print("\n=== after fixing M1's policy (adding the missing node 20) ===")
    fixed = build_network()
    ctx = fixed.device("M1").policy_ctx
    node = ctx.policies["FROM-B"].node(20, "permit")
    node.match("prefix-list", "NEWWAN-R")
    node.set("local-pref", 500)
    fixed_verifier = ChangeVerifier(fixed, inputs(), flows())
    fixed_report = fixed_verifier.verify(change_plan())
    print(fixed_report.summary())
    assert fixed_report.ok, "the corrected plan must verify cleanly"


if __name__ == "__main__":
    main()
