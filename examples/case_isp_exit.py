#!/usr/bin/env python3
"""Case study: changing ISP exits (Figure 10(b)).

The operator wants to move a list of IPv6 prefixes from exit ISP1 (border
D) to ISP2 (border C) by raising their local preference on C. The change
plan uses the wrong command for this vendor — ``ip-prefix`` instead of
``ipv6-prefix``. Vendor B's behaviour: an ``ip-prefix`` list only checks
IPv4 prefixes and *permits all IPv6 prefixes by default*, so EVERY IPv6
prefix gets the higher preference and all IPv6 traffic swings to C,
overloading the C-ISP2 links.

Hoyan verifies the operator's first intent (the targets did move) but
catches the two collateral violations: other prefixes changed next hops,
and the exit links overload. With the corrected ``ipv6-prefix`` command the
plan verifies cleanly.

Run: python examples/case_isp_exit.py
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

REGION_AS, ISP1_AS, ISP2_AS = 100, 65101, 65102
TARGETS = ("2001:db8:1::/48", "2001:db8:2::/48")
OTHERS = tuple(f"2001:db8:{i:x}::/48" for i in range(8, 14))


def build_network() -> NetworkModel:
    model = NetworkModel()
    routers = [
        ("RR", REGION_AS, "vendor-a"),
        ("R1", REGION_AS, "vendor-a"),
        ("C", REGION_AS, "vendor-b"),   # the Figure 10(b) vendor
        ("D", REGION_AS, "vendor-a"),
        ("ISP1", ISP1_AS, "vendor-a"),
        ("ISP2", ISP2_AS, "vendor-a"),
    ]
    for index, (name, asn, vendor) in enumerate(routers, start=1):
        model.topology.add_router(Router(name=name, asn=asn, vendor=vendor))
        model.add_device(
            DeviceConfig(name, vendor=vendor, asn=asn),
            loopback=IPAddress.parse(f"10.255.1.{index}"),
        )
    for a, b, bw in (
        ("RR", "R1", 400e9),
        ("RR", "C", 400e9),
        ("RR", "D", 400e9),
        ("C", "ISP2", 100e9),   # the links that overload
        ("D", "ISP1", 400e9),
    ):
        model.topology.connect(a, b, igp_cost=10, bandwidth=bw)

    # iBGP: RR reflects for R1, C, D.
    for client in ("R1", "C", "D"):
        model.device("RR").add_peer(
            BgpPeerConfig(peer=client, remote_asn=REGION_AS,
                          route_reflector_client=True)
        )
        # Borders set next-hop-self towards the RR, so the region sees the
        # border's loopback as the exit next hop.
        model.device(client).add_peer(
            BgpPeerConfig(peer="RR", remote_asn=REGION_AS, next_hop_self=True)
        )

    # eBGP to the ISPs.
    for border, isp, asn in (("C", "ISP2", ISP2_AS), ("D", "ISP1", ISP1_AS)):
        model.device(border).add_peer(BgpPeerConfig(peer=isp, remote_asn=asn))
        model.device(isp).add_peer(BgpPeerConfig(peer=border, remote_asn=REGION_AS))

    # Import policies: D is the primary exit (local pref 200), C the backup
    # (local pref 100). C is vendor-b, which denies eBGP updates without a
    # policy, so both policies are explicit.
    ctx_d = model.device("D").policy_ctx
    ctx_d.define_policy("ISP1-IN").node(10, "permit").set("local-pref", 200)
    model.device("D").peer_to("ISP1").import_policy = "ISP1-IN"
    ctx_c = model.device("C").policy_ctx
    ctx_c.define_policy("ISP2-IN").node(10, "permit").set("local-pref", 100)
    model.device("C").peer_to("ISP2").import_policy = "ISP2-IN"
    return model


def inputs():
    items = []
    for prefix in TARGETS + OTHERS:
        items.append(inject_external_route("ISP1", prefix, (ISP1_AS, 64999)))
        items.append(inject_external_route("ISP2", prefix, (ISP2_AS, 64999)))
    return items


def flows():
    made = []
    for i, prefix in enumerate(TARGETS):
        made.append(
            make_flow("R1", f"2001:db8:100::{i + 1}", prefix.split("/")[0] + "5",
                      src_port=i, volume=20e9)
        )
    for i, prefix in enumerate(OTHERS):
        made.append(
            make_flow("R1", f"2001:db8:100::{i + 10}", prefix.split("/")[0] + "5",
                      src_port=100 + i, volume=20e9)
        )
    return made


def change_plan(correct_command: bool) -> ChangePlan:
    # The intended commands raise local preference for the target prefixes
    # on C. 'ip ip-prefix' (IPv4!) vs 'ip ipv6-prefix' is the whole bug.
    keyword = "ipv6-prefix" if correct_command else "ip-prefix"
    commands = []
    for i, prefix in enumerate(TARGETS, start=1):
        address, _, length = prefix.partition("/")
        commands.append(
            f"ip {keyword} EXIT-TARGETS index {i * 10} permit {address} {length}"
        )
    commands += [
        "route-policy ISP2-IN permit node 5",
        f" if-match {keyword} EXIT-TARGETS",
        " apply local-preference 300",
    ]

    target_set = "{" + ", ".join(TARGETS) + "}"
    return ChangePlan(
        name="change-isp-exit" + ("-fixed" if correct_command else ""),
        change_type="traffic-steering",
        device_commands={"C": commands},
        intents=[
            # (1) The target prefixes' next hops move to C on all region
            # routers (checked on the RR's view).
            RclIntent(
                f"forall prefix in {target_set}: "
                "device = RR and routeType = BEST => "
                "POST |> distVals(nexthop) = {10.255.1.3}"
            ),
            # (2) Routes of other prefixes remain unchanged — the intent the
            # operator initially FORGOT and added after the overload alarm.
            RclIntent(f"not prefix in {target_set} => PRE = POST"),
            # (3) Target traffic steers to ISP2 via C, and nothing overloads.
            FlowsTraverse(
                flows_to_prefix(TARGETS[0]), ["C", "ISP2"],
                label="target traffic exits via C to ISP2",
            ),
            NoOverloadedLinks(threshold=1.0),
        ],
    )


def main() -> None:
    model = build_network()
    verifier = ChangeVerifier(model, inputs(), flows())

    print("=== plan with the WRONG command ('ip-prefix' on IPv6) ===")
    report = verifier.verify(change_plan(correct_command=False))
    print(report.summary())
    assert not report.ok

    print("\n=== corrected plan ('ipv6-prefix') ===")
    fixed = verifier.verify(change_plan(correct_command=True))
    print(fixed.summary())
    assert fixed.ok


if __name__ == "__main__":
    main()
