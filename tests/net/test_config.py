"""Tests for the two vendor config dialects and incremental application."""

import pytest

from repro.core.change_plan import ChangePlan
from repro.net.addr import Prefix
from repro.net.config import ConfigParseError, apply_commands, parse_config
from repro.net.model import NetworkModel
from repro.net.topology import Router
from repro.net.vendors import VENDOR_A, VENDOR_B

VENDOR_A_CONFIG = """\
router bgp 65001
 neighbor R2 remote-as 65002
 neighbor R2 route-map IMPORT in
 neighbor R2 route-map EXPORT out
 neighbor R2 route-reflector-client
 neighbor R2 additional-paths 2
 neighbor R3 remote-as 65001
 neighbor R3 next-hop-self
 aggregate-address 10.0.0.0/8 as-set
 redistribute static route-map RM
 redistribute direct
ip prefix-list PL1 permit 10.0.0.0/24 le 32
ipv6 prefix-list PL6 permit 2001:db8::/32
ip community-list CL1 permit 100:1 200:1
ip as-path access-list AP1 permit .* 123 .*
route-map IMPORT deny 10
 match community CL1
route-map IMPORT permit 20
 match ip prefix-list PL1
 set local-preference 300
 set community 300:1 additive
route-map EXPORT permit 10
route-map RM permit 10
ip route 10.0.0.0/24 192.0.2.1
ip route vrf vrf1 10.9.0.0/24 192.0.2.2
vrf definition vrf1
 rd 65001:1
 route-target import 100:1
 route-target export 100:2
 export-policy EXPORT
segment-routing policy SRP1 endpoint R5 color 100 segments R3,R4
pbr rule 10 dst 10.1.0.0/16 nexthop R3
access-list ACL1 10 permit dst 10.0.0.0/24
access-list ACL1 20 deny
interface eth1
 ip access-group ACL1
isis cost R2 20
isis te
"""

VENDOR_B_CONFIG = """\
bgp 65010
 peer C as-number 65010
 peer C route-policy EXIT export
 peer C reflect-client
 peer D as-number 65020
 aggregate 10.0.0.0 8 as-set
 import-route direct
ip ip-prefix TARGETS index 10 permit 10.7.0.0 16 less-equal 24
ip ipv6-prefix TARGETS6 index 10 permit 2001:db8:: 32
ip community-filter CF permit 100:1
ip as-path-filter AF permit ^65010
route-policy EXIT permit node 10
 if-match ip-prefix TARGETS
 apply local-preference 500
route-policy EXIT deny node 20
ip route-static 10.0.0.0 24 192.0.2.1
ip vpn-instance vrf1
 route-distinguisher 65010:1
 vpn-target 100:1 import-extcommunity
 vpn-target 100:2 export-extcommunity
 export route-policy EXIT
"""


class TestVendorAParsing:
    @pytest.fixture()
    def dev(self):
        return parse_config(VENDOR_A_CONFIG, "R1", vendor="vendor-a")

    def test_bgp(self, dev):
        assert dev.asn == 65001
        assert len(dev.peers) == 2
        p2 = dev.peer_to("R2")
        assert p2.remote_asn == 65002
        assert p2.import_policy == "IMPORT"
        assert p2.export_policy == "EXPORT"
        assert p2.route_reflector_client
        assert p2.addpath == 2
        assert dev.peer_to("R3").next_hop_self

    def test_aggregate_and_redistribute(self, dev):
        assert len(dev.aggregates) == 1
        assert list(dev.aggregates.values())[0].as_set
        assert {r.source for r in dev.redistributions.values()} == {"static", "direct"}

    def test_filters(self, dev):
        ctx = dev.policy_ctx
        assert ctx.prefix_lists["PL1"].family == 4
        assert ctx.prefix_lists["PL6"].family == 6
        assert ctx.community_lists["CL1"].values == ["100:1", "200:1"]
        assert len(ctx.aspath_lists["AP1"].patterns) == 1

    def test_route_map_nodes(self, dev):
        nodes = dev.policy_ctx.policies["IMPORT"].nodes
        assert [n.seq for n in nodes] == [10, 20]
        assert nodes[0].action == "deny"
        assert nodes[1].sets[0].kind == "local-pref"
        assert nodes[1].sets[1].kind == "community-add"

    def test_statics_with_vrf(self, dev):
        assert len(dev.statics) == 2
        assert list(dev.statics.values())[1].vrf == "vrf1"

    def test_vrf(self, dev):
        vrf = dev.vrfs["vrf1"]
        assert vrf.rd == "65001:1"
        assert vrf.import_rts == {"100:1"}
        assert vrf.export_policy == "EXPORT"

    def test_sr_pbr_acl_isis(self, dev):
        assert dev.sr_policies["SRP1"].segments == ("R3", "R4")
        assert dev.pbr_rules[10].nexthop == "R3"
        assert dev.interface_acls == {"eth1": "ACL1"}
        assert dev.isis.cost_overrides == {"R2": 20}
        assert dev.isis.te_enabled

    def test_vendor_profile_attached(self, dev):
        assert dev.vendor is VENDOR_A


class TestVendorBParsing:
    @pytest.fixture()
    def dev(self):
        return parse_config(VENDOR_B_CONFIG, "C", vendor="vendor-b")

    def test_bgp(self, dev):
        assert dev.asn == 65010
        assert dev.peer_to("C").export_policy == "EXIT"
        assert dev.peer_to("C").route_reflector_client
        assert dev.peer_to("D").remote_asn == 65020

    def test_prefix_list_families(self, dev):
        ctx = dev.policy_ctx
        assert ctx.prefix_lists["TARGETS"].family == 4
        assert ctx.prefix_lists["TARGETS"].entries[0].le == 24
        assert ctx.prefix_lists["TARGETS6"].family == 6

    def test_ip_prefix_with_ipv6_address_stays_v4_family(self):
        # The §6.1 trap: 'ip-prefix' with IPv6 addresses.
        dev = parse_config(
            "ip ip-prefix BAD index 10 permit 2001:db8:: 32", "C", vendor="vendor-b"
        )
        plist = dev.policy_ctx.prefix_lists["BAD"]
        assert plist.family == 4
        assert plist.evaluate(Prefix.parse("2001:db9::/48"), VENDOR_B)

    def test_route_policy_nodes(self, dev):
        nodes = dev.policy_ctx.policies["EXIT"].nodes
        assert [(n.seq, n.action) for n in nodes] == [(10, "permit"), (20, "deny")]

    def test_vpn_instance(self, dev):
        vrf = dev.vrfs["vrf1"]
        assert vrf.rd == "65010:1"
        assert vrf.export_rts == {"100:2"}
        assert vrf.export_policy == "EXIT"

    def test_vendor_profile_attached(self, dev):
        assert dev.vendor is VENDOR_B


def two_device_model():
    model = NetworkModel()
    for name, vendor, text in (
        ("R1", "vendor-a", VENDOR_A_CONFIG),
        ("C", "vendor-b", VENDOR_B_CONFIG),
    ):
        model.topology.add_router(Router(name=name, vendor=vendor))
        model.add_device(parse_config(text, name, vendor=vendor))
    return model


def _plan(device_commands):
    return ChangePlan(
        name="cfg", change_type="os-patch", device_commands=device_commands
    )


class TestNegationAndApply:
    def test_delete_route_map_node(self):
        dev = parse_config(VENDOR_A_CONFIG, "R1", vendor="vendor-a")
        updated = apply_commands(dev, ["no route-map IMPORT deny 10"])
        assert [n.seq for n in updated.policy_ctx.policies["IMPORT"].nodes] == [20]
        # original untouched
        assert [n.seq for n in dev.policy_ctx.policies["IMPORT"].nodes] == [10, 20]

    def test_delete_whole_route_map(self):
        dev = parse_config(VENDOR_A_CONFIG, "R1", vendor="vendor-a")
        updated = apply_commands(dev, ["no route-map RM"])
        assert "RM" not in updated.policy_ctx.policies

    def test_remove_neighbor(self):
        dev = parse_config(VENDOR_A_CONFIG, "R1", vendor="vendor-a")
        updated = apply_commands(dev, ["router bgp 65001", " no neighbor R2"])
        assert updated.peer_to("R2") is None

    def test_shutdown_neighbor(self):
        dev = parse_config(VENDOR_A_CONFIG, "R1", vendor="vendor-a")
        updated = apply_commands(dev, ["router bgp 65001", " neighbor R2 shutdown"])
        assert not updated.peer_to("R2").enabled

    def test_remove_static(self):
        dev = parse_config(VENDOR_A_CONFIG, "R1", vendor="vendor-a")
        updated = apply_commands(dev, ["no ip route 10.0.0.0/24 192.0.2.1"])
        assert len(updated.statics) == 1

    def test_vendor_b_undo_node(self):
        dev = parse_config(VENDOR_B_CONFIG, "C", vendor="vendor-b")
        updated = apply_commands(dev, ["undo route-policy EXIT node 20"])
        assert [n.seq for n in updated.policy_ctx.policies["EXIT"].nodes] == [10]

    def test_wrong_dialect_command_fails(self):
        # A vendor-a command sent to a vendor-b device: the §6.1 "wrong
        # command formats used for a different vendor" risk.
        dev = parse_config(VENDOR_B_CONFIG, "C", vendor="vendor-b")
        with pytest.raises(ConfigParseError):
            apply_commands(dev, ["ip prefix-list X permit 10.0.0.0/8"])

    def test_plan_commands_copy_only_the_edited_device(self):
        model = two_device_model()
        dev, other = model.device("R1"), model.device("C")
        updated = _plan({"R1": ["no route-map RM"]}).build_updated_model(model)
        assert "RM" not in updated.device("R1").policy_ctx.policies
        assert "RM" in dev.policy_ctx.policies
        assert updated.device("C") is other

    def test_apply_to_unknown_device_rejected(self):
        with pytest.raises(KeyError):
            _plan({"ghost": ["x"]}).build_updated_model(two_device_model())


class TestFlawedParser:
    def test_strict_rejects_unknown(self):
        with pytest.raises(ConfigParseError):
            parse_config("frobnicate the uplink", "R1", vendor="vendor-a")

    def test_comments_and_blanks_skipped(self):
        dev = parse_config("! comment\n\n# note\nrouter bgp 1\n", "R1")
        assert dev.asn == 1


class TestAdditionalCommands:
    def test_maximum_paths_vendor_a(self):
        dev = parse_config(
            "router bgp 1\n maximum-paths 4", "R1", vendor="vendor-a"
        )
        assert dev.max_paths == 4
        updated = apply_commands(dev, ["router bgp 1", " no maximum-paths 4"])
        assert updated.max_paths == 1

    def test_maximum_load_balancing_vendor_b(self):
        dev = parse_config(
            "bgp 1\n maximum load-balancing 6", "R1", vendor="vendor-b"
        )
        assert dev.max_paths == 6

    def test_isolate_vendor_a(self):
        dev = parse_config("isolate", "R1", vendor="vendor-a")
        assert dev.isolated
        assert not apply_commands(dev, ["no isolate"]).isolated

    def test_isolate_vendor_b(self):
        dev = parse_config("device-isolate", "R1", vendor="vendor-b")
        assert dev.isolated
        assert not apply_commands(dev, ["undo device-isolate"]).isolated

    def test_route_map_none_action_node(self):
        # The "no explicit permit/deny" VSB surface is configurable.
        dev = parse_config("route-map X none 10", "R1", vendor="vendor-a")
        assert dev.policy_ctx.policies["X"].nodes[0].action is None

    def test_route_policy_none_action_node(self):
        dev = parse_config(
            "route-policy X none node 10", "R1", vendor="vendor-b"
        )
        assert dev.policy_ctx.policies["X"].nodes[0].action is None

    def test_static_route_preference_vendor_b(self):
        dev = parse_config(
            "ip route-static 10.0.0.0 8 192.0.2.1 preference 77",
            "R1",
            vendor="vendor-b",
        )
        assert list(dev.statics.values())[0].preference == 77
