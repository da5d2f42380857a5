"""Tests for the device configuration model and NetworkModel."""

import pytest

from repro.net.addr import IPAddress, Prefix
from repro.net.device import (
    AclConfig,
    AclRuleConfig,
    BgpPeerConfig,
    ConfigModelError,
    DeviceConfig,
    PbrRuleConfig,
    VrfConfig,
)
from repro.net.model import NetworkModel
from repro.net.topology import Router, TopologyError
from repro.net.vendors import VENDOR_B
from repro.traffic.flow import make_flow


class TestDeviceConfig:
    def test_duplicate_peer_rejected(self):
        device = DeviceConfig("A")
        device.add_peer(BgpPeerConfig(peer="B", remote_asn=1))
        with pytest.raises(ConfigModelError):
            device.add_peer(BgpPeerConfig(peer="B", remote_asn=1))
        # Same peer name in another VRF is fine.
        device.add_peer(BgpPeerConfig(peer="B", remote_asn=1, vrf="vrf1"))

    def test_remove_missing_peer_rejected(self):
        device = DeviceConfig("A")
        with pytest.raises(ConfigModelError):
            device.remove_peer("ghost")

    def test_duplicate_vrf_rejected(self):
        device = DeviceConfig("A")
        device.add_vrf(VrfConfig(name="v1"))
        with pytest.raises(ConfigModelError):
            device.add_vrf(VrfConfig(name="v1"))

    def test_global_vrf_always_present(self):
        assert "global" in DeviceConfig("A").vrfs

    def test_sr_policy_lookup(self):
        device = DeviceConfig("A")
        device.add_sr_policy("P", endpoint="B")
        assert device.sr_policy_towards("B").name == "P"
        assert device.sr_policy_towards("C") is None
        device.sr_policies["P"].enabled = False
        assert device.sr_policy_towards("B") is None

    def test_pbr_rules_kept_sorted(self):
        device = DeviceConfig("A")
        device.add_pbr_rule(PbrRuleConfig(seq=20, nexthop="X"))
        device.add_pbr_rule(PbrRuleConfig(seq=10, nexthop="Y"))
        assert [r.seq for r in device.pbr_rules.values()] == [10, 20]

    def test_copy_is_deep(self):
        device = DeviceConfig("A")
        device.add_peer(BgpPeerConfig(peer="B", remote_asn=1))
        device.add_static("10.0.0.0/8", "192.0.2.1")
        device.policy_ctx.define_policy("P").node(10, "permit")
        clone = device.copy()
        clone.peers[0].enabled = False
        clone.statics.clear()
        clone.policy_ctx.policies["P"].remove_node(10)
        clone.max_paths = 1
        clone.isolated = True
        assert device.peers[0].enabled
        assert device.statics
        assert device.policy_ctx.policies["P"].nodes
        assert device.max_paths == 8
        assert not device.isolated

    def test_vendor_profile_swap(self):
        device = DeviceConfig("A", vendor="vendor-a")
        device.set_vendor_profile(VENDOR_B)
        assert device.vendor is VENDOR_B
        assert device.vendor_name == "vendor-a"  # dialect unchanged


class TestAclAndPbrMatching:
    def test_acl_first_match_wins(self):
        acl = AclConfig(name="X")
        acl.add(
            AclRuleConfig(seq=20, action="permit")
        )
        acl.add(
            AclRuleConfig(
                seq=10, action="deny", dst_prefix=Prefix.parse("10.0.0.0/8")
            )
        )
        blocked = make_flow("A", "1.1.1.1", "10.0.0.1")
        allowed = make_flow("A", "1.1.1.1", "11.0.0.1")
        assert not acl.permits(blocked)
        assert acl.permits(allowed)

    def test_acl_default_deny(self):
        acl = AclConfig(name="X")
        assert not acl.permits(make_flow("A", "1.1.1.1", "2.2.2.2"))

    def test_acl_port_and_protocol(self):
        acl = AclConfig(name="X")
        acl.add(AclRuleConfig(seq=10, action="permit", protocol=6, dst_port=443))
        https = make_flow("A", "1.1.1.1", "2.2.2.2", protocol=6, dst_port=443)
        dns = make_flow("A", "1.1.1.1", "2.2.2.2", protocol=17, dst_port=53)
        assert acl.permits(https)
        assert not acl.permits(dns)

    def test_pbr_src_matching(self):
        rule = PbrRuleConfig(
            seq=10, nexthop="X", src_prefix=Prefix.parse("192.168.0.0/16")
        )
        assert rule.matches_flow(make_flow("A", "192.168.1.1", "10.0.0.1"))
        assert not rule.matches_flow(make_flow("A", "172.16.1.1", "10.0.0.1"))


class TestNetworkModel:
    def test_device_requires_router(self):
        model = NetworkModel()
        with pytest.raises(TopologyError):
            model.add_device(DeviceConfig("ghost"))

    def test_duplicate_device_rejected(self):
        model = NetworkModel()
        model.topology.add_router(Router(name="A"))
        model.add_device(DeviceConfig("A"))
        with pytest.raises(TopologyError):
            model.add_device(DeviceConfig("A"))

    def test_loopback_ownership(self):
        model = NetworkModel()
        model.topology.add_router(Router(name="A"))
        loopback = IPAddress.parse("10.255.0.1")
        model.add_device(DeviceConfig("A"), loopback=loopback)
        assert model.owner_of_address(loopback) == "A"
        assert model.owner_of_address(IPAddress.parse("9.9.9.9")) is None

    def test_interface_address_ownership(self):
        model = NetworkModel()
        for name in ("A", "B"):
            model.topology.add_router(Router(name=name))
            model.add_device(DeviceConfig(name))
        model.topology.connect("A", "B", a_addr="192.0.2.0", b_addr="192.0.2.1")
        assert model.owner_of_address(IPAddress.parse("192.0.2.0")) == "A"
        assert model.owner_of_address(IPAddress.parse("192.0.2.1")) == "B"

    def test_loopback_reassignment(self):
        model = NetworkModel()
        model.topology.add_router(Router(name="A"))
        model.add_device(DeviceConfig("A"), loopback=IPAddress.parse("10.255.0.1"))
        model.set_loopback("A", IPAddress.parse("10.255.0.2"))
        assert model.owner_of_address(IPAddress.parse("10.255.0.1")) is None
        assert model.owner_of_address(IPAddress.parse("10.255.0.2")) == "A"

    def test_remove_device_cleans_up(self):
        model = NetworkModel()
        model.topology.add_router(Router(name="A"))
        loopback = IPAddress.parse("10.255.0.1")
        model.add_device(DeviceConfig("A"), loopback=loopback)
        model.remove_device("A")
        assert "A" not in model.devices
        assert model.owner_of_address(loopback) is None
        assert not model.topology.has_router("A")

    def test_copy_independence(self):
        model = NetworkModel()
        model.topology.add_router(Router(name="A"))
        model.add_device(DeviceConfig("A"), loopback=IPAddress.parse("10.255.0.1"))
        clone = model.copy()
        assert clone.devices["A"] is model.devices["A"]  # shared until edited
        edited = clone.edit("A")
        assert clone.devices["A"] is not model.devices["A"]
        assert clone.edit("A") is edited
        edited.add_static("10.0.0.0/8", "10.255.0.1")
        clone.topology.add_router(Router(name="B"))
        assert not model.device("A").statics
        assert not model.topology.has_router("B")

    def test_edit_of_the_parent_after_a_copy_leaves_the_clone_unchanged(self):
        model = NetworkModel()
        model.topology.add_router(Router(name="A"))
        model.add_device(DeviceConfig("A"), loopback=IPAddress.parse("10.255.0.1"))
        assert model.edit("A") is model.devices["A"]  # owned: no copy
        clone = model.copy()
        shared = clone.devices["A"]
        model.edit("A").add_static("10.0.0.0/8", "10.255.0.1")
        assert clone.devices["A"] is shared
        assert not clone.device("A").statics
        assert len(model.device("A").statics) == 1

    def test_edit_of_an_unknown_device_raises(self):
        model = NetworkModel()
        with pytest.raises(TopologyError):
            model.edit("ghost")

    def test_readded_device_is_owned(self):
        model = NetworkModel()
        model.topology.add_router(Router(name="A"))
        model.add_device(DeviceConfig("A"))
        clone = model.copy()
        clone.remove_device("A")
        clone.topology.add_router(Router(name="A"))
        fresh = clone.add_device(DeviceConfig("A"))
        assert clone.edit("A") is fresh

    def test_groups_and_regions(self):
        model = NetworkModel()
        model.topology.add_router(Router(name="A", group="g", region="r1"))
        model.topology.add_router(Router(name="B", group="g", region="r2"))
        model.add_device(DeviceConfig("A"))
        model.add_device(DeviceConfig("B"))
        assert model.devices_in_group("g") == ["A", "B"]
        assert model.devices_in_region("r1") == ["A"]

    def test_stats(self):
        model = NetworkModel()
        model.topology.add_router(Router(name="A"))
        model.add_device(DeviceConfig("A"))
        model.device("A").add_peer(BgpPeerConfig(peer="B", remote_asn=1))
        stats = model.stats()
        assert stats["devices"] == 1
        assert stats["bgp_sessions"] == 1
