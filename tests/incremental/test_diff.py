"""Tests for the model differ (repro.incremental.diff)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.change_plan import (
    ChangePlan,
    add_link,
    add_router,
    fail_link,
    remove_link,
    remove_router,
)
from repro.core.pipeline import ChangeVerifier
from repro.incremental.diff import (
    IGP_SECTIONS,
    SECTIONS,
    changed_sections,
    diff_models,
)
from repro.incremental.engine import MODE_NOOP
from repro.net.addr import IPAddress
from repro.net.device import DeviceConfig, VrfConfig
from repro.net.policy import RoutePolicy
from repro.net.topology import Router, TopologyError

from tests.helpers import build_model


def base_model():
    return build_model(
        routers=[("A", 100), ("B", 100), ("C", 100)],
        links=[("A", "B", 10), ("B", "C", 10)],
    )


class TestDiffModels:
    def test_copy_is_empty_diff(self):
        base = base_model()
        updated = base.copy()
        assert all(
            updated.devices[name] is config for name, config in base.devices.items()
        )
        assert updated.topology == base.topology
        diff = diff_models(base, updated)
        assert diff.is_empty
        assert diff.summary() == "no changes"

    def test_statics_delta_detected(self):
        base = base_model()
        updated = base.copy()
        updated.edit("A").add_static("172.20.0.0/16", "10.255.0.2")
        assert updated.devices["A"] is not base.devices["A"]
        assert updated.devices["B"] is base.devices["B"]
        diff = diff_models(base, updated)
        assert set(diff.device_deltas) == {"A"}
        assert diff.device_deltas["A"].sections == frozenset({"statics"})
        assert not diff.igp_affecting
        assert diff.local_inputs_affected() == {"A"}

    def test_aggregate_delta_detected(self):
        base = base_model()
        updated = base.copy()
        updated.edit("B").add_aggregate("10.0.0.0/8", summary_only=True)
        diff = diff_models(base, updated)
        assert diff.device_deltas["B"].sections == frozenset({"aggregates"})
        assert diff.local_inputs_affected() == set()

    def test_isis_delta_is_igp_affecting(self):
        base = base_model()
        updated = base.copy()
        updated.edit("A").isis.cost_overrides["B"] = 1000
        diff = diff_models(base, updated)
        assert diff.device_deltas["A"].sections == frozenset({"isis"})
        assert diff.igp_affecting

    def test_policy_delta_detected(self):
        base = base_model()
        updated = base.copy()
        updated.edit("C").policy_ctx.policies["STEER"] = RoutePolicy("STEER")
        diff = diff_models(base, updated)
        assert diff.device_deltas["C"].sections == frozenset({"policies"})
        assert diff.local_inputs_affected() == {"C"}

    def test_topology_change_detected(self):
        base = base_model()
        updated = base.copy()
        updated.topology.connect("A", "C", igp_cost=30)
        diff = diff_models(base, updated)
        assert diff.topology_changed
        assert diff.structure_changed
        assert diff.igp_affecting

    def test_failed_link_changes_topology_fingerprint(self):
        base = base_model()
        updated = base.copy()
        link = updated.topology.find_link("A", "B")
        updated.topology.fail_link(link)
        assert base.topology != updated.topology
        assert diff_models(base, updated).topology_changed

    def test_device_added_and_removed(self):
        base = base_model()
        updated = base.copy()
        updated.topology.add_router(Router(name="D", asn=100))
        updated.add_device(
            DeviceConfig("D", asn=100), loopback=IPAddress.parse("10.255.9.9")
        )
        updated.remove_device("C")
        diff = diff_models(base, updated)
        assert diff.devices_added == frozenset({"D"})
        assert diff.devices_removed == frozenset({"C"})
        assert diff.structure_changed

    def test_loopback_change_detected(self):
        base = base_model()
        updated = base.copy()
        updated.set_loopback("A", IPAddress.parse("10.254.0.1"))
        diff = diff_models(base, updated)
        assert diff.loopbacks_changed
        assert diff.structure_changed

    def test_new_input_routes_carried(self):
        base = base_model()
        from repro.routing.inputs import inject_external_route

        new = inject_external_route("A", "198.51.77.0/24", (64999,))
        diff = diff_models(base, base.copy(), (new,))
        assert not diff.is_empty
        assert diff.new_input_routes == (new,)

    def test_static_moved_to_the_end_is_a_change(self):
        """Statics compare in entry order, which their readers follow."""
        base = base_model()
        base.device("A").add_static("172.20.0.0/16", "10.255.0.2")
        base.device("A").add_static("172.21.0.0/16", "10.255.0.2")
        plan = ChangePlan(
            name="static-readded",
            change_type="static-route-modification",
            device_commands={
                "A": [
                    "no ip route 172.20.0.0/16 10.255.0.2",
                    "ip route 172.20.0.0/16 10.255.0.2",
                ]
            },
        )
        updated = plan.build_updated_model(base)
        assert updated.devices["A"].statics == base.devices["A"].statics
        assert changed_sections(base.devices["A"], updated.devices["A"]) == {"statics"}
        assert diff_models(base, updated).device_deltas["A"].sections == {"statics"}


def route_target_model(held, other):
    """A model whose device A holds route targets ``held`` and ``other``
    (inserted in that order) in vrf1."""
    model = base_model()
    model.device("A").add_vrf(VrfConfig("vrf1", rd="100:1", import_rts={held, other}))
    return model


def readd_route_target(target):
    return ChangePlan(
        name="route-target-readded",
        change_type="route-attributes-modification",
        device_commands={
            "A": [
                "vrf definition vrf1",
                f" no route-target import {target}",
                f" route-target import {target}",
            ]
        },
    )


def test_readded_route_target_in_a_colliding_slot_is_no_change():
    """Removing a route target and adding it back changes nothing, even when
    another target shares its slot of the set's 8-slot table, so that the
    copy made for the change iterates the set in another order."""
    targets = [f"100:{n}" for n in range(1, 200)]
    for held, other in (
        (held, other)
        for held in targets
        for other in targets
        if other != held and hash(other) % 8 == hash(held) % 8
    ):
        base, plan = route_target_model(held, other), readd_route_target(held)
        updated = plan.build_updated_model(base)
        before = base.devices["A"].vrfs["vrf1"].import_rts
        after = updated.devices["A"].vrfs["vrf1"].import_rts
        if list(before) != list(after):
            break
    else:
        pytest.fail("no pair of route targets in one slot reorders the set")
    assert after == before
    diff = diff_models(base, updated)
    assert diff.is_empty, diff.summary()
    verifier = ChangeVerifier(base, [])
    verifier.prepare_base()
    _, stats = verifier.simulate_plan(plan)
    assert stats.mode == MODE_NOOP


ROUTERS = ("A", "B", "C", "D")

#: one drawn step: which model it writes (the copy, or the base after the
#: copy was taken), what it does, and the two routers it names
TOPOLOGY_STEPS = st.tuples(
    st.sampled_from(("copy", "base")),
    st.sampled_from(
        (
            "add-router",
            "remove-router",
            "add-link",
            "remove-link",
            "fail-link",
            "restore-link",
            "fail-then-restore",
            "add-then-remove",
        )
    ),
    st.sampled_from(ROUTERS),
    st.sampled_from(ROUTERS),
)


def apply_step(model, kind, a, b):
    ops = {
        "add-router": [add_router(a, asn=100, loopback=f"10.255.9.{ord(a)}")],
        "remove-router": [remove_router(a)],
        "add-link": [add_link(a, b)],
        "remove-link": [remove_link(a, b)],
        "fail-link": [fail_link(a, b)],
        "fail-then-restore": [fail_link(a, b)],
        "add-then-remove": [add_link(a, b), remove_link(a, b)],
    }.get(kind, [])
    try:
        for op in ops:
            op.apply(model)
    except TopologyError:
        return  # an op the drawn state does not allow
    if kind in ("restore-link", "fail-then-restore"):
        link = model.topology.find_link(a, b)
        if link is not None:
            model.topology.restore_link(link)


def topology_sets(topology):
    """The links, routers and failure overlay of a topology, read afresh."""
    return (
        set(topology.links),
        {router.name: router for router in topology.routers},
        {link.key for link in topology.links if topology.link_is_failed(link)},
        {name for name in topology.router_names if not topology.router_is_up(name)},
    )


class TestTopologyComparison:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(TOPOLOGY_STEPS, max_size=6))
    @example([("copy", "fail-then-restore", "A", "B")])  # moved, reads equal
    @example([("base", "fail-link", "B", "C")])  # the base moved after the copy
    def test_topology_changed_agrees_with_the_sets(self, steps):
        base = base_model()
        updated = base.copy()
        for target, kind, a, b in steps:
            apply_step(updated if target == "copy" else base, kind, a, b)
        expected = topology_sets(base.topology) != topology_sets(updated.topology)
        assert diff_models(base, updated).topology_changed == expected


class TestSectionFingerprints:
    def test_every_section_has_a_fingerprint(self):
        """A config equals its copy in every section, and a moved section is
        named."""
        config = DeviceConfig("X")
        config.add_static("10.0.0.0/8", "10.255.0.2")
        assert changed_sections(config, config.copy()) == frozenset()
        assert changed_sections(config, DeviceConfig("X")) == {"statics"}
        assert IGP_SECTIONS <= set(SECTIONS)

    def test_fingerprints_are_order_insensitive_for_dicts(self):
        a = DeviceConfig("X")
        b = DeviceConfig("X")
        a.acls["ONE"] = "x"
        a.acls["TWO"] = "y"
        b.acls["TWO"] = "y"
        b.acls["ONE"] = "x"
        a.isis.cost_overrides.update(B=5, C=7)
        b.isis.cost_overrides.update(C=7, B=5)
        assert changed_sections(a, b) == frozenset()
