"""What a bounded change pays for: only its covered slots.

A bounded verify re-simulates the covered inputs with the base run's BGP
sessions, installs connected routes only at covered prefixes, compares the
base and partial RIBs only at the covered prefixes a slot can sit at, and
derives the FIB index of every spliced RIB from its base RIB's. These tests
pin each of those shortcuts to what a full run would compute.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from benchmarks.test_table2_change_types import build_plans
from repro.core.change_plan import ALL_CHANGE_TYPES, ChangePlan, fail_link
from repro.core.intents import RclIntent
from repro.core.pipeline import ChangeVerifier
from repro.incremental.engine import MODE_INCREMENTAL
from repro.net.addr import IPAddress, Prefix
from repro.net.device import AggregateConfig, RedistributionConfig, StaticRouteConfig
from repro.routing import bgp
from repro.routing.inputs import build_local_input_routes
from repro.routing.isis import compute_igp
from repro.routing.rib import DeviceRib
from repro.routing.simulator import simulate_routes
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)


@pytest.fixture(scope="module")
def world():
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=3, seed=7)
    )
    routes = generate_input_routes(inventory, n_prefixes=48, seed=11)
    flows = generate_flows(inventory, routes, n_flows=150, seed=13)
    return model, inventory, routes, flows


def _verifier(world):
    model, _, routes, flows = world
    verifier = ChangeVerifier(model, routes, input_flows=flows)
    verifier.prepare_base()
    return verifier


def _bgp_lines(model, name, lines_a, lines_b):
    device = model.device(name)
    if device.vendor_name == "vendor-a":
        return [f"router bgp {device.asn}"] + lines_a
    return [f"bgp {device.asn}"] + lines_b


def _session_moving_plans(model):
    """Plans whose edits can move a session: a peer, an identity and a link."""
    border = "region0-border0"
    peer = model.device(border).peers[0].peer
    core = "region0-core0"
    isolate = "isolate" if model.device(core).vendor_name == "vendor-a" else "device-isolate"
    intents = [RclIntent("PRE = POST")]
    return {
        "peer": ChangePlan(
            name="peer-shutdown",
            change_type="route-attributes-modification",
            device_commands={
                border: _bgp_lines(
                    model, border, [f" neighbor {peer} shutdown"], [f" peer {peer} ignore"]
                )
            },
            intents=intents,
        ),
        "identity": ChangePlan(
            name="isolate-core",
            change_type="os-upgrade",
            device_commands={core: [isolate]},
            intents=intents,
        ),
        "link": ChangePlan(
            name="fail-link",
            change_type="topology-adjustment",
            topology_ops=[fail_link("region0-rr0", "region0-core0")],
            intents=intents,
        ),
    }


def _session_values(sessions):
    return [
        (s.key, s.ebgp, s.egress_class, s.sender_cfg, s.receiver_cfg)
        for s in sessions
    ]


def test_reused_sessions_are_the_updated_models(world, monkeypatch):
    """Over the Table-2 plans, sessions a partial run is handed equal the
    sessions of the updated model; plans that edit a peer, a device's
    identity or a link build their own."""
    model, inventory, routes, _ = world
    verifier = _verifier(world)
    handed = []
    inner = verifier.backend.inner
    run_routes = inner.run_routes

    def spy(request, ctx=None):
        handed.append(request.sessions)
        return run_routes(request, ctx)

    monkeypatch.setattr(inner, "run_routes", spy)
    plans = build_plans(model, inventory, routes)
    reused = []
    for change_type in ALL_CHANGE_TYPES:
        handed.clear()
        report = verifier.verify(plans[change_type])
        given_sessions = [s for s in handed if s is not None]
        assert report.incremental.sessions_reused == bool(given_sessions)
        if not given_sessions:
            continue
        reused.append(change_type)
        updated = plans[change_type].build_updated_model(model)
        (sessions,) = given_sessions
        assert _session_values(sessions) == _session_values(
            bgp.build_sessions(updated, compute_igp(updated))
        )
    assert "static-route-modification" in reused
    assert "new-prefix-announcement" in reused
    for kind, plan in _session_moving_plans(model).items():
        handed.clear()
        report = verifier.verify(plan)
        assert report.incremental.mode != MODE_INCREMENTAL, kind
        assert not report.incremental.sessions_reused, kind
        assert all(s is None for s in handed), kind
        assert "sessions reused" not in report.incremental.describe()


def test_a_bounded_verify_builds_no_session_and_indexes_no_rib(world, monkeypatch):
    """After ``prepare_base``, a bounded verify derives no session list and
    builds no FIB index from scratch: both come from the base run."""
    model, inventory, routes, _ = world
    verifier = _verifier(world)
    plan = build_plans(model, inventory, routes)["static-route-modification"]
    calls = {"build_sessions": 0, "fresh_index": 0}
    build_sessions = bgp.build_sessions

    def counting_build_sessions(*args, **kwargs):
        calls["build_sessions"] += 1
        return build_sessions(*args, **kwargs)

    index = DeviceRib._index

    def counting_index(rib, vrf):
        if rib._fib is None:
            calls["fresh_index"] += 1
        return index(rib, vrf)

    monkeypatch.setattr(bgp, "build_sessions", counting_build_sessions)
    monkeypatch.setattr(DeviceRib, "_index", counting_index)
    report = verifier.verify(plan)
    assert report.incremental.mode == MODE_INCREMENTAL
    assert report.incremental.spliced_slots > 0
    assert calls == {"build_sessions": 0, "fresh_index": 0}
    assert report.incremental.sessions_reused
    assert "sessions reused" in report.incremental.describe()


_POOL = [Prefix.parse(f"10.{i}.0.0/16") for i in range(4)] + [
    Prefix.parse("10.0.0.0/8"),
    Prefix.parse("192.0.2.0/24"),
]


@settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=50),
    statics=st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from(_POOL)), max_size=4
    ),
    aggregates=st.lists(
        st.tuples(st.integers(0, 11), st.sampled_from(_POOL), st.booleans()),
        max_size=3,
    ),
    redistribute=st.lists(st.integers(0, 11), max_size=2),
)
def test_every_slot_sits_at_an_input_connected_or_aggregate_prefix(
    seed, statics, aggregates, redistribute
):
    """The slot prefixes of a full run are input, static or loopback, and
    aggregate prefixes; a slot at neither an input nor an aggregate prefix
    holds only its own device's connected routes. So a splice compares a
    bounded run at the covered input prefixes and the radius (which holds
    every changed static and covered aggregate) alone."""
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=2, seed=seed)
    )
    names = sorted(model.devices)
    for index, prefix in statics:
        model.device(names[index]).put(
            "statics", StaticRouteConfig(prefix, IPAddress.parse("192.0.2.1"))
        )
    for index, prefix, summary_only in aggregates:
        model.device(names[index]).put(
            "aggregates", AggregateConfig(prefix, summary_only=summary_only)
        )
    for index in redistribute:
        model.device(names[index]).put("redistributions", RedistributionConfig("static"))
    routes = generate_input_routes(inventory, n_prefixes=12, seed=seed)
    result = simulate_routes(model, routes)

    inputs = {item.route.prefix for item in routes}
    inputs.update(item.route.prefix for item in build_local_input_routes(model))
    aggregated = {
        aggregate.prefix
        for device in model.devices.values()
        for aggregate in device.aggregates.values()
    }
    connected = {
        static.prefix
        for device in model.devices.values()
        for static in device.statics.values()
    }
    connected.update(Prefix.from_address(address) for address in model.loopbacks.values())
    for name, rib in result.device_ribs.items():
        for vrf in rib.vrfs:
            for prefix in rib.prefixes(vrf):
                assert prefix in inputs | connected | aggregated
                if prefix in inputs or prefix in aggregated:
                    continue
                for route, _ in rib.entries_for(prefix, vrf):
                    assert route.protocol in ("static", "direct")
                    assert route.origin_router == name
