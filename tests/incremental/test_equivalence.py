"""Incremental-equivalence harness over all 12 Table-2 change types.

For every change type the paper's Table 2 lists, incremental verification
must produce RIB fingerprints and intent verdicts **byte-identical** to a
full re-simulation of the updated network — in centralized and distributed
modes. This is the guarantee the whole subsystem rests on: warm-starting
from the base world is an optimization, never a semantics change.
"""

import pytest

from benchmarks.test_table2_change_types import build_plans
from repro.core.change_plan import ALL_CHANGE_TYPES, ChangePlan, remove_router
from repro.core.intents import RclIntent
from repro.core.pipeline import ChangeVerifier
from repro.distsim.chaos import rib_fingerprint
from repro.exec import DistributedBackend
from repro.incremental.engine import (
    MODE_INCREMENTAL,
    MODE_NOOP,
    MODE_WIDENED,
)
from repro.routing.rib import device_rib_fingerprint
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)

#: Change types whose verification mode is fully determined by the plan
#: shape (the others may or may not produce an IS-IS/topology delta
#: depending on vendor dialect, so only equivalence is asserted for them).
EXPECTED_MODES = {
    "static-route-modification": MODE_INCREMENTAL,
    "new-prefix-announcement": MODE_INCREMENTAL,
    "pbr-modification": MODE_NOOP,
    "acl-modification": MODE_NOOP,
    "prefix-reclamation": MODE_NOOP,
    "adding-new-links": MODE_WIDENED,
    "adding-new-routers": MODE_WIDENED,
}


@pytest.fixture(scope="module")
def world():
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=3, seed=7)
    )
    routes = generate_input_routes(inventory, n_prefixes=48, seed=11)
    flows = generate_flows(inventory, routes, n_flows=150, seed=13)
    return model, inventory, routes, flows


@pytest.fixture(scope="module")
def plans(world):
    model, inventory, routes, _ = world
    return build_plans(model, inventory, routes)


def make_verifier(world, incremental, backend=None):
    model, _, routes, flows = world
    verifier = ChangeVerifier(
        model,
        routes,
        input_flows=flows,
        incremental=incremental,
        backend=backend,
    )
    verifier.prepare_base()
    return verifier


@pytest.fixture(scope="module")
def verifier_pairs(world):
    """(incremental, full) verifier pairs per arm, built once."""
    return {
        "central": (
            make_verifier(world, incremental=True),
            make_verifier(world, incremental=False),
        ),
        "dist": (
            make_verifier(
                world,
                incremental=True,
                backend=DistributedBackend(route_subtasks=6, workers=1),
            ),
            make_verifier(
                world,
                incremental=False,
                backend=DistributedBackend(route_subtasks=6, workers=1),
            ),
        ),
    }


def device_fingerprints(world_state):
    return {
        name: device_rib_fingerprint(rib)
        for name, rib in world_state.device_ribs.items()
    }


def traffic_snapshot(traffic, flows):
    """Every flow's spread, the status counts, the cost units and the loads
    exactly: floats and key order."""
    return (
        [traffic.path_of(flow) for flow in flows],
        traffic.status_counts(),
        traffic.cost_units,
        list(traffic.loads.loads.items()),
    )


@pytest.mark.parametrize("arm", ["central", "dist"])
@pytest.mark.parametrize("change_type", ALL_CHANGE_TYPES)
def test_incremental_equivalence(change_type, arm, world, plans, verifier_pairs):
    plan = plans[change_type]
    inc, full = verifier_pairs[arm]

    report_inc = inc.verify(plan)
    report_full = full.verify(plan)

    # RIB equivalence: per-device fingerprints and the whole-world digest.
    world_inc = report_inc.updated_world
    world_full = report_full.updated_world
    assert device_fingerprints(world_inc) == device_fingerprints(world_full)
    assert rib_fingerprint(world_inc.device_ribs) == rib_fingerprint(
        world_full.device_ribs
    )

    # Traffic equivalence: kept base spreads are what a full re-forward
    # of the updated network produces, flow by flow and link by link.
    flows = world[3]
    assert traffic_snapshot(world_inc.traffic, flows) == traffic_snapshot(
        world_full.traffic, flows
    )

    # Intent equivalence: same verdict per intent, in order.
    assert [r.satisfied for r in report_inc.intent_results] == [
        r.satisfied for r in report_full.intent_results
    ]

    # Mode sanity for the plan shapes whose analysis is fully determined.
    expected = EXPECTED_MODES.get(change_type)
    if expected is not None:
        assert report_inc.incremental.mode == expected, (
            f"{change_type}: expected {expected}, "
            f"got {report_inc.incremental.mode} "
            f"({report_inc.incremental.widen_reasons})"
        )


@pytest.mark.parametrize("change_type", ALL_CHANGE_TYPES)
def test_touched_slots_bound_the_real_diff(
    change_type, plans, verifier_pairs, monkeypatch
):
    """The splice reports exactly the slots a full re-simulation changes,
    on bounded and widened plans alike."""
    inc, full = verifier_pairs["central"]
    engine, splices = inc._engine, []
    splice = engine.splice
    monkeypatch.setattr(
        engine,
        "splice",
        lambda *args, **kwargs: splices.append(splice(*args, **kwargs))
        or splices[-1],
    )
    _, stats = inc.simulate_plan(plans[change_type])
    updated = full.simulate_plan(plans[change_type])[0].device_ribs
    base = inc.base_world.device_ribs

    differing = set()
    for name in set(base) | set(updated):
        before, after = base.get(name), updated.get(name)
        for rib in filter(None, (before, after)):
            for vrf in rib.vrfs:
                for prefix in rib.prefixes(vrf):
                    entries = [
                        side.entries_for(prefix, vrf) if side is not None else []
                        for side in (before, after)
                    ]
                    if entries[0] != entries[1]:
                        differing.add((name, vrf, prefix))

    if stats.mode == MODE_NOOP:
        assert not splices and not differing
        return
    (result,) = splices
    touched = {
        (name, *slot) for name, slots in result.touched.items() for slot in slots
    }
    assert touched == differing
    assert stats.spliced_slots == len(touched)


REMOVE_ROUTER = ChangePlan(
    name="remove-router",
    change_type="topology-adjustment",
    topology_ops=[remove_router("region0-core2")],
    intents=[
        RclIntent("not device = region0-core2 => PRE = POST"),
        RclIntent("POST || device = region0-core2 |> count() = 0"),
    ],
)


@pytest.mark.parametrize("arm", ["central", "dist"])
@pytest.mark.parametrize("router_op", ["add-router", "remove-router"])
def test_widened_device_sets_follow_the_updated_model(
    router_op, arm, plans, verifier_pairs
):
    """A widened router plan splices exactly the updated model's devices: a
    new router appears and a removed one is gone, not left as an empty RIB."""
    inc, full = verifier_pairs[arm]
    if router_op == "add-router":
        plan = plans["adding-new-routers"]
    else:
        plan = REMOVE_ROUTER
    report_inc, report_full = inc.verify(plan), full.verify(plan)
    assert report_inc.incremental.mode == MODE_WIDENED
    updated_model = plan.build_updated_model(inc.base_model)
    world_inc = report_inc.updated_world
    assert list(world_inc.device_ribs) == list(updated_model.devices)
    assert set(world_inc.device_ribs) != set(inc.base_world.device_ribs)
    assert device_fingerprints(world_inc) == device_fingerprints(
        report_full.updated_world
    )
    assert [r.satisfied for r in report_inc.intent_results] == [
        r.satisfied for r in report_full.intent_results
    ]


def test_all_change_types_covered(plans):
    assert set(plans) == set(ALL_CHANGE_TYPES)
    assert len(ALL_CHANGE_TYPES) == 12
