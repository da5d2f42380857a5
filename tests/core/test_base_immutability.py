"""Copies of a model never write through to the model they came from.

``NetworkModel.copy()`` shares device configs with its source until one
side writes a config through ``NetworkModel.edit``. Everything that copies
a base or ground-truth model and then changes the copy — fault injection,
``ChangePlan.build_updated_model``, the change corpus's base-preparation
hooks — must leave the source equal to a snapshot taken before. An
in-place write to a shared config would otherwise corrupt the source
silently: the copy still looks right, only the next user of the source
sees the damage.
"""

import pytest

from benchmarks.test_table2_change_types import build_plans
from repro.core.change_plan import ALL_CHANGE_TYPES
from repro.diagnosis.campaign import build_ground_truth, run_fault
from repro.incremental.diff import diff_models
from repro.monitor.faults import FAULT_LIBRARY
from repro.workload import (
    WanParams,
    generate_change_corpus,
    generate_flows,
    generate_input_routes,
    generate_wan,
)


def snapshot(model):
    """A copy of ``model`` that shares no device config with it."""
    copy = model.copy()
    for name in copy.devices:
        copy.edit(name)
    return copy


def changes(before, model):
    """What differs between a snapshot and the model it was taken of."""
    return diff_models(before, model).summary()


@pytest.fixture(scope="module")
def world():
    model, inventory = generate_wan(WanParams(regions=2, cores_per_region=3, seed=7))
    routes = generate_input_routes(inventory, n_prefixes=24, redundancy=2, seed=11)
    flows = generate_flows(inventory, routes, n_flows=150, seed=13)
    return model, inventory, routes, flows


def test_fault_campaign_leaves_the_ground_truth_unchanged(world):
    model, _, routes, flows = world
    truth = build_ground_truth(model, routes, flows)
    before = snapshot(truth.model)
    for fault in FAULT_LIBRARY:
        run_fault(truth, fault)
        assert changes(before, truth.model) == "no changes", fault.name


def test_table2_plans_leave_the_base_unchanged(world):
    model, inventory, routes, _ = world
    before = snapshot(model)
    plans = build_plans(model, inventory, routes)
    assert set(plans) == set(ALL_CHANGE_TYPES)
    for change_type, plan in plans.items():
        updated = plan.build_updated_model(model)
        assert changes(before, model) == "no changes", change_type
        # the plan edited only the devices it has commands for
        assert {
            name
            for name, config in updated.devices.items()
            if model.devices.get(name, config) is not config
        } <= set(plan.device_commands)


def test_corpus_base_preparation_leaves_the_model_unchanged(world):
    model, inventory, _, _ = world
    before = snapshot(model)
    prepared = 0
    for change in generate_change_corpus(model, inventory, n_risky=32, seed=21):
        if change.prepare_base is None:
            continue
        base = model.copy()
        change.prepare_base(base)
        prepared += bool(diff_models(before, base).device_deltas)
        assert changes(before, model) == "no changes", change.plan.name
    assert prepared  # some hook did write a device config
