"""Engine behavior: counters, coverage, pruning, errors."""

from __future__ import annotations

import pytest

from repro.kfailure import (
    KFailureEngine,
    apply_scenario,
    enumerate_scenarios,
    reachability_property,
    scenario_space_size,
)
from repro.kfailure.scenarios import FailureScenario
from repro.net.topology import TopologyError
from repro.obs import RunContext
from repro.routing.inputs import inject_external_route

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"


def bundle_world():
    """Redundant diamond with a parallel A-B bundle (prunable classes)."""
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("B", "D", 10), ("A", "C", 10), ("C", "D", 10)],
    )
    model.topology.connect("A", "B", igp_cost=10)
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    return model, [inject_external_route("D", PFX, (65010,))]


class TestCountersAndCoverage:
    def test_full_run_accounting(self):
        model, inputs = bundle_world()
        n_links = len(model.topology.links)
        engine = KFailureEngine(model, inputs)
        result = engine.check(2, reachability_property(PFX, ["A"]))
        assert result.scenarios_total == scenario_space_size(n_links, 2)
        assert result.scenarios_checked == result.scenarios_total
        assert result.coverage == 1.0
        assert (
            result.scenarios_simulated + result.scenarios_pruned
            == result.scenarios_checked
        )
        # The parallel bundle members are one equivalence class, so at
        # least their singleton scenarios collapse.
        assert result.scenarios_pruned > 0
        assert not result.truncated and not result.early_exited

    def test_counters_on_context(self):
        model, inputs = bundle_world()
        ctx = RunContext("test")
        engine = KFailureEngine(model, inputs, ctx=ctx)
        result = engine.check(2, reachability_property(PFX, ["A"]))
        counters = ctx.counters()
        assert counters["kfailure.scenarios_total"] == result.scenarios_checked
        assert counters["kfailure.simulated"] == result.scenarios_simulated
        assert counters["kfailure.pruned"] == result.scenarios_pruned

    def test_truncation_reports_partial_coverage(self):
        model, inputs = bundle_world()
        engine = KFailureEngine(model, inputs, max_scenarios=3)
        result = engine.check(2, reachability_property(PFX, ["A"]))
        assert result.truncated
        assert result.scenarios_checked == 3
        assert result.coverage == pytest.approx(3 / result.scenarios_total)
        assert "truncated" in result.summary()

    def test_summary_mentions_coverage(self):
        model, inputs = bundle_world()
        engine = KFailureEngine(model, inputs)
        result = engine.check(1, reachability_property(PFX, ["A"]))
        assert "coverage" in result.summary()
        assert "pruned" in result.summary()


class TestEarlyExit:
    def test_sequential_stops_at_first_violation(self):
        model, inputs = bundle_world()
        engine = KFailureEngine(model, inputs, stop_on_first_violation=True)
        result = engine.check(2, reachability_property(PFX, ["A"]))
        assert result.early_exited
        assert len(result.violations) == 1
        assert "stopped at first violation" in result.summary()


class TestModes:
    def test_pruning_without_warm_start_is_rejected(self):
        model, inputs = bundle_world()
        with pytest.raises(ValueError, match="warm"):
            KFailureEngine(model, inputs, warm=False, prune=True)


class TestMissingLink:
    def test_apply_scenario_raises_for_unknown_link(self):
        model, _ = bundle_world()
        scenario = FailureScenario(
            index=0, link_endpoints=(("A", "Z"),), failed_routers=()
        )
        with pytest.raises(TopologyError, match="A-Z"):
            apply_scenario(model.topology, scenario)

    def test_checker_surfaces_missing_link_instead_of_skipping(self):
        model, inputs = bundle_world()
        stale = model.topology.find_link("C", "D")
        model.topology.remove_link(stale)
        engine = KFailureEngine(model, inputs, links=[stale])
        with pytest.raises(TopologyError, match="C-D"):
            engine.check(1, reachability_property(PFX, ["A"]))

    def test_apply_scenario_rolls_back_on_partial_failure(self):
        model, _ = bundle_world()
        good = model.topology.find_link("A", "C")
        scenario = FailureScenario(
            index=0,
            link_endpoints=(good.endpoints, ("A", "Z")),
            failed_routers=(),
        )
        with pytest.raises(TopologyError):
            apply_scenario(model.topology, scenario)
        assert not model.topology.link_is_failed(good)


class TestEnumeration:
    def test_space_size_matches_enumeration(self):
        model, _ = bundle_world()
        scenarios, total = enumerate_scenarios(model, 2)
        assert total == scenario_space_size(len(model.topology.links), 2)
        listed = list(scenarios)
        assert len(listed) == total
        assert [s.index for s in listed] == list(range(total))
