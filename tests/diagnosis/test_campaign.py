"""Unit tests for the Table-4 campaign machinery (the bench runs it full-scale)."""

import pytest

from repro.diagnosis.campaign import (
    build_ground_truth,
    format_table4,
    run_campaign,
    run_fault,
)
from repro.monitor.faults import fault_by_name
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)


@pytest.fixture(scope="module")
def small_world():
    model, inventory = generate_wan(WanParams(regions=2, cores_per_region=2, seed=7))
    routes = generate_input_routes(inventory, n_prefixes=24, redundancy=2, seed=11)
    flows = generate_flows(inventory, routes, n_flows=150, seed=13)
    return model, routes, flows


class TestGroundTruth:
    def test_ground_truth_builds_feeds(self, small_world):
        model, routes, flows = small_world
        truth = build_ground_truth(model, routes, flows)
        assert truth.monitored_routes
        assert truth.observed_loads.total() > 0
        assert truth.device_ribs


class TestRunFault:
    def test_clean_setup_would_be_accurate(self, small_world):
        """Sanity: without a fault, validation reports no discrepancies."""
        from repro.diagnosis.validation import AccuracyValidator

        model, routes, flows = small_world
        truth = build_ground_truth(model, routes, flows)
        report = AccuracyValidator(model).validate_routes(
            truth.device_ribs, truth.monitored_routes
        )
        assert report.accurate

    def test_single_fault_detected(self, small_world):
        model, routes, flows = small_world
        truth = build_ground_truth(model, routes, flows)
        row = run_fault(truth, fault_by_name("incorrect-input-route-building"))
        assert row.detected
        assert row.route_discrepancies > 0
        assert "dropped" in row.detail

    def test_campaign_subset(self, small_world):
        model, routes, flows = small_world
        subset = [
            fault_by_name("inaccurate-route-monitoring"),
            fault_by_name("bgp-convergence-divergence"),
        ]
        rows = run_campaign(model, routes, flows, faults=subset, seed=1)
        assert len(rows) == 2
        assert all(r.detected for r in rows)

    def test_format_table4(self, small_world):
        model, routes, flows = small_world
        rows = run_campaign(
            model, routes, flows,
            faults=[fault_by_name("inaccurate-route-monitoring")],
        )
        table = format_table4(rows)
        assert "issue class" in table
        assert "inaccurate-route-monitoring" in table
        assert "23.08" in table
