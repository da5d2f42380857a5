"""Summary-guided verification: equivalence, fallback honesty, distsim path."""

import pytest

from repro.distsim import (
    DistributedRouteSimulation,
    RegionPartitioner,
    rib_fingerprint,
)
from repro.routing.connected import install_connected_routes
from repro.modular import RegionSummary, SummaryGuidedVerifier
from repro.modular.verifier import simulate_region_subtask
from repro.obs import RunContext
from repro.routing.inputs import build_local_input_routes
from repro.routing.simulator import RouteSimulator


@pytest.fixture(scope="module")
def all_inputs(workload):
    model, routes, _ = workload
    return build_local_input_routes(model) + list(routes)


@pytest.fixture(scope="module")
def centralized_fp(workload, all_inputs):
    model, _, _ = workload
    result = RouteSimulator(model).simulate(
        all_inputs, include_local_inputs=False
    )
    return rib_fingerprint(result.device_ribs)


class TestSolveEquivalence:
    def test_composition_is_byte_identical_to_centralized(
        self, workload, all_inputs, centralized_fp
    ):
        model, _, _ = workload
        verifier = SummaryGuidedVerifier(model)
        result = verifier.solve(all_inputs)
        assert not result.fallback
        assert result.regions == ("region0", "region1", "region2")
        ribs = RouteSimulator(model, igp=verifier.igp).assemble_ribs(result.bgp)
        assert rib_fingerprint(ribs) == centralized_fp

    def test_counters_report_independent_regions(self, workload, all_inputs):
        model, _, _ = workload
        ctx = RunContext("test")
        SummaryGuidedVerifier(model).solve(all_inputs, ctx=ctx)
        counters = ctx.counters()
        assert counters["modular.regions"] == 3
        assert counters["modular.regions_verified_independently"] == 3
        assert counters["modular.border_messages"] > 0
        assert "modular.summary_violations" not in counters

    def test_self_computed_summaries_pass_as_assumptions(
        self, workload, all_inputs, centralized_fp
    ):
        """Assume-then-check with the converged summaries themselves: no
        violations, and the composition still matches centralized."""
        model, _, _ = workload
        first = SummaryGuidedVerifier(model).solve(all_inputs)
        verifier = SummaryGuidedVerifier(model)
        result = verifier.solve(all_inputs, assume=first.summaries)
        assert not result.fallback
        assert not result.violations
        ribs = RouteSimulator(model, igp=verifier.igp).assemble_ribs(result.bgp)
        assert rib_fingerprint(ribs) == centralized_fp

    def test_seeded_solve_matches_and_counts(
        self, workload, all_inputs, centralized_fp
    ):
        model, _, _ = workload
        first = SummaryGuidedVerifier(model).solve(all_inputs)
        ctx = RunContext("test")
        verifier = SummaryGuidedVerifier(model)
        result = verifier.solve(all_inputs, seed=first.summaries, ctx=ctx)
        assert not result.fallback
        assert ctx.counters()["modular.summary_seeds"] > 0
        ribs = RouteSimulator(model, igp=verifier.igp).assemble_ribs(result.bgp)
        assert rib_fingerprint(ribs) == centralized_fp

    def test_stale_seed_self_corrects(
        self, workload, all_inputs, centralized_fp
    ):
        """A tampered cache entry costs exchange rounds, never answers."""
        model, _, _ = workload
        first = SummaryGuidedVerifier(model).solve(all_inputs)
        stale = dict(first.summaries)
        victim = "region1"
        stale[victim] = RegionSummary(region=victim, exports={})
        verifier = SummaryGuidedVerifier(model)
        result = verifier.solve(all_inputs, seed=stale)
        assert not result.fallback
        ribs = RouteSimulator(model, igp=verifier.igp).assemble_ribs(result.bgp)
        assert rib_fingerprint(ribs) == centralized_fp


class TestFallbackHonesty:
    def test_wrong_assumptions_surface_violations(self, workload, all_inputs):
        """Operator-claimed empty summaries are violated by every region
        that actually exports — structured counter-examples, fallback set,
        no merged BGP state to mistake for an answer."""
        model, _, _ = workload
        verifier = SummaryGuidedVerifier(model)
        empty_claims = {
            region: RegionSummary(region=region, exports={})
            for region in verifier.assignment.regions
        }
        ctx = RunContext("test")
        result = verifier.solve(all_inputs, assume=empty_claims, ctx=ctx)
        assert result.fallback
        assert result.bgp is None
        assert result.violations
        assert ctx.counters()["modular.summary_violations"] == len(
            result.violations
        )
        violation = result.violations[0]
        assert violation.claimed == ()
        assert violation.actual

    def test_exhausted_exchange_budget_falls_back(self, workload, all_inputs):
        """With a zero exchange budget any cross-region churn is reported
        as instability instead of being silently absorbed."""
        model, _, _ = workload
        verifier = SummaryGuidedVerifier(model, exchange_rounds=0)
        result = verifier.solve(all_inputs)
        assert result.fallback
        assert result.violations


class TestDistsimRegionSubtasks:
    def test_region_contexts_cover_all_regions(self, workload, all_inputs):
        model, _, _ = workload
        verifier = SummaryGuidedVerifier(model)
        result = verifier.solve(all_inputs)
        contexts = verifier.region_contexts(result.summaries)
        assert set(contexts) == set(verifier.assignment.regions)
        for region, context in contexts.items():
            assert context.devices == verifier.assignment.devices_in(region)
            assert context.assumptions  # every region hears its neighbors

    def test_worker_subtask_matches_region_solver(self, workload, all_inputs):
        model, _, _ = workload
        verifier = SummaryGuidedVerifier(model)
        result = verifier.solve(all_inputs)
        contexts = verifier.region_contexts(result.summaries)
        region = "region1"
        region_inputs = [
            item
            for item in all_inputs
            if verifier.assignment.region_for(item.router) == region
        ]
        ribs = simulate_region_subtask(
            model, verifier.igp, contexts[region], region_inputs
        )
        assert set(ribs) == set(contexts[region].devices)

    def test_master_ships_contexts_and_merge_matches_centralized(
        self, workload, all_inputs, centralized_fp
    ):
        model, _, _ = workload
        verifier = SummaryGuidedVerifier(model)
        result = verifier.solve(all_inputs)
        contexts = verifier.region_contexts(result.summaries)
        partitioner = RegionPartitioner(verifier.assignment, contexts)
        ctx = RunContext("test")
        sim = DistributedRouteSimulation(model)
        task = sim.run(
            all_inputs, subtasks=64, workers=2, partitioner=partitioner,
            ctx=ctx,
        )
        install_connected_routes(model, task.device_ribs)
        assert rib_fingerprint(task.device_ribs) == centralized_fp
        counters = ctx.counters()
        assert counters["distsim.region_contexts"] == 3
        assert counters["distsim.subtasks_dispatched"] == 3

    def test_empty_region_chunk_with_context_still_dispatched(self, workload):
        """A region without own inputs still learns routes from neighbor
        claims, so its chunk must not be skipped."""
        model, routes, _ = workload
        all_inputs = build_local_input_routes(model) + list(routes)
        verifier = SummaryGuidedVerifier(model)
        result = verifier.solve(all_inputs)
        contexts = verifier.region_contexts(result.summaries)
        # Strip region2's own inputs: its chunk is empty but contextful.
        pruned = [
            item
            for item in all_inputs
            if verifier.assignment.region_for(item.router) != "region2"
        ]
        partitioner = RegionPartitioner(verifier.assignment, contexts)
        sim = DistributedRouteSimulation(model)
        task = sim.run(pruned, subtasks=64, workers=1, partitioner=partitioner)
        assert task.skipped_subtasks == 0
        region2 = verifier.assignment.devices_in("region2")
        assert any(device in task.device_ribs for device in region2)
