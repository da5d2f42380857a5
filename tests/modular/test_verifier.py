"""Summary-guided verification: equivalence and fallback honesty."""

import pytest

from repro.distsim import rib_fingerprint
from repro.modular import RegionSummary, SummaryGuidedVerifier
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
