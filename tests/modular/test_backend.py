"""ModularBackend: fallback honesty and summary stores."""

import pytest

from repro.distsim.chaos import rib_fingerprint
from repro.exec import CentralizedBackend, ModularBackend, RouteSimRequest
from repro.modular import RegionSummary, assign_regions
from repro.obs import RunContext


class DictStore:
    """Minimal summary_store: the protocol is get(region)/put(region, s)."""

    def __init__(self):
        self.data = {}

    def get(self, region):
        return self.data.get(region)

    def put(self, region, summary):
        self.data[region] = summary


@pytest.fixture(scope="module")
def centralized_outcome(workload):
    model, routes, _ = workload
    return CentralizedBackend().run_routes(
        RouteSimRequest(model=model, inputs=routes, include_local_inputs=True)
    )


class TestFallbackHonesty:
    def test_forced_violation_stays_byte_identical(
        self, workload, centralized_outcome
    ):
        """Deliberately wrong operator claims (empty exports everywhere)
        must trip the guarantee check and route through full simulation —
        same bytes out, with the violation surfaced, never silently used."""
        model, routes, _ = workload
        claims = {
            region: RegionSummary(region=region, exports={})
            for region in assign_regions(model).regions
        }
        backend = ModularBackend(assume=claims)
        ctx = RunContext("test")
        outcome = backend.run_routes(
            RouteSimRequest(
                model=model, inputs=routes, include_local_inputs=True
            ),
            ctx,
        )
        assert rib_fingerprint(outcome.device_ribs) == rib_fingerprint(
            centralized_outcome.device_ribs
        )
        counters = ctx.counters()
        assert counters["modular.fallbacks"] == 1
        assert counters["modular.summary_violations"] > 0
        assert backend.last_violations
        assert backend.last_result is not None and backend.last_result.fallback

    def test_clean_run_does_not_fall_back(self, workload, centralized_outcome):
        model, routes, _ = workload
        backend = ModularBackend()
        ctx = RunContext("test")
        outcome = backend.run_routes(
            RouteSimRequest(
                model=model, inputs=routes, include_local_inputs=True
            ),
            ctx,
        )
        assert rib_fingerprint(outcome.device_ribs) == rib_fingerprint(
            centralized_outcome.device_ribs
        )
        counters = ctx.counters()
        assert "modular.fallbacks" not in counters
        assert counters["modular.regions_verified_independently"] == 3
        assert backend.last_violations == []


class TestSummaryStore:
    def test_publish_then_warm_start(self, workload, centralized_outcome):
        model, routes, _ = workload
        store = DictStore()
        request = RouteSimRequest(
            model=model, inputs=routes, include_local_inputs=True
        )

        first_ctx = RunContext("test")
        ModularBackend(summary_store=store).run_routes(request, first_ctx)
        assert set(store.data) == set(assign_regions(model).regions)
        assert first_ctx.counters()["modular.summaries_published"] == 3

        second_ctx = RunContext("test")
        outcome = ModularBackend(summary_store=store).run_routes(
            request, second_ctx
        )
        assert second_ctx.counters()["modular.summary_seeds"] > 0
        assert rib_fingerprint(outcome.device_ribs) == rib_fingerprint(
            centralized_outcome.device_ribs
        )

    def test_poisoned_store_only_costs_time(self, workload, centralized_outcome):
        """Cache corruption must never change answers: a poisoned entry is
        re-derived by the exchange loop, not trusted."""
        model, routes, _ = workload
        store = DictStore()
        store.data["region0"] = RegionSummary(region="region0", exports={})
        outcome = ModularBackend(summary_store=store).run_routes(
            RouteSimRequest(
                model=model, inputs=routes, include_local_inputs=True
            )
        )
        assert rib_fingerprint(outcome.device_ribs) == rib_fingerprint(
            centralized_outcome.device_ribs
        )
