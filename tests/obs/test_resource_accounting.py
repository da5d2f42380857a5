"""Resource accounting on the observability spine (S1).

Every backend run must leave three things on the :class:`RunContext`:
``memory.peak_rss_bytes`` (a high-water gauge, not an additive counter),
and the ``routes.interned`` / ``routes.unique`` pair reporting how much the
flyweight store deduplicated during that run.
"""

from __future__ import annotations

import pytest

from repro import perfopts
from repro.exec import CentralizedBackend, RouteSimRequest
from repro.obs import RunContext, peak_rss_bytes
from repro.routing import interning
from repro.workload.routes import generate_input_routes
from repro.workload.wan import WanParams, generate_wan


class TestPeakRss:
    def test_reports_a_plausible_byte_count(self):
        rss = peak_rss_bytes()
        # A running CPython interpreter holds at least a few MB; an absurdly
        # large value would mean the KB->bytes scaling regressed.
        assert 1_000_000 < rss < 1 << 46

    def test_is_monotone_within_a_process(self):
        first = peak_rss_bytes()
        ballast = list(range(300_000))
        second = peak_rss_bytes()
        assert second >= first
        del ballast


class TestSetMax:
    def test_keeps_the_maximum(self):
        ctx = RunContext("run")
        ctx.set_max("memory.peak_rss_bytes", 100)
        ctx.set_max("memory.peak_rss_bytes", 70)
        assert ctx.root.counters["memory.peak_rss_bytes"] == 100
        ctx.set_max("memory.peak_rss_bytes", 130)
        assert ctx.root.counters["memory.peak_rss_bytes"] == 130

    def test_lands_on_the_root_span(self):
        # A gauge must not attach to whatever span happens to be open:
        # tree-sum aggregation over child spans would double-count it.
        ctx = RunContext("run")
        with ctx.span("phase"):
            ctx.set_max("memory.peak_rss_bytes", 42)
        assert ctx.root.counters["memory.peak_rss_bytes"] == 42
        assert "memory.peak_rss_bytes" not in ctx.root.find("phase").counters


class TestBackendAccounting:
    @pytest.fixture(scope="class")
    def workload(self):
        model, inventory = generate_wan(WanParams(regions=2, seed=11))
        inputs = generate_input_routes(inventory, n_prefixes=20, seed=11)
        return model, inputs

    def test_route_run_reports_rss_and_interning(self, workload):
        model, inputs = workload
        # Interned records outlive runs: start from an empty table so this
        # run discovers records (misses) as well as reusing them (hits).
        interning.clear()
        ctx = RunContext("route-sim")
        CentralizedBackend().run_routes(
            RouteSimRequest(model=model, inputs=inputs, include_local_inputs=True),
            ctx=ctx,
        )
        counters = ctx.counters()  # tree-aggregated view
        assert counters["memory.peak_rss_bytes"] > 1_000_000
        # The fixpoint evolves routes constantly; a WAN with RR fan-out must
        # both dedup (hits) and discover new attribute tuples (misses).
        assert counters["routes.interned"] > 0
        assert counters["routes.unique"] > 0

    def test_flags_off_reports_no_interning(self, workload):
        model, inputs = workload
        ctx = RunContext("route-sim-baseline")
        with perfopts.configured(intern_routes=False):
            CentralizedBackend().run_routes(
                RouteSimRequest(
                    model=model, inputs=inputs, include_local_inputs=True
                ),
                ctx=ctx,
            )
        counters = ctx.counters()
        assert counters["memory.peak_rss_bytes"] > 0
        assert "routes.interned" not in counters
        assert "routes.unique" not in counters
