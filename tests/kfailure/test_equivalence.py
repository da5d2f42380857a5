"""Equivalence harness: warm/pruned exploration vs cold enumeration.

The shared-fixpoint engine's whole contract is that warm-start deltas and
equivalence-class pruning are *pure optimizations*:
verdicts and violation sets must be byte-identical to cold exhaustive
re-simulation of every scenario. These tests pin that across backends
(centralized, distributed) and scenario kinds (link, router,
mixed), down to per-scenario RIB contents.
"""

from __future__ import annotations

import pytest

from repro.exec import make_backend
from repro.kfailure import KFailureEngine, reachability_property
from repro.routing.inputs import inject_external_route
from repro.workload.routes import generate_input_routes
from repro.workload.wan import WanParams, generate_wan

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"


def redundant_world(parallel_bundle: bool = False):
    """A reaches D via B or C; optionally with a parallel A-B link bundle."""
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("B", "D", 10), ("A", "C", 10), ("C", "D", 10)],
    )
    if parallel_bundle:
        model.topology.connect("A", "B", igp_cost=10)
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    return model, [inject_external_route("D", PFX, (65010,))]


def small_wan():
    params = WanParams(
        regions=2,
        cores_per_region=2,
        borders_per_region=1,
        dc_edges_per_region=1,
        isps_per_border=1,
    )
    model, inventory = generate_wan(params)
    inputs = generate_input_routes(inventory, n_prefixes=10)
    prop = reachability_property(
        str(inputs[0].route.prefix), sorted(model.devices)[:4]
    )
    return model, inputs, prop


def verdict_fingerprint(result):
    """Everything the equivalence contract pins, as comparable data."""
    return (
        result.ok,
        result.scenarios_checked,
        result.truncated,
        [
            (v.failed_links, v.failed_routers, tuple(v.violations))
            for v in result.violations
        ],
    )


def run(model, inputs, prop, k, **kwargs):
    engine = KFailureEngine(model, inputs, **kwargs)
    return engine.check(k, prop)


class TestWarmPrunedEquivalence:
    @pytest.mark.parametrize("bundle", [False, True])
    def test_link_scenarios_match_cold(self, bundle):
        model, inputs = redundant_world(parallel_bundle=bundle)
        prop = reachability_property(PFX, ["A", "B"])
        cold = run(model, inputs, prop, 2, warm=False, prune=False)
        warm = run(model, inputs, prop, 2)
        assert verdict_fingerprint(warm) == verdict_fingerprint(cold)
        assert warm.scenarios_simulated < cold.scenarios_simulated or not bundle

    def test_router_and_mixed_scenarios_match_cold(self):
        model, inputs = redundant_world()
        prop = reachability_property(PFX, ["A", "B"])
        kwargs = dict(fail_links=True, fail_routers=True)
        cold = run(model, inputs, prop, 2, warm=False, prune=False, **kwargs)
        warm = run(model, inputs, prop, 2, **kwargs)
        assert verdict_fingerprint(warm) == verdict_fingerprint(cold)
        # Mixed scenarios prune: a router plus one of its own links is the
        # same class as the router alone.
        assert warm.scenarios_pruned > 0

    def test_router_only_scenarios_match_cold(self):
        model, inputs = redundant_world()
        prop = reachability_property(PFX, ["A"])
        kwargs = dict(fail_links=False, fail_routers=True)
        cold = run(model, inputs, prop, 2, warm=False, prune=False, **kwargs)
        warm = run(model, inputs, prop, 2, **kwargs)
        assert verdict_fingerprint(warm) == verdict_fingerprint(cold)

    def test_wan_scenarios_match_cold(self):
        model, inputs, prop = small_wan()
        cold = run(model, inputs, prop, 1, warm=False, prune=False)
        warm = run(model, inputs, prop, 1)
        assert verdict_fingerprint(warm) == verdict_fingerprint(cold)

    def test_wan_double_failures_match_cold(self):
        model, inputs, prop = small_wan()
        links = list(model.topology.links)[:6]
        cold = run(model, inputs, prop, 2, warm=False, prune=False, links=links)
        warm = run(model, inputs, prop, 2, links=links)
        assert verdict_fingerprint(warm) == verdict_fingerprint(cold)


class TestPerScenarioRibEquivalence:
    """Stronger than verdicts: the spliced RIBs equal the cold-run RIBs."""

    @staticmethod
    def capture_property(captured):
        def prop(model, simulation):
            captured.append(
                {
                    name: frozenset(
                        (row.vrf, repr(row.route), row.route_type)
                        for row in rib.all_rows()
                    )
                    for name, rib in simulation.device_ribs.items()
                }
            )
            return []

        return prop

    @pytest.mark.parametrize("fail_routers", [False, True])
    def test_spliced_ribs_identical(self, fail_routers):
        model, inputs = redundant_world(parallel_bundle=True)
        cold_ribs, warm_ribs = [], []
        kwargs = dict(fail_links=True, fail_routers=fail_routers)
        run(
            model,
            inputs,
            self.capture_property(cold_ribs),
            2,
            warm=False,
            prune=False,
            **kwargs,
        )
        # prune off so every scenario calls the property with its own ribs.
        run(
            model,
            inputs,
            self.capture_property(warm_ribs),
            2,
            warm=True,
            prune=False,
            **kwargs,
        )
        assert len(cold_ribs) == len(warm_ribs)
        for index, (cold, warm) in enumerate(zip(cold_ribs, warm_ribs)):
            assert cold == warm, f"scenario {index} ribs diverge"


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend_name", ["centralized", "distributed-thread"])
    def test_warm_backends_match_cold_centralized(self, backend_name):
        model, inputs, prop = small_wan()
        cold = run(model, inputs, prop, 1, warm=False, prune=False)
        warm = run(
            model, inputs, prop, 1, backend=make_backend(backend_name)
        )
        assert verdict_fingerprint(warm) == verdict_fingerprint(cold)
