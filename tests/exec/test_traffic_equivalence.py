"""Fast path on vs off is byte-identical through every execution backend.

The acceptance contract of the data-plane fast path: for the same seeded
WAN workload, the FlowPath sets, per-path fractions, and LinkLoadMap
contents must be identical with the compiled fast path enabled and
disabled — through the centralized backend and both distributed backends
(whose traffic subtasks run the same forwarding engine inside workers).
"""

import pytest

from repro import perfopts
from repro.exec import RouteSimRequest, TrafficSimRequest, make_backend
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)

SEED = 11

FASTPATH_OFF = dict(topo_index=False, spread_memo=False)


@pytest.fixture(scope="module")
def workload():
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=2, seed=SEED)
    )
    routes = generate_input_routes(
        inventory, n_prefixes=25, redundancy=2, seed=SEED + 1
    )
    flows = generate_flows(inventory, routes, n_flows=80, seed=SEED + 2)
    return model, routes, flows


def run_backend(name, model, routes, flows):
    options = {} if name == "centralized" else {"route_subtasks": 6, "workers": 2}
    backend = make_backend(name, **options)
    route_outcome = backend.run_routes(
        RouteSimRequest(model=model, inputs=routes, include_local_inputs=True)
    )
    traffic = backend.run_traffic(
        TrafficSimRequest(
            model=model,
            flows=flows,
            route_outcome=route_outcome,
            subtasks=4,
            workers=2,
        )
    )
    return traffic


def paths_snapshot(outcome):
    """Flow -> ordered (routers, status, matched, detail, fraction) tuples."""
    return {
        flow: tuple(
            (tuple(p.routers), p.status, tuple(p.matched_prefixes), p.detail, f)
            for p, f in spread
        )
        for flow, spread in outcome.paths.items()
    }


class TestFastPathAcrossBackends:
    @pytest.mark.parametrize("name", ["centralized", "distributed-thread"])
    def test_flags_on_off_identical(self, workload, name):
        model, routes, flows = workload
        on = run_backend(name, model, routes, flows)
        with perfopts.configured(**FASTPATH_OFF):
            off = run_backend(name, model, routes, flows)
        assert paths_snapshot(on) == paths_snapshot(off)
        assert on.loads.loads == off.loads.loads
        assert on.loads.total() == off.loads.total()

    def test_backends_agree_with_fast_path_on(self, workload):
        model, routes, flows = workload
        outcomes = {
            name: run_backend(name, model, routes, flows)
            for name in ("centralized", "distributed-thread")
        }
        snapshots = {name: paths_snapshot(o) for name, o in outcomes.items()}
        # Distributed traffic covers member flows via their EC representative;
        # compare the path set of every flow each pair has in common.
        names = list(snapshots)
        reference = snapshots[names[0]]
        for name in names[1:]:
            other = snapshots[name]
            shared = set(reference) & set(other)
            assert shared, "backends produced disjoint flow sets"
            for flow in shared:
                assert reference[flow] == other[flow], (name, flow)
        totals = {name: o.loads.total() for name, o in outcomes.items()}
        for name, total in totals.items():
            assert total == pytest.approx(totals["centralized"], rel=1e-9), name
