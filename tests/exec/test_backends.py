"""Backend equivalence: the execution backends are observationally identical.

The same seeded workload must produce a byte-identical merged-RIB
fingerprint whether it runs in-process, through thread workers, or through
process workers — and the change-verification pipeline must reach the same
verdict through every backend.
"""

import pytest

from repro.core import ChangePlan, ChangeVerifier, PrefixReaches, fail_link
from repro.distsim.chaos import rib_fingerprint
from repro.exec import (
    BACKEND_NAMES,
    CentralizedBackend,
    DistributedBackend,
    IncrementalBackend,
    RouteSimRequest,
    TrafficSimRequest,
    WarmStart,
    make_backend,
)
from repro.incremental.blast import BlastRadius
from repro.incremental.engine import IncrementalEngine
from repro.net.addr import as_prefix
from repro.obs import RunContext
from repro.routing.inputs import inject_external_route
from repro.workload import (
    WanParams,
    generate_flows,
    generate_input_routes,
    generate_wan,
)

from tests.helpers import build_model
from tests.routing.test_convergence import PFX, chain_model

SEED = 7


@pytest.fixture(scope="module")
def workload():
    model, inventory = generate_wan(
        WanParams(regions=2, cores_per_region=2, seed=SEED)
    )
    routes = generate_input_routes(inventory, n_prefixes=30, redundancy=2,
                                   seed=SEED + 1)
    flows = generate_flows(inventory, routes, n_flows=50, seed=SEED + 2)
    return model, routes, flows


class TestBackendEquivalence:
    def test_all_backends_byte_identical_rib_fingerprint(self, workload):
        model, routes, _ = workload
        fingerprints = {}
        for name in BACKEND_NAMES:
            backend = make_backend(name)
            outcome = backend.run_routes(
                RouteSimRequest(
                    model=model, inputs=routes, include_local_inputs=True,
                    subtasks=8, workers=2,
                )
            )
            assert outcome.backend == name
            fingerprints[name] = rib_fingerprint(outcome.device_ribs)
        assert len(set(fingerprints.values())) == 1, fingerprints

    def test_chunked_centralized_matches_default(self, workload):
        model, routes, _ = workload
        plain = CentralizedBackend().run_routes(
            RouteSimRequest(model=model, inputs=routes,
                            include_local_inputs=True)
        )
        chunked = CentralizedBackend(chunked=True, chunk_size=8).run_routes(
            RouteSimRequest(model=model, inputs=routes,
                            include_local_inputs=True)
        )
        assert rib_fingerprint(plain.device_ribs) == rib_fingerprint(
            chunked.device_ribs
        )

    def test_verifier_verdict_identical_across_backends(self, workload):
        model, routes, flows = workload
        target = model.topology.links[0]
        plan = ChangePlan(
            name="fail-one-link",
            change_type="topology-adjustment",
            topology_ops=[fail_link(target.a.router, target.b.router)],
            intents=[
                PrefixReaches(
                    str(routes[0].route.prefix),
                    [next(iter(model.devices))],
                )
            ],
        )
        reports = {}
        for name in BACKEND_NAMES:
            options = (
                {"route_subtasks": 8, "workers": 2}
                if name.startswith("distributed")
                else {}
            )
            verifier = ChangeVerifier(
                model, routes, flows,
                backend=make_backend(name, **options),
            )
            reports[name] = verifier.verify(plan)
        verdicts = {name: r.ok for name, r in reports.items()}
        assert len(set(verdicts.values())) == 1, verdicts
        satisfied = {
            name: tuple(res.satisfied for res in r.intent_results)
            for name, r in reports.items()
        }
        assert len(set(satisfied.values())) == 1, satisfied
        fingerprints = {
            name: rib_fingerprint(r.updated_world.device_ribs)
            for name, r in reports.items()
        }
        assert len(set(fingerprints.values())) == 1


class TestBackendInterface:
    def test_make_backend_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("quantum")

    def test_backend_names_cover_factory(self):
        for name in BACKEND_NAMES:
            assert make_backend(name).name == name

    def test_centralized_outcome_has_no_makespan_model(self, workload):
        model, routes, _ = workload
        outcome = CentralizedBackend().run_routes(
            RouteSimRequest(model=model, inputs=routes)
        )
        assert outcome.report is None
        assert outcome.subtask_durations == []
        with pytest.raises(ValueError, match="distributed"):
            outcome.makespan(4)

    def test_distributed_outcome_carries_run_report(self, workload):
        model, routes, _ = workload
        outcome = DistributedBackend().run_routes(
            RouteSimRequest(model=model, inputs=routes, subtasks=5)
        )
        assert outcome.report is not None
        assert len(outcome.subtask_durations) == 5
        assert outcome.makespan(2) > 0

    def test_traffic_artifact_sharing_beats_fallback(self, workload):
        """route_outcome enables distributed traffic; without it the
        backend falls back to the in-process simulator — both paths must
        agree on link loads."""
        model, routes, flows = workload
        backend = DistributedBackend()
        route_outcome = backend.run_routes(
            RouteSimRequest(model=model, inputs=routes, subtasks=6)
        )
        shared = backend.run_traffic(
            TrafficSimRequest(
                model=model, flows=flows, route_outcome=route_outcome,
                subtasks=4,
            )
        )
        assert shared.backend == backend.name
        assert shared.task is not None
        fallback = backend.run_traffic(
            TrafficSimRequest(
                model=model, flows=flows,
                device_ribs=route_outcome.device_ribs,
                igp=route_outcome.igp,
            )
        )
        assert fallback.backend == "centralized"
        for key in set(shared.loads.loads) | set(fallback.loads.loads):
            assert shared.loads.loads.get(key, 0.0) == pytest.approx(
                fallback.loads.loads.get(key, 0.0), rel=1e-9
            )

    @pytest.mark.parametrize(
        "name,options",
        [
            ("centralized", {}),
            ("centralized", {"chunked": True}),
            ("distributed-thread", {"route_subtasks": 2, "workers": 2}),
        ],
        ids=["centralized", "chunked", "distributed-thread"],
    )
    def test_request_max_rounds_caps_the_fixpoint(self, name, options):
        """The request's round cap reaches every fixpoint a backend runs."""
        model, names = chain_model(6)
        inputs = [inject_external_route(names[0], PFX, (65010,))]
        capped = make_backend(name, **options).run_routes(
            RouteSimRequest(model=model, inputs=inputs, max_rounds=2)
        )
        # The far end of the chain is out of reach in two rounds.
        assert capped.device_ribs[names[-1]].routes_for(as_prefix(PFX)) == []
        assert capped.device_ribs[names[1]].routes_for(as_prefix(PFX))
        full = make_backend(name, **options).run_routes(
            RouteSimRequest(model=model, inputs=inputs)
        )
        assert full.device_ribs[names[-1]].routes_for(as_prefix(PFX))

    def test_backends_record_spans(self, workload):
        model, routes, _ = workload
        ctx = RunContext("test")
        DistributedBackend().run_routes(
            RouteSimRequest(model=model, inputs=routes, subtasks=4), ctx
        )
        span = ctx.root.find("route_sim")
        assert span is not None
        assert span.meta["backend"] == "distributed-thread"
        assert ctx.counters()["route_sim.calls"] == 1


class TestIncrementalBackend:
    def test_warm_start_solves_the_covered_inputs_in_order(self):
        seen = []

        class Recording(CentralizedBackend):
            def run_routes(self, request, ctx=None):
                seen.append(list(request.inputs))
                return super().run_routes(request, ctx)

        model = build_model([("A", 100)], [])
        items = [
            inject_external_route("A", p, (64999,))
            for p in ("10.1.0.0/16", "10.2.0.0/16", "10.1.4.0/24")
        ]
        base = CentralizedBackend().run_routes(RouteSimRequest(model, items))
        backend = IncrementalBackend(Recording(), IncrementalEngine(model))
        blast = BlastRadius(affected_prefixes=(as_prefix("10.1.0.0/16"),))
        outcome = backend.run_routes(
            RouteSimRequest(
                model, items, warm_start=WarmStart(blast, base.device_ribs)
            )
        )
        # the inputs inside the radius, in their original order
        assert seen == [[items[0], items[2]]]
        assert outcome.resimulated_inputs == 2
        # they solve as they did in the base run: nothing to splice
        assert outcome.device_ribs["A"] is base.device_ribs["A"]
