"""Memoized forwarding state must never outlive the model it describes.

Every cache behind the fast path (topology indices, the spread memo) is
invalidated by version counters; these tests mutate the world in every
supported way — failure overlay toggles on a live engine, RIB installs,
``NetworkModel.copy()``, an incremental ``build_updated_model`` — and
assert the warm engine answers exactly like a freshly built one.
"""

from repro import perfopts
from repro.core import ChangePlan, fail_link
from repro.net.device import AclConfig, AclRuleConfig
from repro.net.addr import IPAddress, Prefix
from repro.routing.attributes import Route
from repro.routing.inputs import inject_external_route
from repro.routing.rib import DeviceRib
from repro.routing.simulator import simulate_routes
from repro.traffic import ForwardingEngine, TrafficSimulator, make_flow

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"
DST = "203.0.113.9"


def snap(spread):
    return [
        (tuple(p.routers), p.status, tuple(p.matched_prefixes), p.detail, f)
        for p, f in spread
    ]


def square_model():
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("A", "C", 10), ("B", "D", 10), ("C", "D", 10)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    return model


def flows():
    return [
        make_flow("A", f"10.0.{i}.1", DST, src_port=100 + i, volume=3.0)
        for i in range(12)
    ]


def spread_all(engine):
    return [snap(engine.forward_spread(f)) for f in flows()]


class TestFailureOverlayInvalidation:
    def test_fail_and_restore_link_on_live_engine(self):
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        engine = ForwardingEngine(model, result.device_ribs, result.igp)
        before = spread_all(engine)

        link = model.topology.find_link("A", "B")
        model.topology.fail_link(link)
        fresh = ForwardingEngine(model, result.device_ribs, result.igp)
        assert spread_all(engine) == spread_all(fresh)
        assert engine.stats.invalidations >= 1

        model.topology.restore_link(link)
        assert spread_all(engine) == before

    def test_fail_router_on_live_engine(self):
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        engine = ForwardingEngine(model, result.device_ribs, result.igp)
        spread_all(engine)  # warm every cache
        model.topology.fail_router("B")
        fresh = ForwardingEngine(model, result.device_ribs, result.igp)
        assert spread_all(engine) == spread_all(fresh)

    def test_rib_mutation_invalidates_spread_memo(self):
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        engine = ForwardingEngine(model, result.device_ribs, result.igp)
        flow = make_flow("A", "10.0.0.1", "198.51.100.9")
        before = snap(engine.forward_spread(flow))
        assert [status for _, status, *_ in before] == ["dropped"]
        # Install a covering route after the miss was memoized.
        template = result.device_ribs["A"].lpm(IPAddress.parse(DST))
        route = template[1][0]
        new_route = Route(
            prefix=Prefix.parse("198.51.100.0/24"),
            nexthop=route.nexthop,
            as_path=route.as_path,
            source=route.source,
            origin_router=route.origin_router,
        )
        invalidations = engine.stats.invalidations
        result.device_ribs["A"].install(new_route)
        after = snap(engine.forward_spread(flow))
        assert engine.stats.invalidations == invalidations + 1
        assert after != before
        fresh = ForwardingEngine(model, result.device_ribs, result.igp)
        assert after == snap(fresh.forward_spread(flow))
        # The new route matched on A (instead of the memoized miss).
        assert all("198.51.100.0/24" in matched for _, _, matched, *_ in after)

    def test_swapped_rib_with_equal_mutation_count_invalidates(self):
        """Replacing a RIB object is a change even when the new RIB went
        through as many mutations as the old one."""
        model = square_model()
        result = simulate_routes(model, [inject_external_route("A", PFX, (65010,))])
        ribs = result.device_ribs
        engine = ForwardingEngine(model, ribs, result.igp)
        flow = make_flow("A", "10.0.0.1", DST)
        assert [p.status for p, _ in engine.forward_spread(flow)] == ["exited"]

        old = ribs["A"]
        unrelated = Route(
            prefix=Prefix.parse("198.51.100.0/24"),
            nexthop=IPAddress.parse("10.255.0.1"),
            source="ibgp",
        )
        swapped = DeviceRib("A")
        # Ordinary installs until the new RIB has seen at least as many
        # mutations as the old one: a stamp built from per-RIB mutation
        # counts (say their sum) could not tell the two apart.
        while swapped.generation < old.generation:
            swapped.install(unrelated)
        ribs["A"] = swapped
        after = snap(engine.forward_spread(flow))
        fresh = ForwardingEngine(model, ribs, result.igp)
        assert after == snap(fresh.forward_spread(flow))
        assert [status for _, status, *_ in after] == ["dropped"]


class TestCopySemantics:
    def test_model_copy_engines_are_independent(self):
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        engine = ForwardingEngine(model, result.device_ribs, result.igp)
        before = spread_all(engine)

        clone = model.copy()
        clone_result = simulate_routes(
            clone, [inject_external_route("D", PFX, (65010,))]
        )
        clone_engine = ForwardingEngine(
            clone, clone_result.device_ribs, clone_result.igp
        )
        spread_all(clone_engine)  # warm the clone's caches
        clone.topology.fail_link(clone.topology.find_link("A", "B"))
        clone_fresh = ForwardingEngine(
            clone, clone_result.device_ribs, clone_result.igp
        )
        assert spread_all(clone_engine) == spread_all(clone_fresh)
        # The original engine is untouched by mutations of the copy.
        assert spread_all(engine) == before

    def test_simulator_results_match_pristine_run(self):
        """A warm simulator on an updated model equals an all-flags-off run."""
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        sim = TrafficSimulator(model, result.device_ribs, result.igp)
        sim.simulate(flows())  # warm topology + spread caches
        model.topology.fail_link(model.topology.find_link("B", "D"))
        warm = sim.simulate(flows())
        with perfopts.configured(topo_index=False, spread_memo=False):
            cold = TrafficSimulator(model, result.device_ribs, result.igp).simulate(
                flows()
            )
        assert {f: snap(s) for f, s in warm.paths.items()} == {
            f: snap(s) for f, s in cold.paths.items()
        }
        assert warm.loads.loads == cold.loads.loads


class TestIncrementalModelInvalidation:
    def test_build_updated_model_equals_fresh_engine(self):
        model = square_model()
        inputs = [inject_external_route("D", PFX, (65010,))]
        base_result = simulate_routes(model, inputs)
        base_engine = ForwardingEngine(model, base_result.device_ribs, base_result.igp)
        spread_all(base_engine)  # warm the base world's caches

        plan = ChangePlan(
            name="fail-ab",
            change_type="topology-adjustment",
            topology_ops=[fail_link("A", "B")],
        )
        updated = plan.build_updated_model(model)
        updated_result = simulate_routes(updated, inputs)
        warm_engine = ForwardingEngine(
            updated, updated_result.device_ribs, updated_result.igp
        )
        with perfopts.configured(topo_index=False, spread_memo=False):
            fresh_engine = ForwardingEngine(
                updated, updated_result.device_ribs, updated_result.igp
            )
            expected = spread_all(fresh_engine)
        assert spread_all(warm_engine) == expected
        # Base world still answers as before the plan was applied.
        fresh_base = ForwardingEngine(
            model, base_result.device_ribs, base_result.igp
        )
        assert spread_all(base_engine) == spread_all(fresh_base)


class TestExplicitInvalidate:
    def test_invalidate_picks_up_device_config_edits(self):
        """Device configs carry no version counter; invalidate() is the hatch."""
        model = square_model()
        result = simulate_routes(model, [inject_external_route("D", PFX, (65010,))])
        engine = ForwardingEngine(model, result.device_ribs, result.igp)
        spread_all(engine)  # memoize the unblocked decisions

        acl = AclConfig(name="LATE")
        acl.add(
            AclRuleConfig(seq=10, action="deny", dst_prefix=Prefix.parse(PFX))
        )
        device_b = model.device("B")
        device_b.add_acl(acl)
        link = model.topology.find_link("A", "B")
        device_b.bind_acl(link.interface_on("B").name, "LATE")
        device_d = model.device("D")
        link_cd = model.topology.find_link("C", "D")
        device_d.add_acl(acl)
        device_d.bind_acl(link_cd.interface_on("D").name, "LATE")

        engine.invalidate()
        fresh = ForwardingEngine(model, result.device_ribs, result.igp)
        assert spread_all(engine) == spread_all(fresh)
        statuses = {
            p.status
            for f in flows()
            for p, _ in engine.forward_spread(f)
        }
        assert "blocked" in statuses
