"""Representative solving in ``RouteSimulator`` is invisible in the RIBs.

With the ``route_ecs`` perf flag on, ``simulate()`` runs the BGP fixpoint
for one representative prefix group per §3.1 equivalence class and clones
the rows onto the member prefixes. These tests pin that the device RIBs
are byte-identical to the raw solve — on a generated WAN, on hand-built
cases that stress each cross-prefix channel, and through the warm-start
k-failure path — and that inputs with nothing to merge bypass the
reduction altogether.
"""

from __future__ import annotations

import pytest

from repro import perfopts
from repro.core import ChangePlan, ChangeVerifier, remove_link
from repro.distsim.chaos import rib_fingerprint
from repro.exec import RouteSimRequest, make_backend
from repro.exec.incremental import IncrementalBackend, WarmStart
from repro.exec.centralized import CentralizedBackend
from repro.incremental.engine import IncrementalEngine
from repro.kfailure import FailureBlastAnalyzer
from repro.kfailure.scenarios import apply_scenario, enumerate_scenarios
from repro.net.addr import Prefix
from repro.net.device import VrfConfig
from repro.obs import RunContext
from repro.routing.bgp import BgpSimulator
from repro.routing.inputs import build_local_input_routes, inject_external_route
from repro.routing.simulator import RouteSimulator, simulate_routes
from repro.workload import WanParams, generate_input_routes, generate_wan

from tests.helpers import build_model, full_mesh_ibgp


@pytest.fixture(autouse=True)
def route_ecs_on():
    """The flag under test is on whatever the session's base flags are."""
    with perfopts.configured(route_ecs=True):
        yield


def both_ways(model, inputs, **kwargs):
    """(reduced, raw) results of the same simulation."""
    reduced = simulate_routes(model, inputs, **kwargs)
    with perfopts.configured(route_ecs=False):
        raw = simulate_routes(model, inputs, **kwargs)
    assert raw.route_ecs is None
    return reduced, raw


def assert_same_ribs(reduced, raw):
    assert rib_fingerprint(reduced.device_ribs) == rib_fingerprint(raw.device_ribs)
    assert list(reduced.device_ribs) == list(raw.device_ribs)


def chain(n_prefixes=6, third_octet=0):
    """eBGP injection at A, iBGP full mesh A-B-C."""
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100)],
        links=[("A", "B", 10), ("B", "C", 10)],
    )
    full_mesh_ibgp(model, ["A", "B", "C"])
    inputs = [
        inject_external_route("A", f"10.{third_octet}.{i}.0/24", (65010,))
        for i in range(n_prefixes)
    ]
    return model, inputs


class TestRibsIdentical:
    @pytest.mark.parametrize("seed", [3, 19])
    def test_generated_wan(self, seed):
        model, inventory = generate_wan(
            WanParams(regions=2, cores_per_region=2, seed=seed)
        )
        inputs = generate_input_routes(
            inventory, n_prefixes=40, redundancy=2, seed=seed + 1
        )
        reduced, raw = both_ways(model, inputs)
        index = reduced.route_ecs
        assert index is not None and len(index.classes) < index.total_groups
        assert_same_ribs(reduced, raw)
        # the fixpoint really ran on the representatives only
        assert reduced.stats.messages < raw.stats.messages
        solved = {p for slots in reduced.bgp.selections.values() for _, p in slots}
        skipped = {
            member
            for rep, members in index.members_by_representative().items()
            for member in members
            if member != rep
        }
        assert skipped and not solved & skipped

    def test_summary_only_aggregate_over_class_members(self):
        model, inputs = chain()
        model.device("A").add_aggregate("10.0.0.0/8", summary_only=True)
        reduced, raw = both_ways(model, inputs)
        assert len(reduced.route_ecs.classes) == 1
        assert_same_ribs(reduced, raw)
        # B sees the aggregate and none of the suppressed members
        seen_by_b = set(reduced.device_ribs["B"].prefixes())
        assert Prefix.parse("10.0.0.0/8") in seen_by_b
        assert not seen_by_b & {item.route.prefix for item in inputs}

    def test_input_prefix_equal_to_an_aggregate_is_not_a_member(self):
        # The aggregate slot 10.0.0.0/16 holds a derived route beside the
        # input route; cloning another prefix's rows onto it would lose it.
        model, inputs = chain(n_prefixes=3)
        inputs = [
            inject_external_route("A", "10.9.0.0/16", (65010,)),
            inject_external_route("A", "10.0.0.0/16", (65010,)),
            *inputs,
        ]
        model.device("A").add_aggregate("10.0.0.0/16")
        reduced, raw = both_ways(model, inputs, keep_candidates=True)
        members = reduced.route_ecs.members_by_representative()
        assert members[Prefix.parse("10.0.0.0/16")] == [Prefix.parse("10.0.0.0/16")]
        assert_same_ribs(reduced, raw)

    def test_vrf_leak(self):
        model, _ = chain()
        device = model.device("A")
        device.add_vrf(VrfConfig(name="vrf1", export_rts={"100:1"}))
        device.add_vrf(VrfConfig(name="vrf2", import_rts={"100:1"}))
        inputs = [
            inject_external_route("A", f"10.0.{i}.0/24", (65010,), vrf="vrf1")
            for i in range(5)
        ]
        reduced, raw = both_ways(model, inputs)
        assert reduced.route_ecs is not None
        assert_same_ribs(reduced, raw)
        assert len(reduced.device_ribs["A"].prefixes("vrf2")) == 5

    def test_static_competing_with_bgp_for_a_member_prefix(self):
        model, inputs = chain()
        member = str(inputs[3].route.prefix)
        model.device("C").add_static(member, "10.255.0.2")
        reduced, raw = both_ways(model, inputs)
        assert reduced.route_ecs.classes[0].representative_prefix != Prefix.parse(
            member
        )
        assert_same_ribs(reduced, raw)
        slot = reduced.device_ribs["C"].entries_for(Prefix.parse(member))
        types = [route_type for _, route_type in slot]
        assert types == ["BEST", "CANDIDATE"]  # static wins, BGP demoted

    def test_down_router_keeps_its_empty_rib(self):
        model, inputs = chain()
        model.topology.fail_router("C")
        reduced, raw = both_ways(model, inputs)
        assert_same_ribs(reduced, raw)
        assert reduced.device_ribs["C"].route_count() == 0

    def test_keep_candidates(self):
        model = build_model(
            routers=[("A", 100), ("B", 100), ("C", 100)],
            links=[("A", "B", 10), ("B", "C", 10), ("A", "C", 50)],
        )
        full_mesh_ibgp(model, ["A", "B", "C"])
        inputs = [
            inject_external_route(router, f"10.0.{i}.0/24", path)
            for i in range(5)
            for router, path in (("A", (65010,)), ("C", (65020, 65010)))
        ]
        reduced, raw = both_ways(model, inputs, keep_candidates=True)
        assert_same_ribs(reduced, raw)
        rows = list(reduced.device_ribs["B"].all_rows())
        assert any(row.route_type == "CANDIDATE" for row in rows)


class TestBypass:
    def fixpoint_inputs(self, monkeypatch, model, inputs):
        """What ``BgpSimulator.run`` was handed and what it then solved."""
        handed, solved = [], []
        run, seed = BgpSimulator.run, BgpSimulator.seed

        def spy_run(self, input_routes, route_ecs=None):
            handed.append(list(input_routes))
            return run(self, input_routes, route_ecs=route_ecs)

        def spy_seed(self, input_routes):
            solved.append(list(input_routes))
            return seed(self, input_routes)

        monkeypatch.setattr(BgpSimulator, "run", spy_run)
        monkeypatch.setattr(BgpSimulator, "seed", spy_seed)
        result = RouteSimulator(model).simulate(inputs, include_local_inputs=False)
        assert handed == [inputs]  # always the raw inputs, reduced or not
        return result, solved[0]

    def test_single_prefix_group(self, monkeypatch):
        model, inputs = chain(n_prefixes=1)
        result, solved = self.fixpoint_inputs(monkeypatch, model, inputs)
        assert result.route_ecs is None
        assert solved == inputs

    def test_no_two_groups_merge(self, monkeypatch):
        model, _ = chain()
        inputs = [
            inject_external_route("A", "10.0.0.0/24", (65010,)),
            inject_external_route("A", "10.0.1.0/24", (65020,)),
            inject_external_route("B", "10.0.2.0/24", (65010,)),
        ]
        result, solved = self.fixpoint_inputs(monkeypatch, model, inputs)
        assert result.route_ecs is None
        assert solved == inputs

    def test_merging_groups_reach_the_fixpoint_as_representatives(self, monkeypatch):
        model, inputs = chain()
        result, solved = self.fixpoint_inputs(monkeypatch, model, inputs)
        assert result.route_ecs is not None
        assert solved == inputs[:1]


def trunked_wan():
    model, inventory = generate_wan(
        WanParams(
            regions=2,
            cores_per_region=2,
            borders_per_region=1,
            dc_edges_per_region=1,
            isps_per_border=1,
            trunk_members=2,
        )
    )
    inputs = generate_input_routes(inventory, n_prefixes=12)
    return model, inputs + build_local_input_routes(model)


class TestWarmStart:
    """Every k=1 scenario: spliced warm RIBs == cold RIBs, flag on and off."""

    def scenario_records(self):
        model, inputs = trunked_wan()
        base = RouteSimulator(model).simulate(inputs, include_local_inputs=False)
        analyzer = FailureBlastAnalyzer(model, base)
        engine = IncrementalEngine(model)
        engine.snapshot_base(base.device_ribs)
        backend = IncrementalBackend(CentralizedBackend(), engine)
        scenarios, _ = enumerate_scenarios(model, 1)
        records = []
        for scenario in scenarios:
            restore = apply_scenario(model.topology, scenario)
            try:
                effect = analyzer.effect(
                    model, analyzer.class_key(model, scenario)
                )
                warm = backend.run_routes(
                    RouteSimRequest(
                        model=model,
                        inputs=inputs,
                        igp=effect.igp,
                        warm_start=WarmStart(
                            blast=effect.blast,
                            base_ribs=base.device_ribs,
                            full_devices=effect.failed_routers,
                        ),
                    )
                )
                with perfopts.configured(route_ecs=False):
                    cold = RouteSimulator(model, igp=effect.igp).simulate(
                        inputs, include_local_inputs=False
                    )
                records.append(
                    (
                        frozenset(effect.blast.affected_prefixes),
                        rib_fingerprint(warm.device_ribs),
                        rib_fingerprint(cold.device_ribs),
                    )
                )
            finally:
                restore()
        return base, records

    def test_spliced_ribs_equal_cold_and_blast_is_flag_independent(self):
        base_on, records_on = self.scenario_records()
        with perfopts.configured(route_ecs=False):
            base_off, records_off = self.scenario_records()
        assert base_on.route_ecs is not None and base_off.route_ecs is None
        assert len(records_on) == len(records_off) > 0
        assert any(affected for affected, _, _ in records_on)
        for (affected_on, warm_on, cold_on), (affected_off, warm_off, _) in zip(
            records_on, records_off
        ):
            assert warm_on == cold_on == warm_off
            assert affected_on == affected_off


class TestObservability:
    def wan(self):
        model, inventory = generate_wan(
            WanParams(regions=2, cores_per_region=2, seed=3)
        )
        return model, generate_input_routes(inventory, n_prefixes=24, seed=4)

    @pytest.mark.parametrize(
        "backend",
        [
            make_backend("centralized"),
            make_backend("centralized", chunked=True, chunk_size=16),
            make_backend("distributed-thread", route_subtasks=3),
        ],
        ids=lambda backend: backend.name,
    )
    def test_every_backend_reports_the_reduction(self, backend):
        model, inputs = self.wan()
        ctx = RunContext("test")
        backend.run_routes(
            RouteSimRequest(model=model, inputs=inputs, include_local_inputs=True), ctx
        )
        counters = ctx.counters()
        assert counters["route_sim.ec_groups"] > 0
        assert counters["route_sim.ec_members_skipped"] > 0
        # worker threads have no open span of their own: theirs hang off the root
        parent = ctx.root if backend.is_distributed else ctx.root.find("route_sim")
        assert parent.find("expand_ribs") is not None

    def test_flag_off_reports_nothing(self):
        model, inputs = self.wan()
        ctx = RunContext("test")
        with perfopts.configured(route_ecs=False):
            make_backend("centralized").run_routes(
                RouteSimRequest(model=model, inputs=inputs), ctx
            )
        assert "route_sim.ec_groups" not in ctx.counters()
        assert ctx.root.find("expand_ribs") is None

    def test_report_summary_names_the_reduction_factor(self):
        model, inputs = self.wan()
        link = model.topology.links[0]
        plan = ChangePlan(
            name="drain",
            change_type="topology-adjustment",
            topology_ops=[remove_link(*link.endpoints)],
        )
        report = ChangeVerifier(model, inputs).verify(plan)
        assert report.incremental.mode == "widened"
        assert "route ECs: one representative per" in report.summary()
        with perfopts.configured(route_ecs=False):
            raw = ChangeVerifier(model, inputs).verify(plan)
        assert "route ECs" not in raw.summary()
        assert rib_fingerprint(raw.updated_world.device_ribs) == rib_fingerprint(
            report.updated_world.device_ribs
        )
