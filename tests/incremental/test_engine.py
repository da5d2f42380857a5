"""Tests for the warm-start incremental engine and its pipeline wiring."""

from repro.core.change_plan import ChangePlan
from repro.core.intents import RclIntent
from repro.core.pipeline import ChangeVerifier
from repro.incremental.blast import BlastRadius
from repro.incremental.engine import (
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_NOOP,
    MODE_WIDENED,
    IncrementalEngine,
    IncrementalStats,
)
from repro.net.addr import as_prefix
from repro.obs.context import RunContext
from repro.routing.inputs import inject_external_route
from repro.routing.rib import DeviceRib, device_rib_fingerprint

from tests.helpers import build_model, full_mesh_ibgp


def make_rib(name, *prefixes):
    rib = DeviceRib(name)
    for prefix in prefixes:
        item = inject_external_route(name, prefix, (64999,))
        rib.install(item.route, route_type="bgp")
    return rib


def radius(*prefixes):
    return BlastRadius(affected_prefixes=tuple(as_prefix(p) for p in prefixes))


class TestSplice:
    def test_uncovered_slots_come_from_base(self):
        engine = IncrementalEngine(build_model([("A", 100)], []))
        base = {"A": make_rib("A", "10.1.0.0/16", "10.2.0.0/16")}
        partial = {"A": make_rib("A", "10.1.0.0/16")}
        result = engine.splice(base, partial, radius("10.1.0.0/16"))
        rib = result.device_ribs["A"]
        assert set(rib.prefixes()) == {
            as_prefix("10.1.0.0/16"),
            as_prefix("10.2.0.0/16"),
        }
        assert result.spliced_slots == 1
        assert result.reused_slots == 1
        assert result.affected_devices == 1

    def test_covered_slots_come_from_partial(self):
        engine = IncrementalEngine(build_model([("A", 100)], []))
        base = {"A": make_rib("A", "10.1.0.0/16")}
        partial_rib = DeviceRib("A")
        item = inject_external_route("A", "10.1.0.0/16", (64999, 64998))
        partial_rib.install(item.route, route_type="bgp")
        result = engine.splice(base, {"A": partial_rib}, radius("10.1.0.0/16"))
        routes = result.device_ribs["A"].routes_for(
            as_prefix("10.1.0.0/16"), best_only=False
        )
        assert [r.as_path for r in routes] == [(64999, 64998)]

    def test_withdrawn_covered_slot_disappears(self):
        engine = IncrementalEngine(build_model([("A", 100)], []))
        base = {"A": make_rib("A", "10.1.0.0/16", "10.2.0.0/16")}
        partial = {"A": DeviceRib("A")}  # covered prefix withdrawn
        result = engine.splice(base, partial, radius("10.1.0.0/16"))
        assert set(result.device_ribs["A"].prefixes()) == {
            as_prefix("10.2.0.0/16")
        }

    def test_untouched_device_reuses_base_rib_object(self):
        engine = IncrementalEngine(build_model([("A", 100), ("B", 100)], []))
        base = {
            "A": make_rib("A", "10.1.0.0/16"),
            "B": make_rib("B", "10.2.0.0/16"),
        }
        partial = {"A": make_rib("A", "10.1.0.0/16"), "B": DeviceRib("B")}
        result = engine.splice(base, partial, radius("10.1.0.0/16"))
        assert result.device_ribs["B"] is base["B"]
        assert result.reused_devices == 1
        assert result.affected_devices == 1

    def test_new_device_appears_from_partial(self):
        engine = IncrementalEngine(build_model([("A", 100)], []))
        base = {"A": make_rib("A", "10.1.0.0/16")}
        partial = {
            "A": make_rib("A", "10.1.0.0/16"),
            "NEW": make_rib("NEW", "10.1.0.0/16"),
        }
        result = engine.splice(base, partial, radius("10.1.0.0/16"))
        assert "NEW" in result.device_ribs
        assert result.device_ribs["NEW"].prefixes() == [as_prefix("10.1.0.0/16")]


class TestTouchedSlots:
    """What the splice reports it changed, for consumers that patch."""

    def test_affected_device_reports_covered_slots_of_both_sides(self):
        engine = IncrementalEngine(build_model([("A", 100)], []))
        base = {"A": make_rib("A", "10.1.0.0/16", "10.2.0.0/16", "10.3.0.0/16")}
        partial = {"A": make_rib("A", "10.4.0.0/16", "10.2.0.0/16")}
        result = engine.splice(
            base, partial, radius("10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16")
        )

        def prefixes(*texts):
            return [as_prefix(text) for text in texts]

        # withdrawn 10.3 is dropped only, new 10.4 installed only; each side
        # in the order its RIB lists the slots
        assert list(result.dropped["A"]["global"]) == prefixes(
            "10.2.0.0/16", "10.3.0.0/16"
        )
        assert list(result.installed["A"]["global"]) == prefixes(
            "10.4.0.0/16", "10.2.0.0/16"
        )
        assert result.device_ribs["A"].prefixes() == prefixes(
            "10.1.0.0/16", "10.4.0.0/16", "10.2.0.0/16"
        )
        assert result.touched == {
            "A": {
                ("global", prefix)
                for prefix in prefixes("10.2.0.0/16", "10.3.0.0/16", "10.4.0.0/16")
            }
        }

    def test_reused_device_reports_nothing(self):
        engine = IncrementalEngine(build_model([("A", 100), ("B", 100)], []))
        base = {
            "A": make_rib("A", "10.1.0.0/16"),
            "B": make_rib("B", "10.2.0.0/16"),
        }
        partial = {"A": make_rib("A", "10.1.0.0/16"), "B": DeviceRib("B")}
        result = engine.splice(base, partial, radius("10.1.0.0/16"))
        assert set(result.touched) == {"A"}

    def test_full_device_is_touched_wholesale(self):
        engine = IncrementalEngine(build_model([("A", 100), ("B", 100)], []))
        base = {
            "A": make_rib("A", "10.1.0.0/16", "10.2.0.0/16"),
            "B": make_rib("B", "10.2.0.0/16"),
        }
        partial = {"A": make_rib("A", "10.9.0.0/16")}
        # nothing of A is inside the radius, yet all of it is replaced
        result = engine.splice(
            base, partial, radius("10.7.0.0/16"), full_devices=["A"]
        )
        assert result.touched == {
            "A": {
                ("global", as_prefix(p))
                for p in ("10.1.0.0/16", "10.2.0.0/16", "10.9.0.0/16")
            }
        }
        assert len(result.dropped["A"]["global"]) == 2
        assert len(result.installed["A"]["global"]) == 1

    def test_scoped_splice_reports_nothing_outside_the_scope(self):
        engine = IncrementalEngine(build_model([("A", 100), ("B", 100)], []))
        base = {
            "A": make_rib("A", "10.1.0.0/16"),
            "B": make_rib("B", "10.1.0.0/16"),
        }
        partial = {
            "A": make_rib("A", "10.1.0.0/16"),
            "B": make_rib("B", "10.1.0.0/16"),
        }
        result = engine.splice_scoped(
            base, partial, radius("10.1.0.0/16"), scoped_devices=["A"]
        )
        # B holds a covered slot, but the scope proves it kept its base state
        assert result.device_ribs["B"] is base["B"]
        assert set(result.touched) == {"A"}


class TestSpliceSpan:
    """The ``incremental.splice`` span says what the splice did."""

    def test_verify_trace_carries_the_splice_counts(self):
        plan = ChangePlan(
            name="add-static",
            change_type="static-route-modification",
            device_commands={"A": ["ip route 172.20.0.0/16 10.255.0.2"]},
        )
        verifier = small_verifier(incremental=True)
        verifier.prepare_base()
        report = verifier.verify(plan)
        stats = report.incremental
        (span,) = report.trace.find_all("incremental.splice")
        assert span.meta == {
            "devices": stats.total_devices,
            "affected_devices": stats.affected_devices,
            "reused_devices": stats.reused_devices,
            "spliced_slots": stats.spliced_slots,
        }
        assert stats.spliced_slots > 0

    def test_scoped_splice_counts_the_devices_outside_the_scope(self):
        engine = IncrementalEngine(build_model([("A", 100), ("B", 100)], []))
        base = {
            "A": make_rib("A", "10.1.0.0/16", "10.2.0.0/16"),
            "B": make_rib("B", "10.1.0.0/16"),
        }
        partial = {"A": make_rib("A", "10.1.0.0/16")}
        ctx = RunContext()
        engine.splice_scoped(
            base, partial, radius("10.1.0.0/16"), scoped_devices=["A"], ctx=ctx
        )
        span = ctx.root.find("incremental.splice")
        assert span.ended is not None
        assert span.meta == {
            "devices": 2,
            "scoped": 1,
            "affected_devices": 1,
            "reused_devices": 1,
            "spliced_slots": 1,
        }


class TestCoveredInputs:
    def test_order_preserving_filter(self):
        items = [
            inject_external_route("A", p, (64999,))
            for p in ("10.1.0.0/16", "10.2.0.0/16", "10.1.4.0/24")
        ]
        covered = IncrementalEngine.covered_inputs(items, radius("10.1.0.0/16"))
        assert covered == [items[0], items[2]]


def small_verifier(incremental=True, flows=()):
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100)],
        links=[("A", "B", 10), ("B", "C", 10)],
    )
    full_mesh_ibgp(model, ["A", "B", "C"])
    routes = [
        inject_external_route("A", "198.51.0.0/24", (64999,)),
        inject_external_route("C", "198.51.1.0/24", (64998,)),
    ]
    return ChangeVerifier(
        model, routes, input_flows=list(flows), incremental=incremental
    )


def fingerprints(world):
    return {
        name: device_rib_fingerprint(rib)
        for name, rib in world.device_ribs.items()
    }


class TestPipelineIntegration:
    def test_incremental_static_plan_matches_full(self):
        plan = ChangePlan(
            name="add-static",
            change_type="static-route-modification",
            device_commands={"A": ["ip route 172.20.0.0/16 10.255.0.2"]},
        )
        inc = small_verifier(incremental=True)
        full = small_verifier(incremental=False)
        inc.prepare_base()
        full.prepare_base()
        world_inc, stats_inc = inc.simulate_plan(plan)
        world_full, stats_full = full.simulate_plan(plan)
        assert stats_inc.mode == MODE_INCREMENTAL
        assert stats_full.mode == MODE_FULL
        assert fingerprints(world_inc) == fingerprints(world_full)
        assert stats_inc.resimulated_inputs < stats_full.total_inputs

    def test_noop_plan_reuses_base_world(self):
        plan = ChangePlan(
            name="acl-only",
            change_type="acl-modification",
            device_commands={
                "A": [
                    "access-list BLOCK 10 deny dst 203.0.113.0/24",
                    "access-list BLOCK 20 permit",
                ]
            },
        )
        verifier = small_verifier(incremental=True)
        verifier.prepare_base()
        world, stats = verifier.simulate_plan(plan)
        assert stats.mode == MODE_NOOP
        assert world.device_ribs is verifier.base_world.device_ribs
        assert world.global_rib is verifier.base_world.global_rib

    def test_widened_plan_falls_back_to_full(self):
        plan = ChangePlan(
            name="isis-cost",
            change_type="topology-adjustment",
            device_commands={"A": ["isis cost B 99"]},
        )
        verifier = small_verifier(incremental=True)
        verifier.prepare_base()
        world, stats = verifier.simulate_plan(plan)
        assert stats.mode == MODE_WIDENED
        assert stats.widen_reasons
        full = small_verifier(incremental=False)
        full.prepare_base()
        world_full, _ = full.simulate_plan(plan)
        assert fingerprints(world) == fingerprints(world_full)

    def test_escape_hatch_reports_full_mode(self):
        plan = ChangePlan(name="noop", change_type="os-patch")
        verifier = small_verifier(incremental=False)
        verifier.prepare_base()
        _, stats = verifier.simulate_plan(plan)
        assert stats.mode == MODE_FULL
        assert "full re-simulation" in stats.describe()

    def test_igp_and_local_inputs_reused_when_unaffected(self):
        plan = ChangePlan(
            name="add-static",
            change_type="static-route-modification",
            device_commands={"A": ["ip route 172.20.0.0/16 10.255.0.2"]},
        )
        verifier = small_verifier(incremental=False)
        verifier.prepare_base()
        _, stats = verifier.simulate_plan(plan)
        assert stats.igp_reused

    def test_verify_report_carries_incremental_summary(self):
        plan = ChangePlan(
            name="add-static",
            change_type="static-route-modification",
            device_commands={"A": ["ip route 172.20.0.0/16 10.255.0.2"]},
        )
        verifier = small_verifier(incremental=True)
        verifier.prepare_base()
        report = verifier.verify(plan)
        assert report.incremental is not None
        assert "incremental:" in report.summary()
        assert "blast radius" in report.incremental.describe()


    def test_report_line_names_touched_slots(self):
        plan = ChangePlan(
            name="add-static",
            change_type="static-route-modification",
            device_commands={"A": ["ip route 172.20.0.0/16 10.255.0.2"]},
        )
        verifier = small_verifier(incremental=True)
        verifier.prepare_base()
        stats = verifier.verify(plan).incremental
        assert stats.touched_slots >= stats.spliced_slots > 0
        assert f"touched {stats.touched_slots} slots" in stats.describe()

    def test_intent_check_reads_the_touched_rows_only(self):
        plan = ChangePlan(
            name="add-static",
            change_type="static-route-modification",
            device_commands={"A": ["ip route 172.20.0.0/16 10.255.0.2"]},
            intents=[RclIntent("not prefix = 172.20.0.0/16 => PRE = POST")],
        )
        scanned = {}
        for incremental in (True, False):
            verifier = small_verifier(incremental=incremental)
            verifier.prepare_base()
            report = verifier.verify(plan)
            assert report.ok
            span = report.trace.find("check_intents")
            scanned[incremental] = span.meta["rows_scanned"]
            assert report.trace.total("rcl.rows_scanned") == scanned[incremental]
            assert report.intent_results[0].rows_scanned == scanned[incremental]
        # the full run filters and fingerprints both tables; the spliced one
        # only the rows at the slot the static route landed in
        rows = len(verifier.base_world.global_rib)
        assert scanned[False] >= 2 * rows
        assert 0 < scanned[True] < rows

    def test_a_bounded_check_flattens_no_global_rib(self):
        plan = ChangePlan(
            name="add-static",
            change_type="static-route-modification",
            device_commands={"A": ["ip route 172.20.0.0/16 10.255.0.2"]},
            intents=[RclIntent("not prefix = 172.20.0.0/16 => PRE = POST")],
        )
        built = {}
        for incremental in (True, False):
            verifier = small_verifier(incremental=incremental)
            verifier.prepare_base()
            assert not verifier.base_world.global_rib.built
            report = verifier.verify(plan)
            assert report.ok
            views = (verifier.base_world.global_rib, report.updated_world.global_rib)
            span = report.trace.find("check_intents")
            built[incremental] = span.meta["tables_built"]
            assert report.trace.total("rib.tables_built") == built[incremental]
            assert built[incremental] == sum(view.built for view in views)
        # the patch path compares the dropped and installed rows alone; the
        # full run needs both whole tables
        assert built == {True: 0, False: 2}


class TestStatsDescribe:
    def test_mode_lines(self):
        assert "off" in IncrementalStats(mode=MODE_FULL).describe()
        assert "widened" in IncrementalStats(
            mode=MODE_WIDENED, widen_reasons=("x",)
        ).describe()
        assert "reused base RIBs" in IncrementalStats(mode=MODE_NOOP).describe()
        line = IncrementalStats(
            mode=MODE_INCREMENTAL,
            affected_devices=2,
            total_devices=10,
            skipped_subtasks=3,
            igp_reused=True,
        ).describe()
        assert "2/10 devices" in line
        assert "skipped 3 subtasks" in line
        assert "IGP reused" in line

    def test_as_dict_round_trip(self):
        stats = IncrementalStats(mode=MODE_INCREMENTAL, affected_devices=1)
        data = stats.as_dict()
        assert data["mode"] == MODE_INCREMENTAL
        assert data["affected_devices"] == 1
