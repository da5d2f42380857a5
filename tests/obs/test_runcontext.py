"""RunContext span-tree and counter semantics, and the span sanity checks
the observability spine promises: report timing fields are views over the
span tree, counters mirror the run's statistics, and the serialized trace
follows the ``repro.trace/v1`` schema."""

import json
import logging
import threading

import pytest

from repro.core import ChangePlan, ChangeVerifier, RclIntent
from repro.obs import (
    NULL_SPAN,
    RunContext,
    Span,
    TRACE_SCHEMA,
    configure_logging,
    ensure_context,
    get_logger,
)
from repro.routing.inputs import inject_external_route
from repro.traffic import make_flow

from tests.helpers import build_model, full_mesh_ibgp

PFX = "203.0.113.0/24"


class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        ctx = RunContext("run")
        with ctx.span("outer"):
            with ctx.span("inner", detail=1):
                pass
            with ctx.span("inner"):
                pass
        outer = ctx.root.find("outer")
        assert [child.name for child in outer.children] == ["inner", "inner"]
        assert len(ctx.root.find_all("inner")) == 2
        assert ctx.root.find("inner").meta == {"detail": 1}

    def test_parent_duration_covers_children(self):
        ctx = RunContext("run")
        with ctx.span("outer"):
            with ctx.span("inner"):
                pass
        outer = ctx.root.find("outer")
        inner = outer.find("inner")
        assert outer.duration >= inner.duration >= 0.0

    def test_counters_attach_to_innermost_open_span(self):
        ctx = RunContext("run")
        with ctx.span("a"):
            ctx.count("hits")
            with ctx.span("b"):
                ctx.count("hits", 2)
        assert ctx.root.find("a").counters["hits"] == 1
        assert ctx.root.find("b").counters["hits"] == 2
        assert ctx.root.find("a").total("hits") == 3
        assert ctx.counters() == {"hits": 3}

    def test_thread_without_open_span_attaches_to_root(self):
        ctx = RunContext("run")

        def worker():
            ctx.count("worker.hits")

        with ctx.span("main"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert ctx.root.counters.get("worker.hits") == 1
        assert "worker.hits" not in ctx.root.find("main").counters

    def test_null_span_is_inert(self):
        assert NULL_SPAN.duration == 0.0
        assert NULL_SPAN.total("anything") == 0.0
        assert NULL_SPAN.find("anything") is None

    def test_ensure_context_passthrough_and_fresh(self):
        ctx = RunContext("mine")
        assert ensure_context(ctx) is ctx
        fresh = ensure_context(None, "fresh")
        assert fresh.root.name == "fresh"


class TestTraceSerialization:
    def test_to_dict_follows_schema(self):
        ctx = RunContext("run")
        with ctx.span("phase", size=3):
            ctx.count("items", 3)
        doc = ctx.to_dict()
        assert doc["schema"] == TRACE_SCHEMA
        assert doc["root"]["name"] == "run"
        child = doc["root"]["children"][0]
        assert child["name"] == "phase"
        assert child["meta"] == {"size": 3}
        assert child["counters"] == {"items": 3}
        assert doc["counters"] == {"items": 3.0}
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_span_duration_rounds_into_dict(self):
        span = Span("x")
        span.finish()
        assert span.to_dict()["duration_seconds"] == round(span.duration, 6)


def square_world():
    model = build_model(
        routers=[("A", 100), ("B", 100), ("C", 100), ("D", 100)],
        links=[("A", "B", 10), ("B", "D", 10), ("A", "C", 20), ("C", "D", 20)],
    )
    full_mesh_ibgp(model, ["A", "B", "C", "D"])
    inputs = [inject_external_route("D", PFX, (65010,))]
    flows = [
        make_flow("A", f"10.0.0.{i}", "203.0.113.9", src_port=i, volume=1e9)
        for i in range(4)
    ]
    return model, inputs, flows


class TestVerifierSpanSanity:
    """The pipeline's result fields must be views over the span tree."""

    def plan(self):
        return ChangePlan(
            name="noop",
            change_type="os-patch",
            device_commands={},
            intents=[RclIntent("PRE = POST")],
        )

    def test_report_timings_are_span_views(self):
        model, inputs, flows = square_world()
        ctx = RunContext("run")
        verifier = ChangeVerifier(model, inputs, flows, ctx=ctx)
        report = verifier.verify(self.plan())

        assert report.trace is not None
        assert report.trace.name == "verify"
        # elapsed_seconds IS the root verify span's duration (the ISSUE's
        # acceptance bound is 1%; identity is stronger).
        assert report.elapsed_seconds == report.trace.duration
        route_span = report.trace.find("simulate_plan")
        assert report.route_sim_seconds == route_span.duration
        assert report.elapsed_seconds >= report.route_sim_seconds

    def test_verify_span_has_expected_children(self):
        model, inputs, flows = square_world()
        ctx = RunContext("run")
        verifier = ChangeVerifier(model, inputs, flows, ctx=ctx)
        verifier.verify(self.plan())
        verify = ctx.root.find("verify")
        names = [child.name for child in verify.children]
        assert names[:1] == ["build_updated_model"]
        assert "simulate_plan" in names
        assert "check_intents" in names

    def test_build_span_counts_the_devices_the_plan_copied(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="one-static",
            change_type="static-route-modification",
            device_commands={"A": ["ip route 172.16.0.0/12 10.255.0.2"]},
        )
        for verified, copied in ((self.plan(), 0), (plan, 1)):
            report = verifier.verify(verified)
            building = report.trace.find("build_updated_model")
            assert building.meta["devices_copied"] == copied

    def test_a_widened_run_diffs_its_ribs_against_the_base(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        plan = ChangePlan(
            name="drain-ab",
            change_type="topology-adjustment",
            device_commands={"A": ["isis cost B 99"]},
            intents=[RclIntent("PRE = POST")],
        )
        report = verifier.verify(plan)
        stats = report.incremental
        assert stats.mode == "widened"
        (splicing,) = report.trace.find_all("incremental.splice")
        # A's route to D's prefix is the one slot the new cost moves: every
        # other device keeps its base RIB
        assert splicing.meta["affected_devices"] == stats.affected_devices == 1
        assert splicing.meta["spliced_slots"] == stats.spliced_slots == 1
        assert stats.reused_devices == stats.total_devices - 1
        assert f"spliced {stats.spliced_slots} slots" in report.summary()
        # the updated table is a patch of the base one, never flattened
        assert report.updated_world.global_rib.base is verifier.base_world.global_rib
        assert report.trace.find("check_intents").meta["tables_built"] == 0

    def test_a_widened_run_patches_the_base_traffic(self):
        model, inputs, flows = square_world()
        verifier = ChangeVerifier(model, inputs, flows)
        verifier.prepare_base()
        plan = ChangePlan(
            name="drain-ab",
            change_type="topology-adjustment",
            device_commands={"A": ["isis cost B 99"]},
        )
        report = verifier.verify(plan)
        assert report.incremental.mode == "widened"
        (sim,) = report.trace.find_all("traffic_sim")
        # A's next hops towards B and D, and C's towards B (no longer ECMP
        # through A), moved; the one EC of A's flows read (A, D)
        assert sim.meta["moved_pairs"] == 3
        assert "reuse_declined" not in sim.meta
        assert (
            "traffic: re-forwarded 1/1 flow ECs, base flow-EC partition kept"
            in report.summary()
        )
        (path, _), = report.updated_world.traffic.path_of(flows[0])
        assert path.routers == ["A", "C", "D"]

    def test_counters_mirror_run_statistics(self):
        model, inputs, flows = square_world()
        ctx = RunContext("run")
        verifier = ChangeVerifier(model, inputs, flows, ctx=ctx)
        report = verifier.verify(self.plan())
        counters = ctx.counters()
        assert counters["intents.checked"] == len(self.plan().intents)
        mode_keys = [k for k in counters if k.startswith("incremental.mode.")]
        assert mode_keys == [f"incremental.mode.{report.incremental.mode}"]
        stats = report.incremental
        if stats.resimulated_inputs:
            assert (
                counters["incremental.resimulated_inputs"]
                == stats.resimulated_inputs
            )


def _reset_repro_logger():
    logger = logging.getLogger("repro")
    for handler in list(logger.handlers):
        if getattr(handler, "_repro_handler", False):
            logger.removeHandler(handler)
    logger.setLevel(logging.NOTSET)
    logger.propagate = True


class TestLogging:
    def test_library_is_quiet_by_default(self, capsys):
        # The repro root logger carries a NullHandler: un-configured library
        # use must not leak events through logging.lastResort to stderr.
        _reset_repro_logger()
        assert any(
            isinstance(h, logging.NullHandler)
            for h in logging.getLogger("repro").handlers
        )
        ctx = RunContext("run")
        ctx.event("pipeline.widened", level=logging.WARNING, plan="p")
        assert capsys.readouterr().err == ""

    def test_configure_logging_sets_level_idempotently(self):
        try:
            logger = configure_logging("DEBUG")
            assert logger.level == logging.DEBUG
            configure_logging("INFO")
            assert logger.level == logging.INFO
            stream_handlers = [
                h for h in logger.handlers
                if getattr(h, "_repro_handler", False)
            ]
            assert len(stream_handlers) == 1
        finally:
            _reset_repro_logger()

    def test_configure_logging_rejects_unknown_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            configure_logging("LOUD")

    def test_event_formats_fields(self):
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        logger = get_logger("repro.obs")
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        try:
            RunContext("run").event("thing.happened", a=1, b="x")
        finally:
            logger.removeHandler(handler)
            logger.setLevel(logging.NOTSET)
        assert [r.getMessage() for r in records] == ["thing.happened a=1 b=x"]
