"""The change verification pipeline (Figure 2, left side).

Pre-processing phase (run once, daily): build the base network model's
simulation results — base RIBs, flow paths, and link loads — plus the
incremental-verification state: the base IGP and per-device local input
routes. The base device RIBs are held by reference and spliced in as they
are.

Change verification phase (per request): parse the change plan's commands,
build the updated model incrementally from the pre-computed base, diff it
against the base and bound the blast radius, re-simulate only the affected
prefixes (splicing unaffected base state back in), check the operator's
intents against the simulated results, and emit counter-examples for
violations. When the blast radius cannot be bounded, it covers every
input: the warm-started run is a full re-simulation, spliced into the base
state the same way (only the slots that differ are installed). With
``incremental=False`` the verifier re-simulates the updated network from
scratch and keeps whole tables.

All simulation dispatch goes through one
:class:`~repro.exec.base.ExecutionBackend` (wrapped in an
:class:`~repro.exec.incremental.IncrementalBackend` for warm starts), and
every phase is timed on a :class:`~repro.obs.RunContext` span tree; the
report's ``elapsed_seconds`` / ``route_sim_seconds`` /
``traffic_sim_seconds`` are views over that tree, not hand-maintained
timers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.change_plan import ChangePlan
from repro.core.intents import IntentResult, VerificationContext
from repro.core.world import World
from repro.exec import (
    CentralizedBackend,
    ExecutionBackend,
    IncrementalBackend,
    RouteSimRequest,
    TrafficSimRequest,
    WarmStart,
)
from repro.incremental.engine import (
    IncrementalEngine,
    IncrementalStats,
    MODE_FULL,
    MODE_INCREMENTAL,
    MODE_NOOP,
    MODE_WIDENED,
)
from repro.net.model import NetworkModel
from repro.obs import RunContext, Span, ensure_context
from repro.routing.inputs import (
    InputRoute,
    build_local_input_routes,
    build_local_inputs_for_device,
)
from repro.routing.isis import IgpState, compute_igp
from repro.routing.rib import DeviceRib, GlobalRib, GlobalRibView
from repro.traffic.flow import Flow
from repro.traffic.simulator import SpreadReuse, TrafficSimulationResult

#: numeric IncrementalStats fields mirrored into ``incremental.*`` counters
_STATS_COUNTERS = (
    "affected_devices",
    "total_devices",
    "affected_prefixes",
    "resimulated_inputs",
    "total_inputs",
    "spliced_slots",
    "reused_slots",
    "reused_devices",
    "skipped_subtasks",
)


@dataclass
class VerificationReport:
    """Result of verifying one change plan.

    The timing fields are properties derived from the attached ``trace``
    span (the ``verify`` span of the run's context): ``elapsed_seconds`` is
    the root duration, ``route_sim_seconds`` the ``simulate_plan`` child,
    ``traffic_sim_seconds`` the sum of all ``traffic_sim`` spans.
    """

    plan: ChangePlan
    intent_results: List[IntentResult] = field(default_factory=list)
    #: blast-radius / cache-hit statistics of this verification
    incremental: Optional[IncrementalStats] = None
    #: simulated updated-network state (kept for downstream consumers such
    #: as the equivalence harness; not part of the textual summary)
    updated_world: Optional[World] = field(default=None, repr=False)
    #: the finished ``verify`` span of this run
    trace: Optional[Span] = field(default=None, repr=False)

    @property
    def elapsed_seconds(self) -> float:
        return self.trace.duration if self.trace is not None else 0.0

    @property
    def route_sim_seconds(self) -> float:
        if self.trace is None:
            return 0.0
        span = self.trace.find("simulate_plan")
        return span.duration if span is not None else 0.0

    @property
    def traffic_sim_seconds(self) -> float:
        if self.trace is None:
            return 0.0
        return sum(span.duration for span in self.trace.find_all("traffic_sim"))

    @property
    def ok(self) -> bool:
        return all(result.satisfied for result in self.intent_results)

    @property
    def violated(self) -> List[IntentResult]:
        return [r for r in self.intent_results if not r.satisfied]

    def summary(self) -> str:
        verdict = "PASS" if self.ok else "RISK DETECTED"
        lines = [
            f"change {self.plan.name!r} ({self.plan.change_type}): {verdict} "
            f"in {self.elapsed_seconds:.2f}s "
            f"({len(self.intent_results)} intents checked)"
        ]
        if self.incremental is not None:
            lines.append(self.incremental.describe())
        spans = list(_plan_spans(self.trace)) if self.trace else []
        solved = sum(span.counters.get("route_sim.ec_groups", 0) for span in spans)
        if solved:  # some route simulation ran on §3.1 representatives
            skipped = sum(
                span.counters.get("route_sim.ec_members_skipped", 0)
                for span in spans
            )
            lines.append(
                "route ECs: one representative per "
                f"{(solved + skipped) / solved:.1f} prefix groups solved"
            )
        reusing = [
            span
            for span in spans
            if span.name == "traffic.forward" and "reused" in span.meta
        ]
        if reusing:  # traffic kept the base spreads the change cannot reach
            forwarded = sum(span.meta["work"] for span in reusing)
            total = forwarded + sum(span.meta["reused"] for span in reusing)
            line = f"traffic: re-forwarded {forwarded}/{total} flow ECs"
            recomputed = sorted(
                {
                    span.meta["ecs_recomputed"]
                    for span in spans
                    if span.name == "traffic.compile" and "ecs_recomputed" in span.meta
                }
            )
            if recomputed:
                line += f", flow ECs recomputed ({', '.join(recomputed)})"
            elif any(span.meta.get("flow_ecs") == "reused" for span in spans):
                line += ", base flow-EC partition kept"
            lines.append(line)
        for result in self.intent_results:
            lines.append(str(result))
        return "\n".join(lines)


def _up_pairs(model: NetworkModel) -> Set[Tuple[str, str]]:
    """Both directions of every router pair an up link connects."""
    return {
        pair
        for link in model.topology.up_links
        for pair in (link.endpoints, link.endpoints[::-1])
    }


def _plan_spans(span: Span) -> Iterator[Span]:
    """``span``'s subtree without base preparation.

    A verifier whose base is not prepared yet prepares it inside its first
    ``verify`` span; the summary reports the plan's own work, the same
    whether or not the base was prepared beforehand.
    """
    yield span
    for child in span.children:
        if child.name != "prepare_base":
            yield from _plan_spans(child)


class ChangeVerifier:
    """Verifies change plans against a pre-processed base network.

    ``backend`` injects any :class:`ExecutionBackend` (default: a
    :class:`CentralizedBackend`); ``max_rounds`` rides on every route
    request the verifier sends it. The backend is always
    wrapped in an :class:`IncrementalBackend` sharing this verifier's
    engine, so warm-started requests splice against the base world's RIBs.
    """

    def __init__(
        self,
        base_model: NetworkModel,
        input_routes: Sequence[InputRoute],
        input_flows: Sequence[Flow] = (),
        max_rounds: int = 50,
        incremental: bool = True,
        backend: Optional[ExecutionBackend] = None,
        ctx: Optional[RunContext] = None,
    ) -> None:
        self.base_model = base_model
        self.input_routes = list(input_routes)
        self.input_flows = list(input_flows)
        self.max_rounds = max_rounds
        self.incremental = incremental
        self._base_world: Optional[World] = None
        self._base_igp: Optional[IgpState] = None
        self._base_local_inputs: Optional[Dict[str, List[InputRoute]]] = None
        self._engine = IncrementalEngine(base_model)
        if backend is None:
            backend = CentralizedBackend()
        self.backend: ExecutionBackend = IncrementalBackend(backend, self._engine)
        self.ctx = ensure_context(ctx, "verifier")

    # -- pre-processing phase ---------------------------------------------------

    def prepare_base(self, ctx: Optional[RunContext] = None) -> None:
        """Simulate the base network (the daily pre-processing run).

        Besides the base world itself, this caches the base IGP state and
        per-device local input routes (reused by later ``verify()`` calls
        whenever the plan cannot move them) and freezes the base world for
        the cyclic collector (:meth:`IncrementalEngine.snapshot_base`).
        """
        ctx = ctx if ctx is not None else self.ctx
        with ctx.span("prepare_base"):
            with ctx.span("compute_igp"):
                self._base_igp = compute_igp(self.base_model)
            self._base_local_inputs = {
                name: build_local_inputs_for_device(self.base_model, device)
                for name, device in self.base_model.devices.items()
            }
            base_locals = [
                item for items in self._base_local_inputs.values() for item in items
            ]
            self._base_world = self._simulate(
                self.base_model,
                self.input_routes,
                igp=self._base_igp,
                local_inputs=base_locals,
                ctx=ctx,
            )
            if self.incremental:
                self._engine.snapshot_base(self._base_world.device_ribs, ctx=ctx)
            ctx.event(
                "pipeline.base_prepared",
                devices=len(self.base_model.devices),
                inputs=len(self.input_routes),
                flows=len(self.input_flows),
            )

    @property
    def base_world(self) -> World:
        if self._base_world is None:
            self.prepare_base()
        assert self._base_world is not None
        return self._base_world

    # -- change verification phase -------------------------------------------------

    def verify(
        self, plan: ChangePlan, ctx: Optional[RunContext] = None
    ) -> VerificationReport:
        """Verify one change plan (the per-request phase)."""
        ctx = ctx if ctx is not None else self.ctx
        report = VerificationReport(plan=plan)
        with ctx.span("verify", plan=plan.name) as span:
            with ctx.span("build_updated_model") as building:
                updated_model = plan.build_updated_model(self.base_model)
                building.meta["devices_copied"] = sum(
                    self.base_model.devices.get(name, cfg) is not cfg
                    for name, cfg in updated_model.devices.items()
                )

            updated_world, stats = self.simulate_plan(plan, updated_model, ctx=ctx)
            report.incremental = stats
            report.updated_world = updated_world

            base = self.base_world
            with ctx.span("check_intents", intents=len(plan.intents)) as checking:
                # the views intents may flatten (a no-op plan's is the base one)
                views = {id(v): v for v in (base.global_rib, updated_world.global_rib)}
                unbuilt = [view for view in views.values() if not view.built]
                vctx = VerificationContext(
                    base_model=self.base_model,
                    updated_model=updated_model,
                    base_rib=base.global_rib,
                    updated_rib=updated_world.global_rib,
                    base_device_ribs=base.device_ribs,
                    updated_device_ribs=updated_world.device_ribs,
                    base_traffic=base.traffic,
                    updated_traffic=updated_world.traffic,
                    flows=self.input_flows,
                )
                for intent in plan.intents:
                    report.intent_results.append(intent.evaluate(vctx))
                # how much of the two worlds the RCL intents had to read
                rows_scanned = sum(r.rows_scanned for r in report.intent_results)
                checking.meta["rows_scanned"] = rows_scanned
                if rows_scanned:
                    ctx.count("rcl.rows_scanned", rows_scanned)
                tables_built = sum(view.built for view in unbuilt)
                checking.meta["tables_built"] = tables_built
                if tables_built:
                    ctx.count("rib.tables_built", tables_built)
                ctx.count("intents.checked", len(plan.intents))
                ctx.count(
                    "intents.violated",
                    sum(1 for r in report.intent_results if not r.satisfied),
                )
            ctx.event(
                "pipeline.verified",
                plan=plan.name,
                verdict="pass" if report.ok else "risk",
                mode=stats.mode,
            )
        report.trace = span
        return report

    def simulate_plan(
        self,
        plan: ChangePlan,
        updated_model: Optional[NetworkModel] = None,
        ctx: Optional[RunContext] = None,
    ) -> Tuple[World, IncrementalStats]:
        """Simulate the updated network of a plan (incrementally when on).

        Exposed separately from :meth:`verify` so the equivalence harness
        and benchmarks can obtain the simulated world without intent
        evaluation.
        """
        ctx = ctx if ctx is not None else self.ctx
        with ctx.span("simulate_plan", plan=plan.name):
            if updated_model is None:
                updated_model = plan.build_updated_model(self.base_model)
            updated_inputs = self.input_routes + plan.new_input_routes

            if not self.incremental:
                diff = self._engine.analyze(
                    updated_model, plan.new_input_routes, ctx=ctx
                )[0]
                igp, igp_reused = self._updated_igp(updated_model, diff)
                local_inputs = self._updated_local_inputs(updated_model, diff)
                world = self._simulate(
                    updated_model,
                    updated_inputs,
                    igp=igp,
                    local_inputs=local_inputs,
                    ctx=ctx,
                    reuse_declined="incremental_off",
                )
                stats = IncrementalStats(
                    mode=MODE_FULL,
                    total_devices=len(updated_model.devices),
                    total_inputs=len(updated_inputs) + len(local_inputs),
                    igp_reused=igp_reused,
                )
            else:
                world, stats = self._simulate_incremental(
                    plan, updated_model, updated_inputs, ctx
                )
            self._mirror_stats(ctx, stats)
        return world, stats

    # -- simulation helpers ------------------------------------------------------------

    @staticmethod
    def _mirror_stats(ctx: RunContext, stats: IncrementalStats) -> None:
        """Mirror the numeric stats into ``incremental.*`` counters."""
        ctx.count(f"incremental.mode.{stats.mode}")
        for name in _STATS_COUNTERS:
            value = getattr(stats, name)
            if value:
                ctx.count(f"incremental.{name}", value)

    def _simulate_incremental(
        self,
        plan: ChangePlan,
        updated_model: NetworkModel,
        updated_inputs: List[InputRoute],
        ctx: RunContext,
    ) -> Tuple[World, IncrementalStats]:
        base = self.base_world  # ensures the base world and caches exist
        diff, blast = self._engine.analyze(
            updated_model, plan.new_input_routes, ctx=ctx
        )
        igp, igp_reused = self._updated_igp(updated_model, diff)
        local_inputs = self._updated_local_inputs(updated_model, diff)
        all_inputs = list(updated_inputs) + local_inputs

        if blast.is_empty:
            # No slot can differ: reuse the base RIBs wholesale. Traffic
            # still runs against the updated model when the model differs
            # at all; with no slot touched it forwards nothing unless the
            # change touches forwarding state (ACL/PBR/SR/IS-IS).
            if diff.is_empty:
                traffic = base.traffic
            else:
                traffic = self._traffic_sim(
                    updated_model,
                    base.device_ribs,
                    igp,
                    ctx,
                    *self._spread_reuse(diff, updated_model, igp, {}),
                )
            world = World(
                model=updated_model,
                device_ribs=base.device_ribs,
                global_rib=base.global_rib,
                traffic=traffic,
            )
            return world, IncrementalStats(
                mode=MODE_NOOP,
                total_devices=len(base.device_ribs),
                total_inputs=len(all_inputs),
                igp_reused=igp_reused,
            )

        if blast.widened:
            ctx.event(
                "pipeline.widened", level=30,
                plan=plan.name, reasons=";".join(blast.reasons),
            )
        # a widened radius covers every input: a full run, spliced the same way
        outcome = self.backend.run_routes(
            RouteSimRequest(
                model=updated_model,
                inputs=all_inputs,
                igp=igp,
                max_rounds=self.max_rounds,
                warm_start=WarmStart(blast=blast, base_ribs=base.device_ribs),
            ),
            ctx,
        )
        splice = outcome.splice
        device_ribs = outcome.device_ribs
        traffic = self._traffic_sim(
            updated_model,
            device_ribs,
            igp,
            ctx,
            *self._spread_reuse(diff, updated_model, igp, splice.touched),
        )
        world = World(
            model=updated_model,
            device_ribs=device_ribs,
            # the base table, patched at the slots the splice changed:
            # intents compare the two worlds there and nowhere else
            global_rib=GlobalRibView(
                base.global_rib,
                base.device_ribs,
                device_ribs,
                splice.dropped,
                splice.installed,
            ),
            traffic=traffic,
        )
        return world, IncrementalStats(
            mode=MODE_WIDENED if blast.widened else MODE_INCREMENTAL,
            widen_reasons=blast.reasons,
            affected_devices=splice.affected_devices,
            total_devices=len(device_ribs),
            affected_prefixes=len(blast.affected_prefixes),
            resimulated_inputs=outcome.resimulated_inputs,
            total_inputs=len(all_inputs),
            spliced_slots=splice.spliced_slots,
            reused_slots=splice.reused_slots,
            reused_devices=splice.reused_devices,
            igp_reused=igp_reused,
            skipped_subtasks=outcome.skipped_subtasks,
        )

    def _updated_igp(self, updated_model, diff) -> Tuple[IgpState, bool]:
        """Reuse the cached base IGP when the diff cannot move it."""
        if self._base_igp is not None and not diff.igp_affecting:
            return self._base_igp, True
        return compute_igp(updated_model), False

    def _updated_local_inputs(self, updated_model, diff) -> List[InputRoute]:
        """Local input routes of the updated model, reusing cached devices.

        Per-device results from the base run are reused for every device the
        diff cannot affect; iteration follows the model's device order so
        the assembled list matches ``build_local_input_routes`` exactly.
        """
        if self._base_local_inputs is None or diff.structure_changed:
            return build_local_input_routes(updated_model)
        affected = diff.local_inputs_affected()
        inputs: List[InputRoute] = []
        for name, device in updated_model.devices.items():
            cached = None if name in affected else self._base_local_inputs.get(name)
            if cached is None:
                inputs.extend(build_local_inputs_for_device(updated_model, device))
            else:
                inputs.extend(cached)
        return inputs

    def _spread_reuse(
        self, diff, model: NetworkModel, igp: IgpState, touched
    ) -> Tuple[Optional[SpreadReuse], Optional[str]]:
        """The base spreads a change keeps, or why there are none.

        Only RIB slots in ``touched`` may differ from the base, and only
        the ``(router, target)`` pairs whose IGP answers or up-link state
        moved; a spread is reusable when everything else forwarding reads
        is the base's (``ModelDiff.forwarding_affecting``, and the ingress
        ACL every link selects) and there is a base traffic run to take
        spreads from.
        """
        why = diff.forwarding_affecting
        if why is None and diff.topology_changed and any(
            device.interface_acls for device in model.devices.values()
        ):
            why = "topology_with_acls"
        if why is None and self.base_world.traffic is None:
            why = "no_base_traffic"
        if why is not None:
            return None, why
        moved = set() if igp is self._base_igp else self._base_igp.moved_pairs(igp)
        if diff.topology_changed:
            moved |= _up_pairs(self.base_model) ^ _up_pairs(model)
        return (
            SpreadReuse(
                self.base_world.traffic,
                touched,
                self.base_world.device_ribs,
                self.input_flows,
                moved,
            ),
            None,
        )

    def _traffic_sim(
        self,
        model: NetworkModel,
        device_ribs: Dict[str, DeviceRib],
        igp: IgpState,
        ctx: RunContext,
        reuse: Optional[SpreadReuse] = None,
        reuse_declined: Optional[str] = None,
    ) -> Optional[TrafficSimulationResult]:
        """Traffic over ``device_ribs``, keeping what ``reuse`` allows.

        ``reuse_declined`` (why a change got no reuse), or the number of
        ``moved_pairs`` of the reuse, is recorded on the ``traffic_sim``
        span the backend opens.
        """
        if not self.input_flows:
            return None
        parent = ctx.current
        opened = len(parent.children)
        # The pipeline always runs traffic in-process over the merged RIBs
        # (no route-task artifacts are passed), even with a distributed
        # backend — full per-flow path detail is needed for intent checks.
        outcome = self.backend.run_traffic(
            TrafficSimRequest(
                model=model,
                flows=self.input_flows,
                device_ribs=device_ribs,
                igp=igp,
                reuse=reuse,
            ),
            ctx,
        )
        meta = {"moved_pairs": len(reuse.moved)} if reuse is not None else {}
        if reuse_declined is not None:
            meta["reuse_declined"] = reuse_declined
        for span in parent.children[opened:]:
            if span.name == "traffic_sim":
                span.meta.update(meta)
        return outcome.result

    def _simulate(
        self,
        model: NetworkModel,
        input_routes: Sequence[InputRoute],
        igp: Optional[IgpState] = None,
        local_inputs: Optional[List[InputRoute]] = None,
        ctx: Optional[RunContext] = None,
        reuse_declined: Optional[str] = None,
    ) -> World:
        ctx = ctx if ctx is not None else self.ctx
        all_inputs = list(input_routes) + (
            local_inputs
            if local_inputs is not None
            else build_local_input_routes(model)
        )
        if igp is None:
            with ctx.span("compute_igp"):
                igp = compute_igp(model)
        device_ribs = self._route_sim(model, all_inputs, igp, ctx)
        traffic = self._traffic_sim(
            model, device_ribs, igp, ctx, reuse_declined=reuse_declined
        )
        return World(
            model=model,
            device_ribs=device_ribs,
            global_rib=GlobalRib.from_device_ribs(device_ribs.values()).best_routes(),
            traffic=traffic,
        )

    def _route_sim(self, model, inputs, igp, ctx) -> Dict[str, DeviceRib]:
        """The device RIBs of a cold route simulation of ``model``."""
        request = RouteSimRequest(model, inputs, igp, max_rounds=self.max_rounds)
        return self.backend.run_routes(request, ctx).device_ribs
