"""Modular execution backend: region summaries instead of a global fixpoint.

``make_backend("modular")`` runs route simulation through the
:class:`~repro.modular.verifier.SummaryGuidedVerifier`: each topology
region is solved over its own session graph and regions exchange only
border summaries. The composition is byte-identical to the centralized
backend — pinned by the equivalence suite — because the decision process
is candidate-order independent and the exchange iterates to the same
unique fixpoint. When summaries are violated (operator-supplied ``assume``
claims that turn out wrong, or an exchange that exhausts its round budget)
the backend **falls back to full centralized simulation** on the same
inputs, so modularity can only cost time, never answers.

The backend also implements the region-scoped warm path the incremental
layer drives (:meth:`ModularBackend.run_region_scoped`): when a change's
blast radius is confined to one region and that region's border summary
is unchanged, only the region is re-simulated — zero cross-region work —
and the splice reuses every other region's base state wholesale.

An optional ``summary_store`` (anything with ``get(region)`` /
``put(region, summary)``; the serve layer's hot state provides one keyed
by model hash) warm-starts the exchange from cached summaries and
publishes fresh ones after each solve. Cache entries are advisory: the
exchange verifies them, so a stale cache affects speed only.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.ec.route_ec import PrefixGroupEcIndex
from repro.exec.base import (
    ExecutionBackend,
    RouteSimOutcome,
    RouteSimRequest,
    TrafficSimOutcome,
    TrafficSimRequest,
    resource_accounting,
    run_traffic_in_process,
)
from repro.modular.regions import RegionAssignment
from repro.modular.summaries import (
    RegionSummary,
    SummaryViolation,
    diff_exports,
    summaries_equal,
)
from repro.modular.verifier import (
    DEFAULT_EXCHANGE_ROUNDS,
    Delivery,
    ModularResult,
    RegionSolver,
    SummaryGuidedVerifier,
)
from repro.net.model import NetworkModel
from repro.obs import RunContext, ensure_context
from repro.routing.bgp import build_sessions
from repro.routing.inputs import InputRoute, build_local_input_routes
from repro.routing.isis import IgpState, compute_igp
from repro.routing.rib import DeviceRib
from repro.routing.simulator import RouteSimulator, SimulationResult


@dataclass
class _SolveState:
    """Converged modular state of one model, for region-scoped warm runs.

    The strong model reference pins the ``id()`` key: a state can never be
    looked up by a recycled object id.
    """

    model: NetworkModel
    igp: IgpState
    assignment: RegionAssignment
    summaries: Dict[str, RegionSummary]


class ModularBackend(ExecutionBackend):
    """Summary-guided per-region execution with widen-to-full fallback."""

    name = "modular"
    is_distributed = False

    #: converged states retained for region-scoped warm verification.
    MAX_STATES = 4

    def __init__(
        self,
        max_rounds: int = 50,
        exchange_rounds: int = DEFAULT_EXCHANGE_ROUNDS,
        assume: Optional[Mapping[str, RegionSummary]] = None,
        summary_store=None,
    ) -> None:
        self.max_rounds = max_rounds
        self.exchange_rounds = exchange_rounds
        #: operator-claimed summaries (trust-then-check); a mismatch falls
        #: back to full simulation with structured counter-examples.
        self.assume = dict(assume) if assume else None
        self.summary_store = summary_store
        self._states: "OrderedDict[int, _SolveState]" = OrderedDict()
        #: the most recent solve's full outcome (summaries, violations,
        #: exchange stats) — inspectable by callers and tests.
        self.last_result: Optional[ModularResult] = None
        #: counter-examples from the most recent violated summary check.
        self.last_violations: List[SummaryViolation] = []

    # -- full solve -----------------------------------------------------------

    def run_routes(
        self, request: RouteSimRequest, ctx: Optional[RunContext] = None
    ) -> RouteSimOutcome:
        ctx = ensure_context(ctx)
        inputs: List[InputRoute] = list(request.inputs)
        if request.include_local_inputs:
            inputs = list(build_local_input_routes(request.model)) + inputs
        igp = request.igp if request.igp is not None else compute_igp(request.model)
        with ctx.span("route_sim", backend=self.name, inputs=len(inputs)), \
                resource_accounting(ctx):
            ctx.count("route_sim.calls")
            ctx.count("route_sim.inputs", len(inputs))
            result = self._solve(request.model, igp, inputs, request.max_rounds, ctx)
            ctx.count("route_sim.cost_units", result.cost_units)
            return RouteSimOutcome(
                device_ribs=result.device_ribs,
                igp=result.igp,
                backend=self.name,
                result=result,
            )

    def _solve(
        self,
        model: NetworkModel,
        igp: IgpState,
        inputs: List[InputRoute],
        max_rounds: int,
        ctx: RunContext,
    ) -> SimulationResult:
        started = time.perf_counter()
        verifier = SummaryGuidedVerifier(
            model,
            igp=igp,
            max_rounds=max_rounds,
            exchange_rounds=self.exchange_rounds,
        )
        # The regions solve in the shared simulator's §3.1 representative
        # space; rows — and border summaries — are cloned onto member
        # prefixes afterwards. Assume mode solves raw: operator claims name
        # raw prefixes and must be checked against raw exports.
        simulator = RouteSimulator(model, igp=igp, max_rounds=max_rounds)
        index = None if self.assume is not None else simulator.route_ecs(inputs, ctx)
        solve_inputs = inputs if index is None else index.representative_routes
        seed = self._cached_summaries(verifier.assignment, ctx)
        if seed is not None and index is not None:
            seed = _restrict_to_representatives(seed, index)
        modular = verifier.solve(
            solve_inputs, assume=self.assume, seed=seed, ctx=ctx
        )
        self.last_result = modular
        self.last_violations = list(modular.violations)
        if modular.fallback:
            # Widen-to-full: the summaries could not be trusted (violated
            # claims or an unstable exchange). Full simulation reproduces
            # the centralized answer exactly; the violations stay on
            # last_violations as structured counter-examples.
            ctx.count("modular.fallbacks")
            return simulator.simulate(inputs, include_local_inputs=False, ctx=ctx)
        ctx.count("bgp.messages", modular.bgp.stats.messages)
        ribs = simulator.assemble_ribs(modular.bgp, index, ctx)
        summaries = modular.summaries
        if index is not None:
            with ctx.span("expand_summaries"):
                summaries = _expand_summaries(index, summaries)
        self._remember(model, igp, verifier.assignment, summaries)
        self._publish(summaries, ctx)
        return SimulationResult(
            device_ribs=ribs,
            igp=igp,
            bgp=modular.bgp,
            elapsed_seconds=time.perf_counter() - started,
            cost_units=modular.bgp.stats.messages,
            route_ecs=index,
        )

    # -- region-scoped warm path ---------------------------------------------

    def run_region_scoped(
        self,
        request: RouteSimRequest,
        warm,
        base_model: NetworkModel,
        ctx: Optional[RunContext] = None,
    ) -> Optional[Tuple[Dict[str, DeviceRib], FrozenSet[str], SimulationResult]]:
        """Re-simulate one region against the base border summaries.

        Called by :class:`~repro.exec.incremental.IncrementalBackend` when
        the blast radius names a single region (``request.region_scope``).
        ``request.inputs`` is already the covered subset. Returns the
        region's partial RIBs + device set for a scoped splice, or ``None``
        to decline (no remembered base state, IGP moved, or the region's
        summary is violated — the caller then takes the ordinary
        covered-input path, so declining is always safe).

        Soundness: the scoped solve pins inbound border advertisements to
        their base values. If the region's resulting exports equal its
        base summary, then "every other region at base state + this region
        at the scoped solution" satisfies all fixpoint equations at the
        covered prefixes simultaneously — it *is* the updated global
        fixpoint — so devices outside the region keep base rows even at
        covered prefixes.
        """
        ctx = ensure_context(ctx)
        region = request.region_scope
        state = self._states.get(id(base_model))
        if region is None or state is None or state.model is not base_model:
            ctx.count("modular.scoped_declined")
            return None
        if request.igp is not None and request.igp is not state.igp:
            # The pipeline recomputed the IGP: the base summaries' costs no
            # longer apply.
            ctx.count("modular.scoped_declined")
            return None
        assignment = state.assignment
        if region not in assignment.regions:
            ctx.count("modular.scoped_declined")
            return None
        blast = warm.blast
        region_of = assignment.region_of
        covered = list(request.inputs)
        region_inputs = [
            item for item in covered if region_of.get(item.router) == region
        ]

        started = time.perf_counter()
        sessions = build_sessions(request.model, state.igp)
        intra = [
            s
            for s in sessions
            if region_of.get(s.sender) == region
            and region_of.get(s.receiver) == region
        ]
        cross_out = [
            s
            for s in sessions
            if region_of.get(s.sender) == region
            and region_of.get(s.receiver) != region
        ]
        cross_in = {
            s.key: s
            for s in sessions
            if region_of.get(s.receiver) == region
            and region_of.get(s.sender) != region
        }
        solver = RegionSolver(
            request.model,
            state.igp,
            region,
            assignment.devices_in(region),
            intra,
            cross_out,
            max_rounds=request.max_rounds,
        )
        solver.start(region_inputs)
        deliveries: List[Delivery] = []
        for other_region, summary in state.summaries.items():
            if other_region == region:
                continue
            for key, session_exports in summary.exports.items():
                session = cross_in.get(key)
                if session is None:
                    continue
                for prefix, routes in sorted(
                    session_exports.items(), key=lambda kv: kv[0].ident
                ):
                    if blast.covers(prefix):
                        deliveries.append((session, prefix, routes))
        solver.absorb(deliveries)
        if not solver.converged:
            ctx.count("modular.scoped_declined")
            return None

        # Guarantee check: the scoped region's covered-prefix exports must
        # reproduce its base summary — otherwise the change leaked across
        # the border and every region needs the ordinary covered-input run.
        solver.collect_export_deltas()  # refresh the ledger
        actual = solver.current_exports()
        claimed = state.summaries[region].restricted(blast.covers).exports
        actual_covered = {
            key: {
                prefix: routes
                for prefix, routes in session_exports.items()
                if blast.covers(prefix)
            }
            for key, session_exports in actual.items()
        }
        if not summaries_equal(claimed, actual_covered):
            violations = diff_exports(region, claimed, actual_covered)
            self.last_violations = violations
            ctx.count("modular.summary_violations", len(violations))
            ctx.count("modular.scoped_declined")
            return None

        devices = assignment.devices_in(region)
        ctx.count("modular.scoped_region_sims")
        ctx.count(
            "modular.cross_region_sims_skipped", len(assignment.regions) - 1
        )
        bgp = solver.materialize()
        ribs = RouteSimulator(
            request.model, igp=state.igp, max_rounds=request.max_rounds
        ).assemble_ribs(bgp)
        partial = {device: ribs[device] for device in devices}
        result = SimulationResult(
            device_ribs=partial,
            igp=state.igp,
            bgp=bgp,
            elapsed_seconds=time.perf_counter() - started,
            cost_units=bgp.stats.messages,
        )
        return partial, frozenset(devices), result

    # -- traffic --------------------------------------------------------------

    def run_traffic(
        self, request: TrafficSimRequest, ctx: Optional[RunContext] = None
    ) -> TrafficSimOutcome:
        return run_traffic_in_process(request, ensure_context(ctx), self.name)

    # -- state / cache --------------------------------------------------------

    def _remember(
        self,
        model: NetworkModel,
        igp: IgpState,
        assignment: RegionAssignment,
        summaries: Dict[str, RegionSummary],
    ) -> None:
        self._states[id(model)] = _SolveState(
            model=model, igp=igp, assignment=assignment, summaries=summaries
        )
        self._states.move_to_end(id(model))
        while len(self._states) > self.MAX_STATES:
            self._states.popitem(last=False)

    def _cached_summaries(
        self, assignment: RegionAssignment, ctx: RunContext
    ) -> Optional[Dict[str, RegionSummary]]:
        if self.summary_store is None:
            return None
        cached: Dict[str, RegionSummary] = {}
        for region in assignment.regions:
            summary = self.summary_store.get(region)
            if summary is not None:
                cached[region] = summary
        return cached or None

    def _publish(
        self, summaries: Dict[str, RegionSummary], ctx: RunContext
    ) -> None:
        if self.summary_store is None:
            return
        for region, summary in summaries.items():
            self.summary_store.put(region, summary)
        ctx.count("modular.summaries_published", len(summaries))


def _restrict_to_representatives(
    summaries: Dict[str, RegionSummary], index: PrefixGroupEcIndex
) -> Dict[str, RegionSummary]:
    """Drop cached-summary entries for non-representative member prefixes.

    Cached summaries live in raw prefix space; a representative-space solve
    can only usefully be seeded with representative (or out-of-index)
    prefixes. Seeding is advisory, so dropping entries is always safe.
    """
    dropped = {
        member
        for rep, members in index.members_by_representative().items()
        for member in members
        if member != rep
    }
    if not dropped:
        return summaries
    return {
        region: summary.restricted(lambda p: p not in dropped)
        for region, summary in summaries.items()
    }


def _expand_summaries(
    index: PrefixGroupEcIndex, summaries: Dict[str, RegionSummary]
) -> Dict[str, RegionSummary]:
    """Clone representative-prefix border exports onto EC member prefixes.

    The EC invariant (§3.1) is that member prefixes are indistinguishable
    to policy and decision logic, so a member's border export is exactly
    the representative's with the prefix field rewritten — the same cloning
    :func:`expand_device_ribs` performs for RIB rows. Expanded summaries are
    what gets remembered and published: every later consumer (the scoped
    incremental path, the serve cache) compares against raw-space exports.
    """
    members_of = index.members_by_representative()
    expanded: Dict[str, RegionSummary] = {}
    for region, summary in summaries.items():
        exports = {}
        for key, session_exports in summary.exports.items():
            cloned = {}
            for prefix, routes in session_exports.items():
                members = members_of.get(prefix)
                if members is None:
                    cloned[prefix] = routes
                    continue
                for member in members:
                    if member == prefix:
                        cloned[member] = routes
                    else:
                        cloned[member] = tuple(
                            route.evolve(prefix=member) for route in routes
                        )
            exports[key] = cloned
        expanded[region] = RegionSummary(region=region, exports=exports)
    return expanded


__all__ = ["ModularBackend"]
