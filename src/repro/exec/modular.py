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

An optional ``summary_store`` (anything with ``get(region)`` /
``put(region, summary)``; the serve layer's hot state provides one keyed
by model hash) warm-starts the exchange from cached summaries and
publishes fresh ones after each solve. Cache entries are advisory: the
exchange verifies them, so a stale cache affects speed only.
"""

from __future__ import annotations

import time
from typing import Dict, List, Mapping, Optional

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
from repro.modular.summaries import RegionSummary, SummaryViolation
from repro.modular.verifier import (
    DEFAULT_EXCHANGE_ROUNDS,
    ModularResult,
    SummaryGuidedVerifier,
)
from repro.net.model import NetworkModel
from repro.obs import RunContext, ensure_context
from repro.routing.inputs import InputRoute, build_local_input_routes
from repro.routing.isis import IgpState, compute_igp
from repro.routing.simulator import RouteSimulator, SimulationResult


class ModularBackend(ExecutionBackend):
    """Summary-guided per-region execution with widen-to-full fallback."""

    name = "modular"
    is_distributed = False

    def __init__(
        self,
        exchange_rounds: int = DEFAULT_EXCHANGE_ROUNDS,
        assume: Optional[Mapping[str, RegionSummary]] = None,
        summary_store=None,
    ) -> None:
        self.exchange_rounds = exchange_rounds
        #: operator-claimed summaries (trust-then-check); a mismatch falls
        #: back to full simulation with structured counter-examples.
        self.assume = dict(assume) if assume else None
        self.summary_store = summary_store
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
        seed = self._cached_summaries(verifier.assignment)
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
        self._publish(modular.summaries, index, ctx)
        return SimulationResult(
            device_ribs=ribs,
            igp=igp,
            bgp=modular.bgp,
            elapsed_seconds=time.perf_counter() - started,
            cost_units=modular.bgp.stats.messages,
            route_ecs=index,
        )

    # -- traffic --------------------------------------------------------------

    def run_traffic(
        self, request: TrafficSimRequest, ctx: Optional[RunContext] = None
    ) -> TrafficSimOutcome:
        return run_traffic_in_process(request, ensure_context(ctx), self.name)

    # -- summary store --------------------------------------------------------

    def _cached_summaries(
        self, assignment: RegionAssignment
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
        self,
        summaries: Dict[str, RegionSummary],
        index: Optional[PrefixGroupEcIndex],
        ctx: RunContext,
    ) -> None:
        if self.summary_store is None:
            return
        if index is not None:
            with ctx.span("expand_summaries"):
                summaries = _expand_summaries(index, summaries)
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
    :func:`expand_device_ribs` performs for RIB rows. Only published
    summaries are expanded: the summary store holds raw-space exports.
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
                            route.with_prefix(member) for route in routes
                        )
            exports[key] = cloned
        expanded[region] = RegionSummary(region=region, exports=exports)
    return expanded


__all__ = ["ModularBackend"]
