"""Route simulation entry point: IGP + BGP + RIB assembly.

``RouteSimulator`` ties the engines together exactly as a Hoyan
route-simulation subtask does (§3.2): given a network model and a subset of
input routes, it computes the IGP state, runs the BGP fixpoint, and
assembles per-device RIBs (BGP best/ECMP/candidates, static routes, direct
routes) plus the global RIB for RCL verification. Administrative preference
decides between protocols competing for the same prefix.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro import perfopts
from repro.ec.route_ec import (
    PrefixGroupEcIndex,
    PrefixSignatureIndex,
    compute_prefix_group_ecs,
    expand_device_ribs,
)
from repro.net.model import NetworkModel
from repro.routing.bgp import BgpResult, BgpSimulator, BgpStats
from repro.routing.connected import install_connected_routes, resolve_contenders
from repro.routing.inputs import InputRoute, build_local_input_routes
from repro.routing.isis import IgpState, compute_igp
from repro.routing.rib import (
    DeviceRib,
    WithGlobalRib,
    ROUTE_TYPE_BEST,
    ROUTE_TYPE_CANDIDATE,
    ROUTE_TYPE_ECMP,
)


@dataclass
class SimulationResult(WithGlobalRib):
    """Output of one route-simulation (sub)task.

    ``device_ribs`` always cover every input prefix. ``bgp`` is the
    fixpoint state as it was *solved*: when ``route_ecs`` is set the solve
    ran on one representative prefix group per equivalence class (§3.1), so
    ``bgp.selections`` and ``bgp.stats`` hold representative prefixes only
    and a consumer that needs raw prefixes maps each slot through
    ``route_ecs.members_by_representative()``.
    """

    device_ribs: Dict[str, DeviceRib]
    igp: IgpState
    bgp: BgpResult
    elapsed_seconds: float = 0.0
    #: abstract work units (delivered BGP messages) — used by the
    #: distributed framework's simulated-makespan model.
    cost_units: int = 0
    #: the equivalence classes the solve was reduced by; ``None`` when it
    #: ran on the raw inputs.
    route_ecs: Optional[PrefixGroupEcIndex] = None

    @property
    def stats(self) -> BgpStats:
        return self.bgp.stats


class RouteSimulator:
    """Simulates route propagation for a network model."""

    def __init__(
        self,
        model: NetworkModel,
        igp: Optional[IgpState] = None,
        max_rounds: int = 50,
        keep_candidates: bool = False,
        include_connected: bool = True,
    ) -> None:
        self.model = model
        self.igp = igp if igp is not None else compute_igp(model)
        self.max_rounds = max_rounds
        self.keep_candidates = keep_candidates
        #: install static and loopback direct routes into the RIBs. Subtask
        #: workers disable this: those routes would otherwise appear in
        #: every subtask's result file, widening its recorded address range
        #: and defeating the ordering heuristic's dependency reduction.
        self.include_connected = include_connected
        #: §3.1 prefix signatures of ``model``, shared by every ``simulate``
        #: call (like ``igp``, valid while the model's configuration is)
        self._signatures = PrefixSignatureIndex(model)

    def simulate(
        self,
        input_routes: Optional[Iterable[InputRoute]] = None,
        include_local_inputs: bool = True,
        ctx=None,
    ) -> SimulationResult:
        """Run BGP for the input routes and assemble RIBs.

        ``input_routes=None`` simulates only the locally originated routes
        (redistribution). Subtasks pass their input subset and set
        ``include_local_inputs=False`` when local routes are provided by the
        master's input-building phase instead. ``ctx`` (an optional
        :class:`repro.obs.RunContext`) records fixpoint/assembly sub-spans
        and the BGP message and route-EC counters.

        The fixpoint runs in representative space whenever the inputs hold
        prefix groups that §3.1 cannot tell apart (see :meth:`route_ecs`);
        the RIBs are expanded back to every input prefix.
        """
        started = time.perf_counter()
        inputs: List[InputRoute] = list(input_routes or [])
        if include_local_inputs:
            inputs.extend(build_local_input_routes(self.model))

        index = self.route_ecs(inputs, ctx)
        bgp = BgpSimulator(self.model, self.igp, max_rounds=self.max_rounds)
        with (
            ctx.span(
                "bgp_fixpoint",
                inputs=len(inputs),
                solved_inputs=len(index.representative_routes if index else inputs),
            )
            if ctx
            else nullcontext()
        ):
            result = bgp.run(inputs, route_ecs=index)
        if ctx is not None:
            ctx.count("bgp.messages", result.stats.messages)
        ribs = self.assemble_ribs(result, index, ctx)
        elapsed = time.perf_counter() - started
        return SimulationResult(
            device_ribs=ribs,
            igp=self.igp,
            bgp=result,
            elapsed_seconds=elapsed,
            cost_units=result.stats.messages,
            route_ecs=index,
        )

    def route_ecs(
        self, inputs: Iterable[InputRoute], ctx=None
    ) -> Optional[PrefixGroupEcIndex]:
        """The §3.1 reduction of ``inputs``, or ``None`` when there is none.

        ``None`` — solve the raw inputs — with the ``route_ecs`` perf flag
        off and whenever no two prefix groups fall into one class (a
        bounded change's covered inputs usually span a single group).
        """
        if not perfopts.OPTS.route_ecs:
            return None
        index = compute_prefix_group_ecs(self.model, inputs, self._signatures)
        skipped = index.total_groups - len(index.classes)
        if not skipped:
            return None
        if ctx is not None:
            ctx.count("route_sim.ec_groups", len(index.classes))
            ctx.count("route_sim.ec_members_skipped", skipped)
        return index

    def assemble_ribs(
        self,
        bgp: BgpResult,
        route_ecs: Optional[PrefixGroupEcIndex] = None,
        ctx=None,
    ) -> Dict[str, DeviceRib]:
        """Assemble per-device RIBs from a BGP fixpoint state.

        Also the entry point for externally computed states: modular
        verification composes per-region fixpoints into one merged
        :class:`BgpResult` (device key spaces are disjoint) and runs the
        exact assembly ``simulate`` would, so RIB rows stay byte-identical
        to a monolithic pass. ``route_ecs`` names the classes a
        representative-space state was reduced by: its rows are cloned onto
        the member prefixes before connected routes compete for any slot.
        """
        with ctx.span("assemble_ribs") if ctx else nullcontext():
            ribs = self._assemble_bgp_ribs(bgp)
            if route_ecs is not None:
                with ctx.span("expand_ribs") if ctx else nullcontext():
                    expand_device_ribs(route_ecs, ribs)
            if self.include_connected:
                install_connected_routes(self.model, ribs)
        return ribs

    def _assemble_bgp_ribs(self, bgp: BgpResult) -> Dict[str, DeviceRib]:
        """One RIB per device holding its BGP selections (none when down)."""
        ribs: Dict[str, DeviceRib] = {}
        router_is_up = self.model.topology.router_is_up
        for name in self.model.devices:
            rib = DeviceRib(name)
            ribs[name] = rib
            if not router_is_up(name):
                continue
            for (vrf, prefix), selection in bgp.selections.get(name, {}).items():
                entries = [(selection.best.route, ROUTE_TYPE_BEST)]
                for candidate in selection.ecmp:
                    entries.append((candidate.route, ROUTE_TYPE_ECMP))
                if self.keep_candidates:
                    for candidate in selection.rejected:
                        entries.append((candidate.route, ROUTE_TYPE_CANDIDATE))
                rib.replace_prefix(vrf, prefix, resolve_contenders(entries))
        return ribs


def simulate_routes(
    model: NetworkModel,
    input_routes: Optional[Iterable[InputRoute]] = None,
    include_local_inputs: bool = True,
    **kwargs,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`RouteSimulator`."""
    return RouteSimulator(model, **kwargs).simulate(
        input_routes, include_local_inputs=include_local_inputs
    )
