"""Shared-fixpoint k-failure exploration engine.

The old checker re-simulated the entire WAN for every one of the
``sum(C(n, i))`` failure combinations. This engine solves the base
fixpoint **once**, then treats each scenario as a topology-failure delta
against it:

* **Warm-start deltas** — the :class:`~repro.kfailure.blast.FailureBlastAnalyzer`
  bounds each scenario's affected prefix space from the base solve's
  candidate sets; only the covered inputs are re-solved (through the
  :class:`~repro.exec.incremental.IncrementalBackend` splice machinery,
  with failed routers compared at every slot) and everything else is reused
  from the base RIBs. The covered subset is solved by the engine's own
  ``backend`` (centralized by default).
* **Equivalence-class pruning** — scenarios are canonicalized by their
  class key (failed routers, IS-IS adjacency, dead eBGP
  sessions); one simulation serves every scenario in a class. The pruning
  contract: properties must be functions of the device RIBs and the failed
  element sets (both identical within a class) — true of every shipped
  property.
* **Early exit** — with ``stop_on_first_violation`` the scenario walk
  stops at the first violating scenario.

``warm=False, prune=False`` reproduces the legacy exhaustive checker
move-for-move (modulo the missing-link fix) — the cold baseline the
equivalence suite and the A/B benchmark compare against. Pruning needs
the warm path: ``warm=False, prune=True`` is rejected.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.exec import CentralizedBackend, ExecutionBackend, RouteSimRequest
from repro.exec.incremental import IncrementalBackend, WarmStart
from repro.incremental.engine import IncrementalEngine
from repro.kfailure.blast import ClassKey, FailureBlastAnalyzer
from repro.kfailure.result import (
    KFailureResult,
    KFailureViolation,
    PropertyCheck,
)
from repro.kfailure.scenarios import (
    FailureScenario,
    apply_scenario,
    enumerate_scenarios,
)
from repro.net.model import NetworkModel
from repro.net.topology import Link
from repro.obs import RunContext, ensure_context
from repro.routing.inputs import InputRoute, build_local_input_routes
from repro.routing.simulator import RouteSimulator, SimulationResult


class KFailureEngine:
    """Explores the ≤k failure-scenario space against one base fixpoint."""

    def __init__(
        self,
        model: NetworkModel,
        input_routes: Sequence[InputRoute],
        fail_links: bool = True,
        fail_routers: bool = False,
        max_scenarios: Optional[int] = None,
        backend: Optional[ExecutionBackend] = None,
        warm: bool = True,
        prune: bool = True,
        stop_on_first_violation: bool = False,
        links: Optional[Sequence[Link]] = None,
        routers: Optional[Sequence[str]] = None,
        ctx: Optional[RunContext] = None,
    ) -> None:
        if prune and not warm:
            raise ValueError("class pruning needs warm=True")
        self.model = model
        self.inputs: List[InputRoute] = list(input_routes) + (
            build_local_input_routes(model)
        )
        self.fail_links = fail_links
        self.fail_routers = fail_routers
        self.max_scenarios = max_scenarios
        self.backend = backend if backend is not None else CentralizedBackend()
        self.warm = warm
        self.prune = prune
        self.stop_on_first_violation = stop_on_first_violation
        self.links = list(links) if links is not None else None
        self.routers = list(routers) if routers is not None else None
        self.ctx = ensure_context(ctx, "kfailure")
        self.base_result: Optional[SimulationResult] = None
        self.analyzer: Optional[FailureBlastAnalyzer] = None
        self._incr_engine: Optional[IncrementalEngine] = None
        self._warm_backend: Optional[IncrementalBackend] = None

    @property
    def mode_name(self) -> str:
        return ("warm" if self.warm else "cold") + ("+pruned" if self.prune else "")

    # -- preparation ---------------------------------------------------------

    def prepare(self, ctx: Optional[RunContext] = None) -> None:
        """Solve the base fixpoint and build the analyzer (idempotent).

        The base solve runs centralized in-process regardless of the
        scenario backend: the analyzer needs the full per-slot candidate
        sets (``BgpResult.selections`` including rejected candidates) that
        only an in-process result exposes.
        """
        if self.base_result is not None:
            return
        ctx = ctx if ctx is not None else self.ctx
        with ctx.span("kfailure.prepare", inputs=len(self.inputs)):
            simulator = RouteSimulator(self.model)
            self.base_result = simulator.simulate(
                self.inputs, include_local_inputs=False, ctx=ctx
            )
            self.analyzer = FailureBlastAnalyzer(
                self.model, self.base_result, ctx=ctx
            )
            self._incr_engine = IncrementalEngine(self.model)
            self._incr_engine.snapshot_base(self.base_result.device_ribs, ctx)
            self._warm_backend = IncrementalBackend(
                self.backend, self._incr_engine
            )

    # -- exploration ---------------------------------------------------------

    def check(
        self, k: int, prop: PropertyCheck, ctx: Optional[RunContext] = None
    ) -> KFailureResult:
        """Check the property under every ≤k failure scenario."""
        ctx = ctx if ctx is not None else self.ctx
        scenarios, total = enumerate_scenarios(
            self.model,
            k,
            fail_links=self.fail_links,
            fail_routers=self.fail_routers,
            links=self.links,
            routers=self.routers,
        )
        result = KFailureResult(scenarios_checked=0, scenarios_total=total)
        with ctx.span("kfailure.check", k=k, engine=self.mode_name) as span:
            examined: List[FailureScenario] = []
            for scenario in scenarios:
                if (
                    self.max_scenarios is not None
                    and len(examined) >= self.max_scenarios
                ):
                    result.truncated = True
                    break
                examined.append(scenario)
            result.scenarios_checked = len(examined)
            result.coverage = (len(examined) / total) if total else 1.0
            ctx.count("kfailure.scenarios_total", len(examined))

            if self.warm:
                self.prepare(ctx)
                self._check_sequential(examined, prop, result, ctx)
            else:
                self._check_cold(examined, prop, result, ctx)

            ctx.count("kfailure.simulated", result.scenarios_simulated)
            ctx.count("kfailure.pruned", result.scenarios_pruned)
            if result.violations:
                ctx.count(
                    "kfailure.violations",
                    sum(len(v.violations) for v in result.violations),
                )
        result.elapsed_seconds = span.duration
        return result

    # -- cold baseline (the legacy checker, move for move) -------------------

    def _check_cold(
        self,
        examined: Sequence[FailureScenario],
        prop: PropertyCheck,
        result: KFailureResult,
        ctx: RunContext,
    ) -> None:
        for scenario in examined:
            ctx.count("kfailure.scenarios")
            scenario_model = self.model.copy()
            apply_scenario(scenario_model.topology, scenario)
            outcome = self.backend.run_routes(
                RouteSimRequest(model=scenario_model, inputs=self.inputs), ctx
            )
            # In-process backends expose the full SimulationResult; any
            # other backend's outcome still satisfies the property protocol
            # (it carries device_ribs and global_rib()).
            simulation = (
                outcome.result if outcome.result is not None else outcome
            )
            result.scenarios_simulated += 1
            violations = prop(scenario_model, simulation)
            if self._record(result, scenario, violations):
                break

    # -- warm / pruned sequential path ---------------------------------------

    def _check_sequential(
        self,
        examined: Sequence[FailureScenario],
        prop: PropertyCheck,
        result: KFailureResult,
        ctx: RunContext,
    ) -> None:
        assert self.analyzer is not None
        class_verdicts: Dict[ClassKey, List[str]] = {}
        for scenario in examined:
            ctx.count("kfailure.scenarios")
            restore = apply_scenario(self.model.topology, scenario)
            try:
                key = self.analyzer.class_key(self.model, scenario)
                cached = class_verdicts.get(key) if self.prune else None
                if cached is not None:
                    result.scenarios_pruned += 1
                    violations = cached
                else:
                    result.scenarios_simulated += 1
                    violations = self._class_verdict(key, prop, ctx)
                    class_verdicts[key] = violations
            finally:
                restore()
            if self._record(result, scenario, violations):
                break

    def _class_verdict(
        self, key: ClassKey, prop: PropertyCheck, ctx: RunContext
    ) -> List[str]:
        """Verdict of one equivalence class; overlay is already applied."""
        assert self.analyzer is not None and self.base_result is not None
        effect = self.analyzer.effect(self.model, key)
        if effect.is_noop:
            # No RIB slot of any up device can move: judge the base RIBs
            # under the scenario overlay, zero solves.
            ctx.count("kfailure.noop_classes")
            return prop(self.model, self.base_result)
        assert self._warm_backend is not None
        warm = WarmStart(
            blast=effect.blast,
            base_ribs=self.base_result.device_ribs,
            full_devices=effect.failed_routers,
        )
        outcome = self._warm_backend.run_routes(
            RouteSimRequest(
                model=self.model,
                inputs=self.inputs,
                igp=effect.igp,
                warm_start=warm,
            ),
            ctx,
        )
        return prop(self.model, outcome)

    def _record(
        self,
        result: KFailureResult,
        scenario: FailureScenario,
        violations: Iterable[str],
    ) -> bool:
        """Append a violation record; True when exploration should stop."""
        violations = list(violations)
        if not violations:
            return False
        result.violations.append(
            KFailureViolation(
                failed_links=scenario.link_endpoints,
                failed_routers=scenario.failed_routers,
                violations=violations,
            )
        )
        if self.stop_on_first_violation:
            result.early_exited = True
            return True
        return False
