"""Summary-guided modular verification (assume/guarantee, LIGHTYEAR-style).

The monolithic BGP fixpoint treats the WAN as one equation system. The
modular verifier exploits that the equations are *local*: a device's
selection depends only on its own inputs and its sessions' advertisements.
Partition the devices into regions and the system splits into per-region
fixpoints coupled only through border (cross-region) sessions. The
:class:`SummaryGuidedVerifier` therefore

1. solves every region independently over its intra-region session graph
   (:class:`RegionSolver` — a :class:`~repro.routing.bgp.BgpSimulator`
   restricted to the region's sessions),
2. computes each region's *border summary* — the exact route sets it
   advertises over cross-region sessions,
3. delivers summary deltas to neighbor regions and re-settles them (warm
   continuation, not a restart: delivery into an unchanged adj-in slot is a
   no-op), repeating until no region's exports change, and
4. checks guarantees: each region's actual exports must match its claimed
   summary. With self-computed summaries the exchange loop *constructs*
   matching claims, so a violation only arises when the exchange budget is
   exhausted (a genuinely divergent cross-region interaction) or when
   operator-supplied summaries (``assume=``) turn out wrong. Either way the
   violations are surfaced as structured counter-examples and the caller
   falls back to full simulation — the fallback is a performance event,
   never a correctness event.

Because the decision process is candidate-order independent (see
``repro.routing.decision.select_best``) and delivery is idempotent, the
converged composition satisfies every device's equation simultaneously —
i.e. it *is* the unique global fixpoint, byte-identical to the monolithic
run, which the equivalence suite pins across backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.net.addr import Prefix
from repro.net.model import NetworkModel
from repro.routing.attributes import Route
from repro.routing.bgp import (
    BgpResult,
    BgpSimulator,
    BgpStats,
    Session,
    build_sessions,
)
from repro.routing.inputs import InputRoute
from repro.routing.isis import IgpState, compute_igp
from repro.modular.regions import RegionAssignment, assign_regions, split_sessions
from repro.modular.summaries import (
    RegionSummary,
    SessionExports,
    SessionKey,
    SummaryViolation,
    diff_exports,
)

#: one cross-border advertisement: (session, prefix, route set).
Delivery = Tuple[Session, Prefix, Tuple[Route, ...]]

#: default budget for summary-exchange iterations. Each iteration lets
#: border state cross one region hop, so the budget bounds the region
#: graph's diameter times the advertisement churn — generous for WANs
#: whose region graph is RR-mesh shaped (diameter 1-2).
DEFAULT_EXCHANGE_ROUNDS = 30


def _slot_order(item: Tuple[Tuple[str, int], object]) -> Tuple[str, int]:
    (vrf, ident), _selection = item
    return (vrf, ident)


class RegionSolver:
    """One region's warm BGP fixpoint plus its border-export ledger."""

    def __init__(
        self,
        model: NetworkModel,
        igp: IgpState,
        region: str,
        devices: Iterable[str],
        intra_sessions: Sequence[Session],
        cross_out: Sequence[Session],
        max_rounds: int = 50,
    ) -> None:
        self.region = region
        self.devices = frozenset(devices)
        #: border sessions this region sends on, in deterministic order.
        self.cross_out = sorted(cross_out, key=lambda s: s.key)
        self.sim = BgpSimulator(
            model, igp, max_rounds=max_rounds, sessions=intra_sessions
        )
        self.sim._reset()
        # id(session) -> prefix.ident -> last collected export route set;
        # mirrors the simulator's _last_sent but for border sessions the
        # region simulator does not own.
        self._sent: Dict[int, Dict[int, Tuple[Route, ...]]] = {}
        self._prefix_by_ident: Dict[int, Prefix] = {}

    @property
    def converged(self) -> bool:
        return self.sim._stats.converged

    @property
    def stats(self) -> BgpStats:
        return self.sim._stats

    def start(self, input_routes: Iterable[InputRoute]) -> None:
        """Seed the region's own inputs and settle the local fixpoint."""
        worklist = self.sim.seed(input_routes)
        self.sim.run_worklist(worklist)

    def absorb(self, deliveries: Sequence[Delivery]) -> None:
        """Apply inbound border advertisements and re-settle."""
        self.sim.deliver_external(deliveries)

    def preload_ledger(
        self, exports: Mapping[SessionKey, SessionExports]
    ) -> List[Delivery]:
        """Warm-start the export ledger from a cached summary.

        Marks the cached route sets as already-sent and returns them as
        deliveries for the receiving regions, so sender ledger and receiver
        adj-in start consistent. Stale entries self-correct: the next
        ``collect_export_deltas`` diffs real exports against this ledger
        and emits replacements/withdrawals — the cache is a warm-start
        hint, never trusted for correctness.
        """
        by_key: Dict[SessionKey, Session] = {s.key: s for s in self.cross_out}
        deliveries: List[Delivery] = []
        for key, session_exports in exports.items():
            session = by_key.get(key)
            if session is None:
                continue
            sent = self._sent.setdefault(id(session), {})
            for prefix, routes in sorted(
                session_exports.items(), key=lambda kv: kv[0].ident
            ):
                sent[prefix.ident] = routes
                self._prefix_by_ident[prefix.ident] = prefix
                deliveries.append((session, prefix, routes))
        return deliveries

    def collect_export_deltas(
        self,
    ) -> List[Tuple[Session, Prefix, Tuple[Route, ...], Tuple[Route, ...]]]:
        """Border adverts that changed since the previous collection.

        Returns ``(session, prefix, routes, previous)`` tuples — exactly
        what ``_advertise`` would have sent over these sessions, including
        withdrawals (an ident previously exported, now empty). Updates the
        ledger, so a second immediate call returns nothing.
        """
        deltas: List[
            Tuple[Session, Prefix, Tuple[Route, ...], Tuple[Route, ...]]
        ] = []
        sim = self.sim
        devices = sim.model.devices
        for session in self.cross_out:
            dev = devices[session.sender]
            vendor = dev.vendor
            advertises = not (dev.isolated and vendor.isolation_via_policy)
            locs = sim._locs.get(session.sender, {})
            suppressed = sim._suppressed.get(session.sender, {}).get(
                session.sender_vrf, ()
            )
            sent = self._sent.setdefault(id(session), {})
            live: set = set()
            for (vrf, ident), selection in sorted(
                locs.items(), key=_slot_order
            ):
                if vrf != session.sender_vrf:
                    continue
                prefix = selection.best.route.prefix
                live.add(ident)
                if not advertises or prefix in suppressed:
                    routes: Tuple[Route, ...] = ()
                else:
                    routes = sim._advert_routes(session, dev, vendor, selection)
                previous = sent.get(ident, ())
                if previous != routes:
                    sent[ident] = routes
                    self._prefix_by_ident[ident] = prefix
                    deltas.append((session, prefix, routes, previous))
            for ident in list(sent):
                if ident not in live and sent[ident] != ():
                    previous = sent[ident]
                    sent[ident] = ()
                    deltas.append(
                        (session, self._prefix_by_ident[ident], (), previous)
                    )
        return deltas

    def current_exports(self) -> Dict[SessionKey, SessionExports]:
        """Absolute border exports from the ledger (withdrawals dropped)."""
        exports: Dict[SessionKey, SessionExports] = {}
        for session in self.cross_out:
            sent = self._sent.get(id(session), {})
            session_exports: SessionExports = {}
            for ident, routes in sent.items():
                if routes:
                    session_exports[self._prefix_by_ident[ident]] = routes
            exports[session.key] = session_exports
        return exports

    def materialize(self) -> BgpResult:
        return self.sim.materialize()


@dataclass
class ModularResult:
    """Outcome of a summary-guided solve."""

    #: merged per-region BGP state; ``None`` when the solve fell back.
    bgp: Optional[BgpResult]
    summaries: Dict[str, RegionSummary]
    violations: List[SummaryViolation] = field(default_factory=list)
    fallback: bool = False
    exchange_rounds: int = 0
    border_messages: int = 0
    regions: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.fallback


class SummaryGuidedVerifier:
    """Solves the global fixpoint region by region via border summaries."""

    def __init__(
        self,
        model: NetworkModel,
        igp: Optional[IgpState] = None,
        max_rounds: int = 50,
        exchange_rounds: int = DEFAULT_EXCHANGE_ROUNDS,
        assignment: Optional[RegionAssignment] = None,
    ) -> None:
        self.model = model
        self.igp = igp if igp is not None else compute_igp(model)
        self.max_rounds = max_rounds
        self.exchange_rounds = exchange_rounds
        self.assignment = (
            assignment if assignment is not None else assign_regions(model)
        )
        sessions = build_sessions(model, self.igp)
        self.intra, self.cross = split_sessions(sessions, self.assignment)
        region_of = self.assignment.region_of
        self._cross_out: Dict[str, List[Session]] = {
            region: [] for region in self.assignment.regions
        }
        for session in self.cross:
            sender_region = region_of.get(session.sender)
            if sender_region is not None:
                self._cross_out[sender_region].append(session)

    def build_solvers(self) -> Dict[str, RegionSolver]:
        return {
            region: RegionSolver(
                self.model,
                self.igp,
                region,
                self.assignment.devices_in(region),
                self.intra[region],
                self._cross_out[region],
                max_rounds=self.max_rounds,
            )
            for region in self.assignment.regions
        }

    def split_inputs(
        self, input_routes: Iterable[InputRoute]
    ) -> Dict[str, List[InputRoute]]:
        """Partition inputs by the injecting router's region."""
        by_region: Dict[str, List[InputRoute]] = {
            region: [] for region in self.assignment.regions
        }
        region_of = self.assignment.region_of
        for item in input_routes:
            region = region_of.get(item.router)
            if region is not None:
                by_region[region].append(item)
        return by_region

    def solve(
        self,
        input_routes: Iterable[InputRoute],
        assume: Optional[Mapping[str, RegionSummary]] = None,
        seed: Optional[Mapping[str, RegionSummary]] = None,
        ctx=None,
    ) -> ModularResult:
        """Run the per-region solve + summary exchange to the fixpoint.

        ``assume`` supplies operator-claimed summaries (trust-then-check):
        each region simulates against the claims and its actual exports
        must reproduce its own claim exactly — any mismatch is returned as
        violations with ``fallback=True`` and no merged BGP state. Without
        ``assume`` the exchange loop iterates until exports are stable, so
        claims are self-consistent by construction and fallback only
        triggers on budget exhaustion or a non-converging region.

        ``seed`` pre-loads cached summaries (e.g. the serve layer's
        content-addressed cache) as warm-start ledgers; stale entries are
        corrected by the exchange loop, so seeding affects speed only.
        """
        solvers = self.build_solvers()
        inputs_by_region = self.split_inputs(input_routes)
        for region in self.assignment.regions:
            solvers[region].start(inputs_by_region[region])

        violations: List[SummaryViolation] = []
        border_messages = 0
        rounds = 0
        if seed and assume is None:
            region_of = self.assignment.region_of
            seeded: Dict[str, List[Delivery]] = {}
            for region in self.assignment.regions:
                summary = seed.get(region)
                if summary is None:
                    continue
                for delivery in solvers[region].preload_ledger(summary.exports):
                    receiver_region = region_of.get(delivery[0].receiver)
                    if receiver_region is not None:
                        seeded.setdefault(receiver_region, []).append(delivery)
            for region in sorted(seeded):
                solvers[region].absorb(seeded[region])
            if ctx is not None and seeded:
                ctx.count(
                    "modular.summary_seeds",
                    sum(len(items) for items in seeded.values()),
                )
        if assume is not None:
            rounds = 1
            assumed = self._assumed_deliveries(assume)
            for region in self.assignment.regions:
                deliveries = assumed.get(region, [])
                border_messages += len(deliveries)
                solvers[region].absorb(deliveries)
            for region in self.assignment.regions:
                claim = assume.get(region)
                solvers[region].collect_export_deltas()  # refresh the ledger
                violations.extend(
                    diff_exports(
                        region,
                        claim.exports if claim is not None else {},
                        solvers[region].current_exports(),
                    )
                )
        else:
            while True:
                deltas = []
                for region in self.assignment.regions:
                    deltas.extend(solvers[region].collect_export_deltas())
                if not deltas:
                    break
                rounds += 1
                if rounds > self.exchange_rounds:
                    # Border state still churning: report the unstable
                    # (session, prefix) slots as counter-examples.
                    for session, prefix, routes, previous in deltas:
                        violations.append(
                            SummaryViolation(
                                region=self.assignment.region_of.get(
                                    session.sender, ""
                                ),
                                session_key=session.key,
                                prefix=prefix,
                                claimed=previous,
                                actual=routes,
                            )
                        )
                    break
                border_messages += len(deltas)
                by_region: Dict[str, List[Delivery]] = {}
                region_of = self.assignment.region_of
                for session, prefix, routes, _previous in deltas:
                    receiver_region = region_of.get(session.receiver)
                    if receiver_region is None:
                        continue
                    by_region.setdefault(receiver_region, []).append(
                        (session, prefix, routes)
                    )
                for region in sorted(by_region):
                    solvers[region].absorb(by_region[region])

        diverged = [
            region
            for region in self.assignment.regions
            if not solvers[region].converged
        ]
        fallback = bool(violations) or bool(diverged)
        summaries = {
            region: RegionSummary(
                region=region, exports=solvers[region].current_exports()
            )
            for region in self.assignment.regions
        }
        if ctx is not None:
            ctx.count("modular.regions", len(self.assignment.regions))
            ctx.count("modular.exchange_rounds", rounds)
            ctx.count("modular.border_messages", border_messages)
            if violations:
                ctx.count("modular.summary_violations", len(violations))
        if fallback:
            return ModularResult(
                bgp=None,
                summaries=summaries,
                violations=violations,
                fallback=True,
                exchange_rounds=rounds,
                border_messages=border_messages,
                regions=self.assignment.regions,
            )
        merged = merge_bgp_results(
            [solvers[region].materialize() for region in self.assignment.regions]
        )
        if ctx is not None:
            ctx.count(
                "modular.regions_verified_independently",
                len(self.assignment.regions),
            )
        return ModularResult(
            bgp=merged,
            summaries=summaries,
            violations=[],
            fallback=False,
            exchange_rounds=rounds,
            border_messages=border_messages,
            regions=self.assignment.regions,
        )

    def _assumed_deliveries(
        self, assume: Mapping[str, RegionSummary]
    ) -> Dict[str, List[Delivery]]:
        """Resolve claimed exports onto live cross sessions, per receiver."""
        by_key: Dict[SessionKey, Session] = {s.key: s for s in self.cross}
        region_of = self.assignment.region_of
        out: Dict[str, List[Delivery]] = {}
        for summary in assume.values():
            for key, session_exports in summary.exports.items():
                session = by_key.get(key)
                if session is None:
                    continue
                receiver_region = region_of.get(session.receiver)
                if receiver_region is None:
                    continue
                deliveries = out.setdefault(receiver_region, [])
                for prefix, routes in sorted(
                    session_exports.items(), key=lambda kv: kv[0].ident
                ):
                    deliveries.append((session, prefix, routes))
        return out


def merge_bgp_results(results: Sequence[BgpResult]) -> BgpResult:
    """Compose disjoint per-region BGP states into one global state.

    Device key spaces are disjoint by construction (each device belongs to
    exactly one region), so selection/suppression maps merge without
    conflict; stats sum, and per-prefix message counts add up.
    """
    selections: Dict[str, Dict] = {}
    suppressed: Dict[str, Dict] = {}
    stats = BgpStats()
    for result in results:
        selections.update(result.selections)
        suppressed.update(result.suppressed)
        stats.rounds += result.stats.rounds
        stats.messages += result.stats.messages
        stats.converged = stats.converged and result.stats.converged
        for prefix, count in result.stats.prefix_messages.items():
            stats.prefix_messages[prefix] = (
                stats.prefix_messages.get(prefix, 0) + count
            )
    return BgpResult(selections=selections, suppressed=suppressed, stats=stats)


__all__ = [
    "DEFAULT_EXCHANGE_ROUNDS",
    "Delivery",
    "ModularResult",
    "RegionSolver",
    "SummaryGuidedVerifier",
    "merge_bgp_results",
]
