"""Topology-failure blast analysis and equivalence-class keys.

The config-delta analyzer (:mod:`repro.incremental.blast`) widens to a full
re-simulation whenever topology moves, because an arbitrary topology edit
can shift session liveness and IGP costs anywhere. A *failure* scenario is
a much more structured delta — elements only go down, never up — and its
routing-visible effects flow through exactly two channels, both of which
this module bounds from the base solve:

1. **Dead sessions.** Failures only remove sessions (``build_sessions``
   gates eBGP on an up direct link and iBGP on IGP reachability / router
   up-state, and every gate is monotone in the failure overlay). A dead
   session withdraws precisely the prefixes its sender selected in the
   sender VRF — a superset of what it advertised — so those prefixes join
   the affected space.
2. **IGP cost movement.** The decision process sees the IGP only through
   each candidate's ingress cost to its next-hop owner. The base solve's
   full candidate sets (including rejected candidates, which an in-process
   centralized base run retains) give the exact (device, owner) → prefixes
   dependency map; any pair whose effective cost moves under the scenario
   IGP contributes its prefixes.

The space is then closed over aggregation (the only cross-prefix channel,
shared with the config analyzer). Every slot at an uncovered prefix is
byte-identical to base — except on failed routers, whose cold-run RIBs are
empty wholesale; the engine handles those via full-device splicing, not the
prefix space.

**Equivalence classes.** The scenario simulation is a pure function of
(failed routers, IS-IS adjacency, dead eBGP sessions): the adjacency
determines the IGP (and through it iBGP liveness and every ingress cost),
the failed-router set determines assembly, and dead eBGP sessions capture
the one liveness input the adjacency cannot see (eBGP links need not be
IS-IS participants; parallel bundle members collapse into one min-cost
adjacency edge). Scenarios with equal keys — e.g. failing either
member of a redundant parallel bundle, or a router plus any of its own
links — share one simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.incremental.blast import BlastRadius, blast_radius_for_prefixes
from repro.kfailure.scenarios import FailureScenario
from repro.net.addr import Prefix
from repro.net.model import NetworkModel
from repro.obs import RunContext, ensure_context
from repro.routing.bgp import Session, build_sessions, ingress_igp_cost
from repro.routing.isis import IgpState, build_adjacency, compute_igp
from repro.routing.simulator import SimulationResult

#: The IS-IS adjacency as its directed ``(router, neighbor, cost)`` edges.
Adjacency = FrozenSet[Tuple[str, str, float]]

#: (failed routers, IS-IS adjacency, dead eBGP session keys)
ClassKey = Tuple[FrozenSet[str], Adjacency, FrozenSet[Tuple[str, str, str, str]]]


def _adjacency(model: NetworkModel) -> Adjacency:
    """The IS-IS adjacency under the current overlay."""
    return frozenset(
        (a, b, cost)
        for a, neighbors in build_adjacency(model).items()
        for b, cost in neighbors.items()
    )


@dataclass
class ScenarioEffect:
    """Semantic effect of one failure equivalence class on the base solve."""

    key: ClassKey
    blast: BlastRadius
    failed_routers: FrozenSet[str]
    igp: IgpState
    igp_unchanged: bool
    dead_sessions: int

    @property
    def is_noop(self) -> bool:
        """The scenario cannot move any RIB slot of any up device."""
        return self.blast.is_empty and not self.failed_routers


class FailureBlastAnalyzer:
    """Bounds failure scenarios against one solved base fixpoint."""

    def __init__(
        self,
        model: NetworkModel,
        base_result: SimulationResult,
        ctx: Optional[RunContext] = None,
    ) -> None:
        self.model = model
        self.base_igp = base_result.igp
        ctx = ensure_context(ctx, "kfailure")
        with ctx.span("kfailure.analyzer_prepare"):
            self.base_adjacency = _adjacency(model)
            self.base_sessions: List[Session] = build_sessions(
                model, self.base_igp
            )
            topology = model.topology
            #: eBGP sessions with their candidate links, for per-scenario
            #: liveness checks without re-deriving the session graph.
            self._ebgp_links = [
                (s, tuple(topology.links_between(s.sender, s.receiver)))
                for s in self.base_sessions
                if s.ebgp
            ]
            #: (sender, sender_vrf) -> selected prefixes: the withdrawal
            #: superset a dead session can take off its receiver.
            self._sender_prefixes: Dict[Tuple[str, str], Set[Prefix]] = {}
            #: device -> next-hop owner -> prefixes whose candidates resolve
            #: their ingress cost through that owner.
            self._cost_deps: Dict[str, Dict[str, Set[Prefix]]] = {}
            self._collect_base_dependencies(base_result)
            self._igp_by_adjacency: Dict[Adjacency, IgpState] = {
                self.base_adjacency: self.base_igp
            }

    def _collect_base_dependencies(self, base_result: SimulationResult) -> None:
        owner_cache: Dict[object, Optional[str]] = {}
        owner_of = self.model.owner_of_address
        # The base fixpoint is representative-space: a slot stands for every
        # member prefix of its route EC, whose candidates differ only by
        # prefix — so they share the slot's senders and next-hop owners.
        members_of = (
            base_result.route_ecs.members_by_representative()
            if base_result.route_ecs is not None
            else {}
        )
        for device, slots in base_result.bgp.selections.items():
            deps = self._cost_deps.setdefault(device, {})
            for (vrf, prefix), selection in slots.items():
                prefixes = members_of.get(prefix) or (prefix,)
                self._sender_prefixes.setdefault((device, vrf), set()).update(
                    prefixes
                )
                for candidate in (
                    selection.best,
                    *selection.ecmp,
                    *selection.rejected,
                ):
                    nexthop = candidate.route.nexthop
                    if nexthop is None:
                        continue
                    owner = owner_cache.get(nexthop)
                    if owner is None and nexthop not in owner_cache:
                        owner = owner_of(nexthop)
                        owner_cache[nexthop] = owner
                    if owner is None or owner == device:
                        continue  # constant ingress cost across scenarios
                    deps.setdefault(owner, set()).update(prefixes)

    # -- per-scenario class key (cheap: no IGP solve) -----------------------

    def class_key(
        self, work_model: NetworkModel, scenario: FailureScenario
    ) -> ClassKey:
        """Equivalence-class key; overlay must already be applied."""
        topology = work_model.topology
        dead_ebgp = frozenset(
            session.key
            for session, links in self._ebgp_links
            if not (
                topology.router_is_up(session.sender)
                and topology.router_is_up(session.receiver)
                and any(topology.link_is_up(link) for link in links)
            )
        )
        return (
            frozenset(scenario.failed_routers),
            _adjacency(work_model),
            dead_ebgp,
        )

    # -- per-class effect (IGP solve, cached by adjacency) -------------------

    def effect(self, work_model: NetworkModel, key: ClassKey) -> ScenarioEffect:
        """Bound one equivalence class; overlay must already be applied."""
        failed_routers, adjacency, _dead_ebgp = key
        igp = self._igp_by_adjacency.get(adjacency)
        if igp is None:
            igp = compute_igp(work_model)
            self._igp_by_adjacency[adjacency] = igp
        igp_unchanged = adjacency == self.base_adjacency

        scenario_keys = {
            s.key for s in build_sessions(work_model, igp)
        }
        dead = [s for s in self.base_sessions if s.key not in scenario_keys]

        affected: Set[Prefix] = set()
        for session in dead:
            affected.update(
                self._sender_prefixes.get(
                    (session.sender, session.sender_vrf), ()
                )
            )
        affected_devices: Set[str] = set(failed_routers)
        for session in dead:
            affected_devices.add(session.sender)
            affected_devices.add(session.receiver)
        if not igp_unchanged:
            self._add_cost_movement(work_model, igp, affected, affected_devices)

        blast = blast_radius_for_prefixes(
            affected,
            (self.model,),
            changed_devices=frozenset(affected_devices),
        )
        return ScenarioEffect(
            key=key,
            blast=blast,
            failed_routers=failed_routers,
            igp=igp,
            igp_unchanged=igp_unchanged,
            dead_sessions=len(dead),
        )

    def _add_cost_movement(
        self,
        work_model: NetworkModel,
        igp: IgpState,
        affected: Set[Prefix],
        affected_devices: Set[str],
    ) -> None:
        """Prefixes whose candidates see a moved ingress cost."""
        topology = work_model.topology
        for device, owners in self._cost_deps.items():
            if not topology.router_is_up(device):
                continue  # the whole RIB is dropped; full-device splice
            cfg = self.model.devices[device]
            for owner, prefixes in owners.items():
                if ingress_igp_cost(cfg, self.base_igp, owner) != (
                    ingress_igp_cost(cfg, igp, owner)
                ):
                    affected.update(prefixes)
                    affected_devices.add(device)
