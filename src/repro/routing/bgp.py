"""BGP simulation: synchronous-round fixpoint message passing (§3.1).

Each round, every router whose selection changed advertises the updated
best/add-path set per prefix to its sessions (after reflection rules and
egress policies); receivers run ingress processing (loop check, import
policy, VSB-aware defaults, IGP-cost resolution with the SR VSB) and
re-run the decision process. Aggregation and VRF route leaking are derived
locally after each decision change. The fixpoint terminates when no
advertisement changes — within 20 rounds on the paper's WAN.

The engine is instrumented: processed-message counts, per-prefix propagation
message counts (the source of Figure 5(c)'s uneven subtask cost), and round
count are all reported, so the distributed framework can model subtask run
time faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.net.addr import Prefix
from repro.net.device import BgpPeerConfig, DeviceConfig, GLOBAL_VRF
from repro.net.model import NetworkModel
from repro.net.policy import PolicyResult, apply_policy
from repro.routing.attributes import (
    PROTO_BGP,
    SOURCE_EBGP,
    SOURCE_IBGP,
    SOURCE_LOCAL,
    Route,
)
from repro.routing.decision import Candidate, Selection, make_candidate, select_best
from repro.routing.inputs import InputRoute
from repro.routing.isis import IgpState, INFINITY
from repro.routing.sr import effective_igp_cost

if TYPE_CHECKING:
    from repro.ec.route_ec import PrefixGroupEcIndex

#: IGP cost stored for unreachable next hops (keeps keys comparable ints).
UNREACHABLE_COST = 1 << 30

LocKey = Tuple[str, Prefix]  # (vrf, prefix)


def ingress_igp_cost(
    device: DeviceConfig, igp: IgpState, owner: Optional[str]
) -> int:
    """The IGP cost ``device`` records for a next hop owned by ``owner``.

    An unowned or unreachable next hop costs :data:`UNREACHABLE_COST`, a
    local one 0, a remote one its IGP distance with the SR VSB applied.
    Ingress processing and the k-failure blast bound both read this rule,
    so the bound sees exactly the cost the fixpoint records.
    """
    if owner is None:
        return UNREACHABLE_COST
    if owner == device.name:
        return 0
    plain = igp.cost(device.name, owner)
    if plain == INFINITY:
        plain = UNREACHABLE_COST
    return int(effective_igp_cost(device, owner, plain))


def _session_policy(
    policy_name: Optional[str],
    route: Route,
    ctx,
    ebgp: bool,
    direction: str,
) -> PolicyResult:
    """Apply a session policy with the missing-policy VSB scoped correctly.

    The Table-5 "missing route policy" VSB concerns whether *updates are
    accepted* when no policy is defined — an eBGP import question. iBGP
    sessions and missing export policies permit unconditionally on every
    modelled vendor; an undefined (named but missing) policy resolves via
    the "undefined route policy" VSB in either direction.
    """
    if policy_name is None and not (ebgp and direction == "import"):
        return PolicyResult(True, route, reason=f"no-{direction}-policy")
    return apply_policy(policy_name, route, ctx)


@dataclass(frozen=True)
class Session:
    """One BGP session direction: ``sender`` advertises to ``receiver``."""

    sender: str
    receiver: str
    sender_vrf: str
    receiver_vrf: str
    ebgp: bool
    sender_cfg: BgpPeerConfig
    receiver_cfg: BgpPeerConfig

    def __post_init__(self) -> None:
        # Egress processing is fully determined by these sender-side
        # parameters; sessions with an equal class advertise identical
        # route sets, which _advertise exploits to compute adverts once
        # per class instead of once per session.
        cfg = self.sender_cfg
        self.__dict__["egress_class"] = (
            self.ebgp,
            cfg.export_policy,
            cfg.next_hop_self,
            cfg.route_reflector_client,
            cfg.addpath,
        )

    @property
    def key(self) -> Tuple[str, str, str, str]:
        return (self.sender, self.sender_vrf, self.receiver, self.receiver_vrf)


def build_sessions(model: NetworkModel, igp: IgpState) -> List[Session]:
    """Derive live session directions from both ends' peer configuration.

    A direction exists when both devices configure each other with matching
    ASNs and both ends are enabled. eBGP sessions additionally require a
    direct up link; iBGP sessions require IGP reachability (so failures
    propagate into session liveness for k-failure checking).
    """
    sessions: List[Session] = []
    topology = model.topology
    # Per-device reverse-peer index keyed by (peer name, remote asn). The
    # naive inner scan made session derivation O(devices x peers^2); the
    # index keeps the first matching enabled peer config, preserving the
    # original first-match semantics.
    peer_index: Dict[str, Dict[Tuple[str, int], BgpPeerConfig]] = {}
    for device in model.devices.values():
        index: Dict[Tuple[str, int], BgpPeerConfig] = {}
        for q in device.peers:
            if q.enabled:
                index.setdefault((q.peer, q.remote_asn), q)
        peer_index[device.name] = index
    for device in model.devices.values():
        if not topology.router_is_up(device.name):
            continue
        if device.isolated and not device.vendor.isolation_via_policy:
            # Config-style isolation takes the sessions down entirely.
            continue
        for pc in device.peers:
            if not pc.enabled:
                continue
            peer_device = model.devices.get(pc.peer)
            if peer_device is None or not topology.router_is_up(pc.peer):
                continue
            if peer_device.isolated and not peer_device.vendor.isolation_via_policy:
                continue
            if pc.remote_asn != peer_device.asn:
                continue
            qc = peer_index[pc.peer].get((device.name, device.asn))
            if qc is None:
                continue
            ebgp = device.asn != peer_device.asn
            if ebgp:
                if topology.find_link(device.name, pc.peer) is None or not any(
                    topology.link_is_up(l)
                    for l in topology.links_between(device.name, pc.peer)
                ):
                    continue
            else:
                if not igp.reachable(device.name, pc.peer):
                    continue
            sessions.append(
                Session(
                    sender=device.name,
                    receiver=pc.peer,
                    sender_vrf=pc.vrf,
                    receiver_vrf=qc.vrf,
                    ebgp=ebgp,
                    sender_cfg=pc,
                    receiver_cfg=qc,
                )
            )
    return sessions


class DirtyWorklist:
    """Deduplicating worklist of dirty ``(device, vrf, prefix)`` slots.

    ``drain()`` hands back the pending slots in a deterministic order —
    device name, VRF, then numeric prefix identity — so fixpoint rounds stay
    reproducible without rendering every prefix to text the way the old
    ``sorted(dirty, key=...str(prefix))`` did.
    """

    __slots__ = ("_pending",)

    def __init__(self) -> None:
        # Deduplicated by (device, vrf, prefix.ident) — an all-C-hash key —
        # mapping back to the original slot tuple.
        self._pending: Dict[Tuple[str, str, int], Tuple[str, str, Prefix]] = {}

    def __len__(self) -> int:
        return len(self._pending)

    def __bool__(self) -> bool:
        return bool(self._pending)

    def add(self, item: Tuple[str, str, Prefix]) -> None:
        self._pending[(item[0], item[1], item[2].ident)] = item

    def update(self, items: Iterable[Tuple[str, str, Prefix]]) -> None:
        pending = self._pending
        for item in items:
            pending[(item[0], item[1], item[2].ident)] = item

    @staticmethod
    def _key(item: Tuple[str, str, Prefix]) -> Tuple:
        device, vrf, prefix = item
        return (device, vrf, prefix.family, prefix.value, prefix.length)

    def drain(self) -> List[Tuple[str, str, Prefix]]:
        """Remove and return all pending slots in deterministic order."""
        items = sorted(self._pending.values(), key=self._key)
        self._pending.clear()
        return items


@dataclass
class BgpStats:
    """Instrumentation emitted by a simulation run."""

    rounds: int = 0
    messages: int = 0
    converged: bool = True
    #: per-prefix count of delivered advertisement messages — the paper's
    #: "routes from ISPs propagate a few hops, DC routes more than 10".
    prefix_messages: Dict[Prefix, int] = field(default_factory=dict)


@dataclass
class BgpResult:
    """Final BGP state: per-device selections plus instrumentation."""

    selections: Dict[str, Dict[LocKey, Selection]]
    suppressed: Dict[str, Dict[str, Set[Prefix]]]
    stats: BgpStats
    #: the session directions the fixpoint ran over (``build_sessions``
    #: of the model and IGP it was given, or the list it was handed)
    sessions: Sequence[Session] = ()

    def best_routes(self, device: str, vrf: str, prefix: Prefix) -> List[Route]:
        selection = self.selections.get(device, {}).get((vrf, prefix))
        if selection is None:
            return []
        return selection.routes()


class BgpSimulator:
    """Runs the fixpoint for a set of input routes on a network model.

    ``sessions``, when given, is ``build_sessions(model, igp)`` computed
    before (read, never changed).
    """

    def __init__(
        self,
        model: NetworkModel,
        igp: IgpState,
        max_rounds: int = 50,
        sessions: Optional[Sequence[Session]] = None,
    ) -> None:
        self.model = model
        self.igp = igp
        self.max_rounds = max_rounds
        self.sessions = (
            sessions if sessions is not None else build_sessions(model, igp)
        )
        # Indexed by (sender, sender_vrf): _advertise previously filtered a
        # per-sender list by VRF on every dirty slot.
        self._sessions_from: Dict[Tuple[str, str], List[Session]] = {}
        for session in self.sessions:
            self._sessions_from.setdefault(
                (session.sender, session.sender_vrf), []
            ).append(session)

        # Mutable per-run state.
        # adj-rib-in indexed device -> (vrf, prefix.ident) -> sender ->
        # candidates, so decision recomputation touches only the affected
        # slot. Internal tables key prefixes by their int ``ident`` (a
        # C-speed hash); the Prefix-keyed observable views (``selections``,
        # ``suppressed``, per-prefix message counts) are materialized once at
        # the end of ``run()``.
        self._adj_in: Dict[
            str, Dict[Tuple[str, int], Dict[str, Tuple[Candidate, ...]]]
        ] = {}
        self._inputs: Dict[str, Dict[Tuple[str, int], List[Candidate]]] = {}
        self._derived: Dict[str, Dict[Tuple[str, int], List[Candidate]]] = {}
        self._locs: Dict[str, Dict[Tuple[str, int], Selection]] = {}
        self._suppressed: Dict[str, Dict[str, Set[Prefix]]] = {}
        # id(session) -> prefix.ident -> last advertised route tuple
        self._last_sent: Dict[int, Dict[int, Tuple[Route, ...]]] = {}
        # prefix.ident -> delivered message count / representative Prefix
        self._pm_count: Dict[int, int] = {}
        self._pm_prefix: Dict[int, Prefix] = {}
        self._stats = BgpStats()

    # -- public API -----------------------------------------------------------

    def run(
        self,
        input_routes: Iterable[InputRoute],
        route_ecs: Optional["PrefixGroupEcIndex"] = None,
    ) -> BgpResult:
        """Simulate the propagation of the input routes to a fixpoint.

        ``route_ecs`` — the §3.1 classes of ``input_routes`` — lets the run
        answer for all of them by solving one representative prefix group
        per class: the result then holds representative prefixes only and
        the caller clones their rows onto the members.
        """
        if route_ecs is not None:
            input_routes = route_ecs.representative_routes
        self._reset()
        worklist = self.seed(input_routes)
        self.run_worklist(worklist)
        return self.materialize()

    def seed(self, input_routes: Iterable[InputRoute]) -> DirtyWorklist:
        """Inject input routes and settle local derivation; returns the
        initial worklist for ``run_worklist``."""
        dirty: Dict[Tuple[str, str, int], Tuple[str, str, Prefix]] = {}
        for item in input_routes:
            if item.router not in self.model.devices:
                continue
            prefix = item.route.prefix
            route = item.route
            if route.source == SOURCE_EBGP and route.igp_cost == 0:
                # External routes resolve directly out of the AS border.
                route = route.evolve(igp_cost=0)
            candidate = Candidate(route=route, from_peer="")
            self._inputs.setdefault(item.router, {}).setdefault(
                (item.vrf, prefix.ident), []
            ).append(candidate)
            dirty[(item.router, item.vrf, prefix.ident)] = (
                item.router,
                item.vrf,
                prefix,
            )

        for device, vrf, prefix in dirty.values():
            self._recompute(device, vrf, prefix)

        worklist = DirtyWorklist()
        worklist.update(dirty.values())
        worklist.update(self._settle_local({d for d, _, _ in dirty.values()}))
        return worklist

    def run_worklist(self, worklist: DirtyWorklist) -> None:
        """Advertise/deliver until the worklist drains (or rounds run out).

        Each invocation gets a fresh ``max_rounds`` budget; the stats round
        counter accumulates across invocations so warm continuations report
        total work."""
        rounds = 0
        while worklist:
            rounds += 1
            if rounds > self.max_rounds:
                self._stats.converged = False
                break
            deliveries = self._advertise(worklist.drain())
            worklist.update(self._deliver(deliveries))
        self._stats.rounds += rounds

    def materialize(self) -> BgpResult:
        """The Prefix-keyed observable views of the current fixpoint state.

        Every candidate in a slot carries the slot's prefix, so the key's
        Prefix is recovered from the selection itself; per-prefix message
        counts were accumulated by ident alongside a representative
        Prefix."""
        self._stats.prefix_messages = {
            self._pm_prefix[ident]: count
            for ident, count in self._pm_count.items()
        }
        selections: Dict[str, Dict[LocKey, Selection]] = {
            device: {
                (key[0], sel.best.route.prefix): sel
                for key, sel in locs.items()
            }
            for device, locs in self._locs.items()
        }
        return BgpResult(
            selections=selections,
            suppressed=self._suppressed,
            stats=self._stats,
            sessions=self.sessions,
        )

    # -- internals ----------------------------------------------------------------

    def _reset(self) -> None:
        self._adj_in = {}
        self._inputs = {}
        self._derived = {}
        self._locs = {}
        self._suppressed = {}
        self._last_sent = {}
        self._pm_count = {}
        self._pm_prefix = {}
        self._stats = BgpStats()

    def _candidates(self, device: str, vrf: str, prefix: Prefix) -> List[Candidate]:
        key = (vrf, prefix.ident)
        found: List[Candidate] = []
        found.extend(self._inputs.get(device, {}).get(key, []))
        found.extend(self._derived.get(device, {}).get(key, []))
        for entries in self._adj_in.get(device, {}).get(key, {}).values():
            found.extend(entries)
        return found

    def _recompute(self, device: str, vrf: str, prefix: Prefix) -> bool:
        """Re-run decision; True if the multipath selection changed."""
        key = (vrf, prefix.ident)
        candidates = self._candidates(device, vrf, prefix)
        locs = self._locs.setdefault(device, {})
        old = locs.get(key)
        if not candidates:
            if old is None:
                return False
            del locs[key]
            return True
        config = self.model.devices[device]
        max_paths = config.max_paths
        if vrf != GLOBAL_VRF and not config.vendor.subview_inherits_options:
            # "Inheriting views" VSB: on vendors whose sub-views do not
            # inherit options, the VRF view falls back to default multipath.
            max_paths = 1
        selection = select_best(candidates, max_paths=max_paths)
        locs[key] = selection
        if old is None:
            return True
        # Route-level multipath comparison without materializing the
        # old/new multipath lists (Route.__eq__ short-circuits on identity).
        if old.best.route != selection.best.route:
            return True
        if len(old.ecmp) != len(selection.ecmp):
            return True
        for prev, new in zip(old.ecmp, selection.ecmp):
            if prev.route != new.route:
                return True
        return False

    # -- advertisement -------------------------------------------------------------

    def _advertise(
        self, dirty: Sequence[Tuple[str, str, Prefix]]
    ) -> List[Tuple[Session, Prefix, Tuple[Route, ...]]]:
        """Advertise the (already deterministically ordered) dirty slots."""
        deliveries: List[Tuple[Session, Prefix, Tuple[Route, ...]]] = []
        last_sent = self._last_sent
        sessions_from = self._sessions_from
        devices = self.model.devices
        locs = self._locs
        suppressed_all = self._suppressed
        for device, vrf, prefix in dirty:
            sessions = sessions_from.get((device, vrf), ())
            if not sessions:
                continue
            dev = devices[device]
            vendor = dev.vendor
            if dev.isolated and vendor.isolation_via_policy:
                # Policy-style isolation: sessions stay up but advertise
                # nothing (the device still *learns* routes — the observable
                # difference from config-style isolation).
                selection = None
            else:
                selection = locs.get(device, {}).get((vrf, prefix.ident))
                if selection is not None and prefix in suppressed_all.get(
                    device, {}
                ).get(vrf, ()):
                    selection = None
            # An RR fans identical adverts out to every client: sessions
            # sharing an egress class advertise the same route set, so the
            # egress computation runs once per class per dirty slot.
            by_class: Dict[Tuple, Tuple[Route, ...]] = {}
            for session in sessions:
                if selection is None:
                    routes = ()
                else:
                    routes = by_class.get(session.egress_class)
                    if routes is None:
                        routes = self._advert_routes(session, dev, vendor, selection)
                        by_class[session.egress_class] = routes
                # Per-session sub-dict keyed by the session's id: sessions
                # are held alive by self.sessions, and an int key plus a
                # prefix key hash far cheaper than a 5-tuple of strings.
                sent = last_sent.get(id(session))
                if sent is None:
                    sent = {}
                    last_sent[id(session)] = sent
                ident = prefix.ident
                if sent.get(ident, ()) != routes:
                    sent[ident] = routes
                    deliveries.append((session, prefix, routes))
        return deliveries

    def _advert_routes(
        self,
        session: Session,
        device: DeviceConfig,
        vendor,
        selection: Selection,
    ) -> Tuple[Route, ...]:
        """Egress route set for one session class of an unsuppressed slot.

        The caller (``_advertise``) resolves the device, its isolation
        state, the selection, and aggregate suppression once per dirty slot.
        """
        adverts: List[Route] = []
        for candidate in selection.multipath[: max(1, session.sender_cfg.addpath)]:
            route = candidate.route
            if candidate.suppressed:
                continue
            # iBGP reflection rules
            if not session.ebgp and route.source == SOURCE_IBGP:
                if not (candidate.from_client or session.sender_cfg.route_reflector_client):
                    continue
            out = self._export_transform(session, device, vendor, route)
            if out is not None:
                adverts.append(out)
        return tuple(adverts)

    def _export_transform(
        self, session: Session, device: DeviceConfig, vendor, route: Route
    ) -> Optional[Route]:
        """Egress policy + attribute rewrite for one route on one session."""
        # /32 direct-route advertisement VSB
        if "direct32" in route.flags and not vendor.sends_direct_slash32_to_peer:
            return None
        policy_name = session.sender_cfg.export_policy
        if policy_name is None:
            # Missing export policy permits unconditionally on every
            # modelled vendor (see _session_policy); skip the call and the
            # PolicyResult allocation on this very hot default path.
            out = route
            aspath_overwritten = False
        else:
            result = _session_policy(
                policy_name,
                route,
                device.policy_ctx,
                ebgp=session.ebgp,
                direction="export",
            )
            if not result.permitted:
                return None
            out = result.route
            aspath_overwritten = result.aspath_overwritten
        if session.ebgp:
            nexthop = self.model.loopback_of(device.name)
            if not aspath_overwritten or vendor.adds_own_asn_after_overwrite:
                out = out.evolve(
                    as_path=(device.asn,) + out.as_path, nexthop=nexthop
                )
            else:
                out = out.evolve(nexthop=nexthop)
        elif session.sender_cfg.next_hop_self or out.nexthop is None:
            # next-hop-self, or a locally injected route without a next
            # hop yet: the sender becomes the next hop.
            out = out.evolve(nexthop=self.model.loopback_of(device.name))
        return out

    # -- delivery / ingress ------------------------------------------------------------

    def _deliver(
        self, deliveries: Sequence[Tuple[Session, Prefix, Tuple[Route, ...]]]
    ) -> List[Tuple[str, str, Prefix]]:
        # Keyed by (receiver, vrf, prefix.ident) — C-speed hashes — mapping
        # back to the slot tuple carried through the rest of the round.
        touched: Dict[Tuple[str, str, int], Tuple[str, str, Prefix]] = {}
        pm_count = self._pm_count
        pm_prefix = self._pm_prefix
        devices = self.model.devices
        adj_all = self._adj_in
        ingress = self._ingress
        for session, prefix, routes in deliveries:
            ident = prefix.ident
            count = pm_count.get(ident)
            if count is None:
                pm_count[ident] = 1
                pm_prefix[ident] = prefix
            else:
                pm_count[ident] = count + 1
            receiver = devices[session.receiver]
            accepted: List[Candidate] = []
            for path_id, route in enumerate(routes):
                candidate = ingress(session, receiver, route, path_id)
                if candidate is not None:
                    accepted.append(candidate)
            adj = adj_all.setdefault(session.receiver, {})
            slot = adj.setdefault((session.receiver_vrf, ident), {})
            old = slot.get(session.sender, ())
            new = tuple(accepted)
            if old == new:
                continue
            if new:
                slot[session.sender] = new
            else:
                slot.pop(session.sender, None)
            touched[(session.receiver, session.receiver_vrf, ident)] = (
                session.receiver,
                session.receiver_vrf,
                prefix,
            )
        self._stats.messages += len(deliveries)

        # `touched` is already deduplicated, so the changed slots form a
        # plain list; the worklist dedups against the settle results.
        dirty: List[Tuple[str, str, Prefix]] = []
        for device, vrf, prefix in touched.values():
            if self._recompute(device, vrf, prefix):
                dirty.append((device, vrf, prefix))
        dirty.extend(self._settle_local({d for d, _, _ in dirty}))
        return dirty

    def _settle_local(self, devices: Set[str]) -> Set[Tuple[str, str, Prefix]]:
        """Iterate aggregate/leak derivation on devices until locally stable.

        Chains like "leaked route contributes to an aggregate" need more
        than one derivation pass; the iteration count is bounded to guard
        against pathological mutual-leak oscillation.
        """
        changed_all: Set[Tuple[str, str, Prefix]] = set()
        pending = set(devices)
        for _ in range(20):
            if not pending:
                break
            changed: Set[Tuple[str, str, Prefix]] = set()
            for device in sorted(pending):
                changed |= self._refresh_derived(device)
            if not changed:
                break
            changed_all |= changed
            pending = {d for d, _, _ in changed}
        else:
            self._stats.converged = False
        return changed_all

    def _ingress(
        self,
        session: Session,
        receiver: DeviceConfig,
        route: Route,
        path_id: int,
    ) -> Optional[Candidate]:
        vendor = receiver.vendor
        if session.ebgp:
            if receiver.asn in route.as_path:
                return None  # AS loop prevention
            if route.local_pref != 100:
                route = route.evolve(local_pref=100)  # local pref not transitive
        policy_name = session.receiver_cfg.import_policy
        if policy_name is None and not session.ebgp:
            # Missing iBGP import policy permits unconditionally on every
            # modelled vendor (the missing-policy VSB is an eBGP-import
            # question); skip the call on this very hot default path.
            processed = route
        else:
            result = _session_policy(
                policy_name,
                route,
                receiver.policy_ctx,
                ebgp=session.ebgp,
                direction="import",
            )
            if not result.permitted:
                return None
            processed = result.route
        source = SOURCE_EBGP if session.ebgp else SOURCE_IBGP
        ebgp_pref, ibgp_pref = vendor.default_bgp_preference
        preference = ebgp_pref if session.ebgp else ibgp_pref
        nexthop = processed.nexthop
        igp_cost = 0 if nexthop is None else ingress_igp_cost(
            receiver, self.igp, self.model.owner_of_address(nexthop)
        )
        if (
            processed.source != source
            or processed.protocol != PROTO_BGP
            or processed.preference != preference
            or processed.igp_cost != igp_cost
        ):
            processed = processed.evolve(
                source=source,
                protocol=PROTO_BGP,
                preference=preference,
                igp_cost=igp_cost,
            )
        return make_candidate(
            route=processed,
            from_peer=session.sender,
            from_client=session.receiver_cfg.route_reflector_client,
            path_id=path_id,
        )

    # -- derived candidates: aggregation and VRF leaking --------------------------------

    def _refresh_derived(self, device: str) -> Set[Tuple[str, str, Prefix]]:
        """Recompute aggregates and leaks on a device after loc changes."""
        config = self.model.device(device)
        derived: Dict[Tuple[str, int], List[Candidate]] = {}
        suppressed: Dict[str, Set[Prefix]] = {}
        locs = self._locs.get(device, {})

        # Aggregation (§3.1: prefixes trigger aggregate prefixes on devices).
        # Loc keys are (vrf, prefix.ident); every candidate in a slot carries
        # the slot's prefix, so it is recovered from the best route.
        for agg in config.aggregates.values():
            agg_ident = agg.prefix.ident
            contributors = [
                selection
                for (vrf, ident), selection in locs.items()
                if vrf == agg.vrf
                and ident != agg_ident
                and agg.prefix.contains_prefix(selection.best.route.prefix)
                and not any(c.route.aggregator == device for c in selection.multipath)
            ]
            if not contributors:
                continue
            as_path: Tuple[int, ...] = ()
            if not agg.as_set and config.vendor.aggregate_keeps_common_aspath:
                paths = [s.best.route.as_path for s in contributors]
                as_path = _common_prefix(paths)
            communities: FrozenSet[str] = frozenset()
            if agg.as_set:
                communities = frozenset().union(
                    *(s.best.route.communities for s in contributors)
                )
            agg_route = Route(
                prefix=agg.prefix,
                as_path=as_path,
                communities=communities,
                protocol=PROTO_BGP,
                source=SOURCE_LOCAL,
                origin_router=device,
                origin_vrf=agg.vrf,
                aggregator=device,
                nexthop=self.model.loopback_of(device),
            )
            derived.setdefault((agg.vrf, agg.prefix.ident), []).append(
                Candidate(route=agg_route, from_peer="")
            )
            if agg.summary_only:
                marks = suppressed.setdefault(agg.vrf, set())
                for (vrf, ident), selection in locs.items():
                    if vrf == agg.vrf and ident != agg_ident:
                        prefix = selection.best.route.prefix
                        if agg.prefix.contains_prefix(prefix):
                            marks.add(prefix)

        # VRF route leaking by route-target intersection
        vrf_list = list(config.vrfs.values())
        for src_vrf in vrf_list:
            for dst_vrf in vrf_list:
                if src_vrf.name == dst_vrf.name:
                    continue
                if not (src_vrf.export_rts & dst_vrf.import_rts):
                    continue
                for (vrf, ident), selection in locs.items():
                    if vrf != src_vrf.name:
                        continue
                    for candidate in selection.multipath:
                        if candidate.leaked and not config.vendor.releaks_vpn_routes_by_rt:
                            continue
                        leaked_route = candidate.route
                        policy_name = src_vrf.export_policy
                        if src_vrf.name == GLOBAL_VRF:
                            # "VRF export policy" VSB: does the receiving
                            # VRF's export policy apply to leaked global
                            # iBGP routes?
                            policy_name = (
                                dst_vrf.export_policy
                                if config.vendor.vrf_export_applies_to_leaked_global
                                else None
                            )
                        if policy_name is not None:
                            result = apply_policy(
                                policy_name, leaked_route, config.policy_ctx
                            )
                            if not result.permitted:
                                continue
                            leaked_route = result.route
                        derived.setdefault((dst_vrf.name, ident), []).append(
                            Candidate(
                                route=leaked_route.evolve(origin_vrf=src_vrf.name),
                                from_peer=f"leak:{src_vrf.name}",
                                leaked=True,
                            )
                        )

        old_derived = self._derived.get(device, {})
        old_suppressed = self._suppressed.get(device, {})
        changed: Set[Tuple[str, str, Prefix]] = set()
        for key in set(old_derived) | set(derived):
            old_entries = old_derived.get(key)
            new_entries = derived.get(key)
            if old_entries != new_entries:
                # Internal keys are (vrf, prefix.ident); recover the Prefix
                # from whichever side has entries for the dirty tuple.
                entries = new_entries or old_entries
                changed.add((device, key[0], entries[0].route.prefix))
        if old_suppressed != suppressed:
            # Suppression changes what is advertised: mark affected prefixes.
            for vrf in set(old_suppressed) | set(suppressed):
                for prefix in old_suppressed.get(vrf, set()) ^ suppressed.get(
                    vrf, set()
                ):
                    changed.add((device, vrf, prefix))
        self._derived[device] = derived
        self._suppressed[device] = suppressed
        for device_name, vrf, prefix in changed:
            self._recompute(device_name, vrf, prefix)
        return changed


def _common_prefix(paths: Sequence[Tuple[int, ...]]) -> Tuple[int, ...]:
    """Longest common leading segment of the given AS paths."""
    if not paths:
        return ()
    common: List[int] = []
    for asns in zip(*paths):
        if all(a == asns[0] for a in asns):
            common.append(asns[0])
        else:
            break
    return tuple(common)
