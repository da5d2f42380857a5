"""Traffic simulation entry point: EC reduction + forwarding + link loads.

A traffic-simulation subtask (§3.2) takes the input flows assigned to it,
reduces them to equivalence classes, forwards one representative per EC in
spread mode (even ECMP volume split), scales by the EC's pooled volume, and
aggregates per-link loads in work order (float accumulation order is part
of the contract).

A change verification can hand ``simulate`` a :class:`SpreadReuse`: the
base run plus the RIB slots and the ``(router, target)`` IGP/link pairs
the change moved. Representatives whose base walk never met a touched slot
covering their destination nor read a moved pair keep their base spread;
only the rest are forwarded. When the touched slots cannot move
any flow's LPM cut, the base flow-EC partition is kept as well and the
base link loads are patched at the links the re-forwarded ECs cross (see
``docs/incremental.md``, "Traffic that follows the change").
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.ec.flow_ec import FlowEcIndex, build_prefix_universe, compute_flow_ecs
from repro.net.addr import IPAddress, Prefix
from repro.net.model import NetworkModel
from repro.net.trie import PrefixTrie
from repro.routing.isis import IgpState, compute_igp
from repro.routing.rib import DeviceRib
from repro.traffic.flow import Flow
from repro.traffic.forwarding import FlowPath, ForwardingEngine, Pair
from repro.traffic.load import LinkContributions, LinkLoadMap

#: One flow's ECMP paths with their volume fractions.
Spread = List[Tuple[FlowPath, float]]

@dataclass
class TrafficSimulationResult:
    """Output of one traffic-simulation (sub)task."""

    paths: Dict[Flow, List[Tuple[FlowPath, float]]]
    loads: LinkLoadMap
    ec_index: Optional[FlowEcIndex]
    elapsed_seconds: float = 0.0
    cost_units: int = 0
    #: per flow in ``paths``, the ``(router, target)`` pairs its walk read
    reads: Dict[Flow, FrozenSet[Pair]] = field(default_factory=dict)
    #: :class:`_BaseWork` of this run, built on the first patch against it
    _base_work: Any = field(default=None, init=False, repr=False, compare=False)

    def path_of(self, flow: Flow) -> List[Tuple[FlowPath, float]]:
        """ECMP paths (with fractions) for a flow, via its EC representative."""
        if flow in self.paths:
            return self.paths[flow]
        if self.ec_index is not None:
            representative = self.ec_index.representative_of(flow)
            if representative is not None:
                return self.paths.get(representative, [])
        return []

    def primary_path(self, flow: Flow) -> Optional[FlowPath]:
        """The highest-fraction path of a flow (deterministic tiebreak)."""
        options = self.path_of(flow)
        if not options:
            return None
        return max(options, key=lambda pair: (pair[1], "-".join(pair[0].routers)))[0]

    def status_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for options in self.paths.values():
            for path, _ in options:
                counts[path.status] = counts.get(path.status, 0) + 1
        return counts


class _BaseWork:
    """What patching a base run needs, derived once from its result."""

    def __init__(self, result: TrafficSimulationResult) -> None:
        assert result.ec_index is not None
        #: (representative, pooled volume) per flow EC, in work order
        self.work = [
            (ec.representative, ec.total_volume) for ec in result.ec_index.classes
        ]
        self.contributions = LinkContributions(
            (volume, result.paths[flow]) for flow, volume in self.work
        )
        dsts: Dict[Tuple[str, int], List[Tuple[int, int]]] = {}
        for index, (flow, _) in enumerate(self.work):
            dsts.setdefault((flow.vrf, flow.dst.family), []).append(
                (flow.dst.value, index)
            )
        #: (vrf, family) -> sorted (destination value, work index)
        self._dsts = {key: sorted(items) for key, items in dsts.items()}
        #: read pair -> work indices whose walk read it
        self.readers: Dict[Pair, List[int]] = {}
        for index, (flow, _) in enumerate(self.work):
            for pair in result.reads[flow]:
                self.readers.setdefault(pair, []).append(index)

    def covered(self, vrf: str, prefix: Prefix) -> List[int]:
        """Work indices of representatives in ``vrf`` with dst in ``prefix``."""
        items = self._dsts.get((vrf, prefix.family), [])
        lo = bisect_left(items, (prefix.first_value, -1))
        hi = bisect_right(items, (prefix.last_value, len(self.work)))
        return [index for _, index in items[lo:hi]]


def _base_work(result: TrafficSimulationResult) -> _BaseWork:
    if result._base_work is None:
        result._base_work = _BaseWork(result)
    return result._base_work


def _cost(spread: Spread) -> int:
    return sum(max(1, len(path.routers)) for path, _ in spread)


def _held(ribs: Mapping[str, DeviceRib], prefix: Prefix) -> bool:
    """Whether some device and VRF has a best/ECMP row at ``prefix``.

    This is membership in :func:`build_prefix_universe`'s table, asked
    through ``routes_for`` so a spliced RIB builds no FIB index for it.
    """
    return any(
        rib.routes_for(prefix, vrf) for rib in ribs.values() for vrf in rib.vrfs
    )


class SpreadReuse:
    """Base-run spreads that a change cannot reach.

    ``base`` is the base run's result, ``base_ribs`` the RIBs it forwarded
    over and ``flows`` the flows it simulated; ``touched`` names, per
    device, every ``(vrf, prefix)`` RIB slot that differs from the base
    (``SpliceResult.touched``), and
    ``moved`` every ``(router, target)`` pair whose up-link state, IGP
    reachability or IGP next hops may differ. The caller guarantees that
    nothing else a forwarding decision reads moved: addresses, the ingress
    ACL each link selects, and every device's ACL, PBR and SR
    configuration are the base's.

    A spread walk decides at exactly the routers on its paths, and a
    router's decision for a flow can then only differ through its LPM
    entry for the destination — which only a touched slot at a prefix
    covering the destination can move — or through a pair it read. So a
    base spread none of whose routers holds such a slot and none of whose
    reads moved is the spread a fresh forward would return.
    """

    def __init__(
        self,
        base: TrafficSimulationResult,
        touched: Mapping[str, Iterable[Tuple[str, Prefix]]],
        base_ribs: Mapping[str, DeviceRib],
        flows: Iterable[Flow],
        moved: Iterable[Pair] = (),
    ) -> None:
        self.base = base
        self.base_ribs = base_ribs
        self.flows = list(flows)
        self.moved: FrozenSet[Pair] = frozenset(moved)
        self._touched: Dict[str, PrefixTrie] = {}
        self._slots: Set[Tuple[str, Prefix]] = set()
        for device, slots in touched.items():
            for vrf, prefix in slots:
                trie = self._touched.get(vrf)
                if trie is None:
                    trie = self._touched[vrf] = PrefixTrie()
                trie.insert(prefix, device)
                self._slots.add((vrf, prefix))
        self._devices: Dict[Tuple[str, IPAddress], FrozenSet[str]] = {}

    def _touched_devices(self, vrf: str, dst: IPAddress) -> FrozenSet[str]:
        """Devices with a touched ``vrf`` slot at a prefix containing ``dst``."""
        key = (vrf, dst)
        devices = self._devices.get(key)
        if devices is None:
            trie = self._touched.get(vrf)
            devices = frozenset(
                trie.covering_values(Prefix.from_address(dst))
                if trie is not None
                else ()
            )
            self._devices[key] = devices
        return devices

    def spread_for(self, flow: Flow) -> Optional[Spread]:
        """The base spread of ``flow`` if the change cannot reach it, else None."""
        spread = self.base.paths.get(flow)
        if spread is None or not self.base.reads[flow].isdisjoint(self.moved):
            return None
        devices = self._touched_devices(flow.vrf, flow.dst)
        if devices and any(not devices.isdisjoint(path.routers) for path, _ in spread):
            return None
        return spread

    def partition(
        self, flows: List[Flow], ribs: Mapping[str, DeviceRib]
    ) -> Tuple[Optional[FlowEcIndex], Optional[str]]:
        """The base flow ECs if they are those of ``flows`` over ``ribs``.

        An EC key reads the prefix universe only through the universe
        prefixes covering each flow's destination, and untouched slots
        are the base's, so the universe can only differ at a touched
        prefix. The base partition stands unless some touched prefix
        entered or left the universe and covers a flow's destination.
        Returns ``(index, None)`` or ``(None, why it was not kept)``.
        """
        index = self.base.ec_index
        if index is None:
            return None, "no_base_ecs"
        if flows != self.flows:
            return None, "other_flows"
        for prefix in {prefix for _, prefix in self._slots}:
            if _held(self.base_ribs, prefix) != _held(ribs, prefix) and any(
                prefix.contains_address(flow.dst) for flow in flows
            ):
                return None, "universe_moved"
        return index, None

    def reforward(self) -> List[int]:
        """Base work indices the change may reach, in work order.

        Only representatives whose destination a touched prefix covers or
        that read a moved pair can be reached; of those, the ones
        :meth:`spread_for` rejects.
        """
        work = _base_work(self.base)
        candidates: Set[int] = set()
        for vrf, prefix in self._slots:
            candidates.update(work.covered(vrf, prefix))
        for pair in self.moved & work.readers.keys():
            candidates.update(work.readers[pair])
        return [
            index
            for index in sorted(candidates)
            if self.spread_for(work.work[index][0]) is None
        ]

    def patch(
        self, forwarded: Mapping[int, Tuple[Spread, FrozenSet[Pair]]]
    ) -> Tuple[
        Dict[Flow, Spread], Dict[Flow, FrozenSet[Pair]], LinkLoadMap, int, int
    ]:
        """The base result with the spreads (and reads) of work items replaced.

        Returns ``(paths, reads, loads, cost_units, links re-summed)``,
        equal to what merging the base work with ``forwarded`` in place
        produces.
        """
        base = self.base
        work = _base_work(base)
        paths = dict(base.paths)
        reads = dict(base.reads)
        cost_units = base.cost_units
        replaced = {}
        for index, (spread, read) in forwarded.items():
            flow, volume = work.work[index]
            old = base.paths[flow]
            paths[flow] = spread
            reads[flow] = read
            cost_units += _cost(spread) - _cost(old)
            replaced[index] = (volume, old, spread)
        loads, links = work.contributions.patch(base.loads, replaced)
        return paths, reads, loads, cost_units, links


class TrafficSimulator:
    """Simulates forwarding and link loads for input flows."""

    def __init__(
        self,
        model: NetworkModel,
        ribs: Dict[str, DeviceRib],
        igp: Optional[IgpState] = None,
        use_ecs: bool = True,
    ) -> None:
        self.model = model
        self.ribs = ribs
        self.igp = igp if igp is not None else compute_igp(model)
        self.use_ecs = use_ecs
        self.engine = ForwardingEngine(model, ribs, self.igp)

    def simulate(
        self,
        flows: Iterable[Flow],
        ctx=None,
        reuse: Optional[SpreadReuse] = None,
    ) -> TrafficSimulationResult:
        """Forward the flows and aggregate link loads.

        ``ctx`` (an optional :class:`repro.obs.RunContext`) records
        ``traffic.compile`` / ``traffic.forward`` / ``traffic.merge``
        sub-spans plus flow/EC and fast-path cache counters.

        With ``reuse``, representatives it has a spread for are not
        forwarded (counters ``traffic.ecs_reused`` /
        ``traffic.ecs_reforwarded``). If :meth:`SpreadReuse.partition`
        keeps the base flow ECs, only representatives a touched prefix
        covers or that read a moved pair are candidates, and the base load
        map is patched at the links the re-forwarded ECs cross (counter
        ``traffic.links_patched``); otherwise ECs are recomputed and the
        merge adds every spread in work order. Either way loads are the
        floats, in the key order, of a full forward. The
        ``traffic.compile`` span says which happened (``flow_ecs=reused``
        or ``recomputed``, and ``ecs_recomputed=`` why, under a reuse).
        """
        started = time.perf_counter()
        flows = list(flows)
        index: Optional[FlowEcIndex] = None
        kept = False

        if self.use_ecs:
            with ctx.span(
                "traffic.compile", flows=len(flows)
            ) if ctx else nullcontext() as compiling:
                why = None
                if reuse is not None:
                    index, why = reuse.partition(flows, self.ribs)
                    kept = index is not None
                if index is None:
                    universe = build_prefix_universe(self.ribs.values())
                    index = compute_flow_ecs(flows, universe, model=self.model)
                if compiling is not None:
                    compiling.meta["flow_ecs"] = "reused" if kept else "recomputed"
                    if why is not None:
                        compiling.meta["ecs_recomputed"] = why
            work: List[Tuple[Flow, float]] = (
                _base_work(reuse.base).work
                if kept
                else [(ec.representative, ec.total_volume) for ec in index.classes]
            )
            if ctx is not None:
                ctx.count("traffic.flow_ecs", len(index.classes))
        else:
            work = [(flow, flow.volume) for flow in flows]

        if kept:
            pending = reuse.reforward()
        else:
            done: List[Optional[Tuple[Spread, FrozenSet[Pair]]]] = [None] * len(work)
            if reuse is not None:
                for i, (flow, _) in enumerate(work):
                    spread = reuse.spread_for(flow)
                    if spread is not None:
                        done[i] = (spread, reuse.base.reads[flow])
            pending = [i for i, item in enumerate(done) if item is None]
        forward = [work[i][0] for i in pending]
        meta = {"work": len(forward)}
        if reuse is not None:
            meta["reused"] = len(work) - len(forward)
            if ctx is not None:
                ctx.count("traffic.ecs_reused", meta["reused"])
                ctx.count("traffic.ecs_reforwarded", len(forward))

        with ctx.span("traffic.forward", **meta) if ctx else nullcontext():
            forwarded = [self._forward(flow) for flow in forward]

        with ctx.span("traffic.merge", work=len(work)) if ctx else nullcontext():
            if kept:
                paths, reads, loads, cost_units, links = reuse.patch(
                    dict(zip(pending, forwarded))
                )
                if ctx is not None:
                    ctx.count("traffic.links_patched", links)
            else:
                for i, item in zip(pending, forwarded):
                    done[i] = item
                paths, reads, loads, cost_units = {}, {}, LinkLoadMap(), 0
                for (flow, volume), (spread, read) in zip(work, done):
                    paths[flow] = spread
                    reads[flow] = read
                    for path, fraction in spread:
                        cost_units += max(1, len(path.routers))
                        for a, b in path.links:
                            loads.add(a, b, volume * fraction)

        if ctx is not None:
            for name, value in self.engine.stats.as_counters().items():
                if value:
                    ctx.count(name, value)

        return TrafficSimulationResult(
            paths=paths,
            loads=loads,
            ec_index=index,
            elapsed_seconds=time.perf_counter() - started,
            cost_units=cost_units,
            reads=reads,
        )

    def _forward(self, flow: Flow) -> Tuple[Spread, FrozenSet[Pair]]:
        """The flow's spread and the pairs its walk read."""
        reads: Set[Pair] = set()
        spread = self.engine.forward_spread(flow, reads=reads)
        return spread, frozenset(reads)
