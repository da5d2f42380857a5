"""Traffic simulation entry point: EC reduction + forwarding + link loads.

A traffic-simulation subtask (§3.2) takes the input flows assigned to it,
reduces them to equivalence classes, forwards one representative per EC in
spread mode (even ECMP volume split), scales by the EC's pooled volume, and
aggregates per-link loads.

Forwarding can fan out across threads or processes (``workers`` /
``parallel_mode``): EC representatives are split into contiguous batches,
each batch forwards independently, and paths/loads are merged centrally in
the original work order — so worker count and scheduling never change the
result (float accumulation order is part of the contract).

A change verification can hand ``simulate`` a :class:`SpreadReuse`: the
base run's spreads plus the RIB slots the change touched. Representatives
whose base walk never met a touched slot covering their destination keep
their base spread; only the rest are forwarded (see
``docs/incremental.md``, "Traffic that follows the change").
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from repro import perfopts
from repro.ec.flow_ec import FlowEcIndex, build_prefix_universe, compute_flow_ecs
from repro.net.addr import IPAddress, Prefix
from repro.net.model import NetworkModel
from repro.net.trie import PrefixTrie
from repro.routing.isis import IgpState, compute_igp
from repro.routing.rib import DeviceRib
from repro.traffic.flow import Flow
from repro.traffic.forwarding import FlowPath, ForwardingEngine
from repro.traffic.load import LinkLoadMap

#: Accepted values for ``parallel_mode``.
PARALLEL_MODES = ("thread", "process")

#: One flow's ECMP paths with their volume fractions.
Spread = List[Tuple[FlowPath, float]]

# Process-pool worker state. The pool initializer installs only a shipping
# token (shared-memory segment name, or inline bytes with ``shm_ship`` off);
# the engine context — model, RIBs, IGP — is deserialized lazily on each
# worker's first batch, straight out of the shared mapping.
_PROC_TOKEN = None
_PROC_ENGINE: Optional[ForwardingEngine] = None


def _init_process_worker(token) -> None:
    global _PROC_TOKEN, _PROC_ENGINE
    _PROC_TOKEN = token
    _PROC_ENGINE = None


def _process_engine() -> ForwardingEngine:
    global _PROC_ENGINE
    if _PROC_ENGINE is None:
        assert _PROC_TOKEN is not None, "process worker not initialized"
        from repro.distsim import shipping

        model, ribs, igp = shipping.load(_PROC_TOKEN)
        _PROC_ENGINE = ForwardingEngine(model, ribs, igp)
    return _PROC_ENGINE


def _forward_batch_in_process(
    batch: List[Flow],
) -> List[List[Tuple[FlowPath, float]]]:
    engine = _process_engine()
    return [engine.forward_spread(flow) for flow in batch]


@dataclass
class TrafficSimulationResult:
    """Output of one traffic-simulation (sub)task."""

    paths: Dict[Flow, List[Tuple[FlowPath, float]]]
    loads: LinkLoadMap
    ec_index: Optional[FlowEcIndex]
    elapsed_seconds: float = 0.0
    cost_units: int = 0

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


class SpreadReuse:
    """Base-run spreads that a change cannot reach.

    ``base_paths`` is the base run's :attr:`TrafficSimulationResult.paths`;
    ``touched`` names, per device, every ``(vrf, prefix)`` RIB slot that
    may differ from the base (``SpliceResult.touched``, or any superset).
    The caller guarantees that nothing else a forwarding decision reads
    moved: topology, addresses, IGP, and every device's ACL, PBR and SR
    configuration are the base's.

    A spread walk decides at exactly the routers on its paths, and a
    router's decision for a flow can then only differ through its LPM
    entry for the destination — which only a touched slot at a prefix
    covering the destination can move. So a base spread none of whose
    routers holds such a slot is the spread a fresh forward would return.
    """

    def __init__(
        self,
        base_paths: Mapping[Flow, Spread],
        touched: Mapping[str, Iterable[Tuple[str, Prefix]]],
    ) -> None:
        self.base_paths = base_paths
        self._touched: Dict[str, PrefixTrie] = {}
        for device, slots in touched.items():
            for vrf, prefix in slots:
                trie = self._touched.get(vrf)
                if trie is None:
                    trie = self._touched[vrf] = PrefixTrie()
                trie.insert(prefix, device)
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
        spread = self.base_paths.get(flow)
        if spread is None:
            return None
        devices = self._touched_devices(flow.vrf, flow.dst)
        if devices and any(not devices.isdisjoint(path.routers) for path, _ in spread):
            return None
        return spread


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
        # Shipped (model, ribs, igp) context for process-mode forwarding,
        # built at most once per simulator and reused across simulate()
        # calls; ``_ship_stamp`` invalidates it if the model or RIBs move.
        self._shipped = None
        self._ship_stamp: Optional[Tuple[int, int, int]] = None

    def simulate(
        self,
        flows: Iterable[Flow],
        ctx=None,
        workers: Optional[int] = None,
        parallel_mode: str = "thread",
        reuse: Optional[SpreadReuse] = None,
    ) -> TrafficSimulationResult:
        """Forward the flows and aggregate link loads.

        ``ctx`` (an optional :class:`repro.obs.RunContext`) records
        ``traffic.compile`` / ``traffic.forward`` / ``traffic.merge``
        sub-spans plus flow/EC and fast-path cache counters. ``workers``
        > 1 fans forwarding out across threads (``parallel_mode=
        "thread"``) or processes (``"process"``); loads are always merged
        centrally in work order, so results are identical for any worker
        count or mode.

        With ``reuse``, representatives it has a spread for are not
        forwarded (counters ``traffic.ecs_reused`` /
        ``traffic.ecs_reforwarded``); the merge still adds every spread
        in work order, so loads are the floats a full forward produces.
        """
        if parallel_mode not in PARALLEL_MODES:
            raise ValueError(
                f"unknown parallel_mode {parallel_mode!r}; expected one of "
                f"{PARALLEL_MODES}"
            )
        started = time.perf_counter()
        flows = list(flows)
        loads = LinkLoadMap()
        paths: Dict[Flow, List[Tuple[FlowPath, float]]] = {}
        cost_units = 0

        if self.use_ecs:
            with ctx.span("traffic.compile", flows=len(flows)) if ctx else nullcontext():
                universe = build_prefix_universe(self.ribs.values())
                index: Optional[FlowEcIndex] = compute_flow_ecs(
                    flows, universe, model=self.model
                )
            work: List[Tuple[Flow, float]] = [
                (ec.representative, ec.total_volume) for ec in index.classes
            ]
            if ctx is not None:
                ctx.count("traffic.flow_ecs", len(index.classes))
        else:
            index = None
            work = [(flow, flow.volume) for flow in flows]

        spreads: List[Optional[Spread]] = (
            [reuse.spread_for(flow) for flow, _ in work]
            if reuse is not None
            else [None] * len(work)
        )
        pending = [i for i, spread in enumerate(spreads) if spread is None]
        forward = [work[i][0] for i in pending]
        meta = {"work": len(forward), "workers": workers or 1}
        if reuse is not None:
            meta["reused"] = len(work) - len(forward)
            if ctx is not None:
                ctx.count("traffic.ecs_reused", meta["reused"])
                ctx.count("traffic.ecs_reforwarded", len(forward))

        with ctx.span("traffic.forward", **meta) if ctx else nullcontext():
            if workers is not None and workers > 1 and len(forward) > 1:
                forwarded = self._forward_parallel(forward, workers, parallel_mode)
            else:
                forwarded = [self.engine.forward_spread(flow) for flow in forward]
        for i, spread in zip(pending, forwarded):
            spreads[i] = spread

        with ctx.span("traffic.merge", work=len(work)) if ctx else nullcontext():
            for (flow, volume), spread in zip(work, spreads):
                paths[flow] = spread
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
        )

    # -- parallel forwarding -------------------------------------------------

    def _forward_parallel(
        self, flows: List[Flow], workers: int, parallel_mode: str
    ) -> List[List[Tuple[FlowPath, float]]]:
        """Forward flows in contiguous batches across threads or processes.

        Returns spread results in the order of ``flows`` regardless of
        completion order; callers aggregate loads from that order.
        """
        workers = min(workers, len(flows))
        batches = _split_batches(flows, workers)
        if parallel_mode == "process":
            return self._forward_batches_process(batches, workers)
        return self._forward_batches_thread(batches, workers)

    def _forward_batches_thread(
        self, batches: List[List[Flow]], workers: int
    ) -> List[List[Tuple[FlowPath, float]]]:
        from concurrent.futures import ThreadPoolExecutor

        # Warm the engine's memo state up front: the first forward
        # triggers the freshness check, and doing it once
        # here keeps the concurrent phase read-mostly. (CPython dict ops
        # are atomic under the GIL, and the memo tables are insert-only
        # with value-identical entries, so concurrent fills are benign.)
        if batches and batches[0]:
            first = batches[0][0]
            warm = self.engine.forward_spread(first)
            results_first = [warm]
            batches = [batches[0][1:]] + batches[1:]
        else:
            results_first = []

        # Pool threads re-enter the submitting thread's effective perf flags
        # (scoped overrides are thread-local; see repro.perfopts).
        opts = perfopts.effective()

        def run(batch: List[Flow]) -> List[List[Tuple[FlowPath, float]]]:
            with perfopts.applied(opts):
                return [self.engine.forward_spread(flow) for flow in batch]

        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_batch = list(pool.map(run, batches))
        out = list(results_first)
        for chunk in per_batch:
            out.extend(chunk)
        return out

    def _shipped_context(self):
        """The shipped (model, ribs, igp) context, serialized once per run.

        The pickled context used to be rebuilt on every process-parallel
        ``simulate`` call — O(model) serialization per submission. It is
        now hoisted onto the simulator and keyed on the same staleness
        stamp the forwarding engine uses (topology version + RIB
        generations), so repeated simulations over unchanged state reuse
        one blob / shared-memory segment.
        """
        from repro.distsim import shipping

        stamp = (
            self.model.topology.version,
            len(self.ribs),
            sum(rib.generation for rib in self.ribs.values()),
        )
        if self._shipped is None or self._ship_stamp != stamp:
            if self._shipped is not None:
                self._shipped.close()
            self._shipped = shipping.ship((self.model, self.ribs, self.igp))
            self._ship_stamp = stamp
        return self._shipped

    def _forward_batches_process(
        self, batches: List[List[Flow]], workers: int
    ) -> List[List[Tuple[FlowPath, float]]]:
        import pickle

        try:
            from concurrent.futures import ProcessPoolExecutor

            shipped = self._shipped_context()
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_process_worker,
                initargs=(shipped.token,),
            ) as pool:
                per_batch = list(pool.map(_forward_batch_in_process, batches))
        except (pickle.PicklingError, OSError, ImportError):
            # Unpicklable model or no process support: degrade to threads.
            return self._forward_batches_thread(batches, workers)
        out: List[List[Tuple[FlowPath, float]]] = []
        for chunk in per_batch:
            out.extend(chunk)
        return out


def _split_batches(items: List[Flow], parts: int) -> List[List[Flow]]:
    """Split into ``parts`` contiguous batches of near-equal size."""
    parts = max(1, min(parts, len(items)))
    size, remainder = divmod(len(items), parts)
    batches: List[List[Flow]] = []
    start = 0
    for i in range(parts):
        end = start + size + (1 if i < remainder else 0)
        batches.append(items[start:end])
        start = end
    return batches
