"""Link load aggregation from flow paths.

Produces the per-link traffic loads that traffic-load intents check ("no
link would be overloaded after the change") and that the accuracy framework
compares against SNMP-monitored loads (§5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.net.topology import Topology

LinkKey = Tuple[str, str]


def link_key(a: str, b: str) -> LinkKey:
    """Canonical undirected link key."""
    return (a, b) if a <= b else (b, a)


@dataclass
class LinkLoadMap:
    """Aggregated traffic volume per (undirected) link, in bits/second."""

    loads: Dict[LinkKey, float] = field(default_factory=dict)

    def add(self, a: str, b: str, volume: float) -> None:
        key = link_key(a, b)
        self.loads[key] = self.loads.get(key, 0.0) + volume

    def get(self, a: str, b: str) -> float:
        return self.loads.get(link_key(a, b), 0.0)

    def merge(self, other: "LinkLoadMap") -> "LinkLoadMap":
        """Merge loads (used by the master to combine subtask results)."""
        merged = LinkLoadMap(loads=dict(self.loads))
        for key, volume in other.loads.items():
            merged.loads[key] = merged.loads.get(key, 0.0) + volume
        return merged

    def utilization(self, topology: Topology) -> Dict[LinkKey, float]:
        """Load / bandwidth per link (parallel links pool their bandwidth)."""
        result: Dict[LinkKey, float] = {}
        for key, volume in self.loads.items():
            a, b = key
            links = topology.links_between(a, b)
            capacity = sum(l.a.bandwidth for l in links) or 1.0
            result[key] = volume / capacity
        return result

    def overloaded_links(
        self, topology: Topology, threshold: float = 1.0
    ) -> List[Tuple[LinkKey, float]]:
        """Links whose utilization is at or above the threshold."""
        return sorted(
            (
                (key, util)
                for key, util in self.utilization(topology).items()
                if util >= threshold
            ),
            key=lambda item: (-item[1], item[0]),
        )

    def compare(
        self, other: "LinkLoadMap", topology: Optional[Topology] = None
    ) -> Dict[LinkKey, float]:
        """Absolute load difference per link (accuracy validation, §5.1)."""
        keys = set(self.loads) | set(other.loads)
        return {
            key: self.loads.get(key, 0.0) - other.loads.get(key, 0.0)
            for key in keys
        }

    def total(self) -> float:
        return sum(self.loads.values())

    def __len__(self) -> int:
        return len(self.loads)


#: One crossing of a link by a work item's spread: (work index, position of
#: the crossing in that spread's link walk, ``volume * fraction``).
Crossing = Tuple[int, int, float]


def _add_crossings(
    into: Dict[LinkKey, List[Crossing]],
    index: int,
    volume: float,
    spread: Sequence[Tuple[Any, float]],
) -> None:
    position = 0
    for path, fraction in spread:
        for a, b in path.links:
            into.setdefault(link_key(a, b), []).append(
                (index, position, volume * fraction)
            )
            position += 1


class LinkContributions:
    """Per link, every crossing of one merge's work, in merge order.

    A merge walks its work items in order and adds ``volume * fraction``
    for each link of each path of the item's spread. A link's load is its
    crossings summed in that order, and its place in the load map is that
    of its first crossing. Keeping the crossings lets :meth:`patch` redo
    exactly the links that replaced spreads cross.
    """

    def __init__(
        self, work: Iterable[Tuple[float, Sequence[Tuple[Any, float]]]]
    ) -> None:
        self.crossings: Dict[LinkKey, List[Crossing]] = {}
        for index, (volume, spread) in enumerate(work):
            _add_crossings(self.crossings, index, volume, spread)

    def patch(
        self,
        loads: LinkLoadMap,
        replaced: Mapping[int, Tuple[float, Sequence, Sequence]],
    ) -> Tuple[LinkLoadMap, int]:
        """``loads`` — this work's merge — with some spreads replaced.

        ``replaced`` maps a work index to ``(volume, old spread, new
        spread)``. Every link either spread crosses is summed again over
        its remaining crossings in merge order and dropped if none remain;
        keys are re-ordered by first crossing only if one moved. The map
        equals a full merge of the patched work, floats and key order.
        Returns it with the number of links summed again.
        """
        fresh: Dict[LinkKey, List[Crossing]] = {}
        links = set()
        for index, (volume, old, new) in replaced.items():
            links.update(link_key(a, b) for path, _ in old for a, b in path.links)
            _add_crossings(fresh, index, volume, new)
        links.update(fresh)
        patched = dict(loads.loads)
        first: Optional[Dict[LinkKey, Tuple[int, int]]] = None
        for key in links:
            base = self.crossings.get(key, [])
            crossings = sorted(
                [c for c in base if c[0] not in replaced] + fresh.get(key, [])
            )
            if not crossings:
                del patched[key]
                continue
            total = 0.0
            for crossing in crossings:
                total += crossing[2]
            patched[key] = total
            if not base or base[0][:2] != crossings[0][:2]:
                if first is None:
                    first = {k: c[0][:2] for k, c in self.crossings.items()}
                first[key] = crossings[0][:2]
        if first is not None:
            order = sorted(patched, key=first.__getitem__)
            patched = {key: patched[key] for key in order}
        return LinkLoadMap(loads=patched), len(links)
