"""Input partitioning strategies for subtask preparation (§3.2).

* :class:`OrderingPartitioner` — the paper's ordering heuristic: routes are
  sorted by the last IP address in the prefix (routes with the same prefix
  stay together) and split contiguously; flows are sorted by destination
  address and split the same way, which makes a traffic subtask's
  destination range overlap only a few route subtasks' result ranges.
* :class:`RandomPartitioner` — the paper's comparison strategy: with O(10^7)
  flows per subtask, a random split makes every traffic subtask depend on
  every route subtask with high probability.
* :class:`BalancedPartitioner` — the paper's stated future work: greedy
  cost-balanced splitting by a per-route cost estimate (propagation depth),
  ablated in the benchmarks against plain ordering.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.addr import Prefix, PrefixRange
from repro.routing.inputs import InputRoute
from repro.traffic.flow import Flow


def _contiguous_chunks(items: Sequence, count: int) -> List[List]:
    """Split into ``count`` near-even contiguous chunks (some may be empty)."""
    chunks: List[List] = [[] for _ in range(count)]
    if not items:
        return chunks
    base, extra = divmod(len(items), count)
    start = 0
    for index in range(count):
        size = base + (1 if index < extra else 0)
        chunks[index] = list(items[start : start + size])
        start += size
    return chunks


def _keep_same_prefix_together(
    ordered: List[InputRoute], chunks: List[List[InputRoute]]
) -> List[List[InputRoute]]:
    """Move split prefix groups forward so equal prefixes share a subtask.

    The whole leading run of boundary-prefix routes moves in one slice
    operation — linear in the routes moved, where a ``pop(0)`` loop would
    shift the entire following chunk once per moved route (quadratic when
    a popular prefix spans a chunk boundary).
    """
    for index in range(len(chunks) - 1):
        current, following = chunks[index], chunks[index + 1]
        if not current or not following:
            continue
        boundary = current[-1].route.prefix
        if following[0].route.prefix != boundary:
            continue
        move = 1
        while move < len(following) and following[move].route.prefix == boundary:
            move += 1
        current.extend(following[:move])
        chunks[index + 1] = following[move:]
    return chunks


def ranges_of_prefixes(prefixes: Sequence[Prefix]) -> List[PrefixRange]:
    """Per-family spanning ranges of a prefix set."""
    by_family: Dict[int, List[Prefix]] = {}
    for prefix in prefixes:
        by_family.setdefault(prefix.family, []).append(prefix)
    return [PrefixRange.spanning(group) for group in by_family.values()]


class OrderingPartitioner:
    """The ordering heuristic of §3.2."""

    name = "ordering"

    def split_routes(
        self, routes: Sequence[InputRoute], subtasks: int
    ) -> List[List[InputRoute]]:
        ordered = sorted(routes, key=lambda r: r.route.prefix.ordering_key())
        chunks = _contiguous_chunks(ordered, subtasks)
        return _keep_same_prefix_together(ordered, chunks)

    def split_flows(self, flows: Sequence[Flow], subtasks: int) -> List[List[Flow]]:
        ordered = sorted(flows, key=lambda f: (f.dst.family, f.dst.value))
        return _contiguous_chunks(ordered, subtasks)


class CoveredSubsetPartitioner:
    """Restrict a partitioner's route chunks to a covered subset.

    Used by incremental verification: the *full* input list is split by the
    inner partitioner first, then each chunk is filtered to the routes the
    blast radius covers. Splitting before filtering keeps chunk assignment —
    and therefore per-subtask aggregate grouping — identical to a full run;
    chunks left with no covered routes become empty and the master skips
    dispatching them entirely.
    """

    name = "covered-subset"

    def __init__(self, covered: Callable[[InputRoute], bool], inner=None) -> None:
        self.covered = covered
        self.inner = inner if inner is not None else OrderingPartitioner()

    def split_routes(
        self, routes: Sequence[InputRoute], subtasks: int
    ) -> List[List[InputRoute]]:
        chunks = self.inner.split_routes(routes, subtasks)
        return [[r for r in chunk if self.covered(r)] for chunk in chunks]

    def split_flows(self, flows: Sequence[Flow], subtasks: int) -> List[List[Flow]]:
        return self.inner.split_flows(flows, subtasks)


class RandomPartitioner:
    """Random split: the paper's baseline comparison for Figure 5(d)."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    def split_routes(
        self, routes: Sequence[InputRoute], subtasks: int
    ) -> List[List[InputRoute]]:
        # Same-prefix routes must still share a subtask for correctness, so
        # shuffle prefix *groups*.
        groups: Dict = {}
        for route in routes:
            groups.setdefault(route.route.prefix, []).append(route)
        keys = sorted(groups, key=lambda p: p.ordering_key())
        rng = random.Random(self.seed)
        rng.shuffle(keys)
        flat: List[InputRoute] = []
        for key in keys:
            flat.extend(groups[key])
        return _contiguous_chunks(flat, subtasks)

    def split_flows(self, flows: Sequence[Flow], subtasks: int) -> List[List[Flow]]:
        shuffled = list(flows)
        random.Random(self.seed).shuffle(shuffled)
        return _contiguous_chunks(shuffled, subtasks)


class BalancedPartitioner:
    """Greedy cost-balanced splitting (the paper's future-work direction).

    ``cost_of`` estimates each route's simulation cost; the default uses the
    AS-path length as a proxy for propagation depth (ISP routes with long
    paths propagate few hops on the WAN; DC routes with short paths flood
    deep, §3.2's "cause of the diminishing returns"). Prefix groups are
    assigned whole, largest first, to the least-loaded subtask.

    Note this deliberately sacrifices the contiguous ordering, so traffic
    dependency reduction degrades — that trade-off is what the ablation
    benchmark measures.
    """

    name = "balanced"

    def __init__(self, cost_of: Optional[Callable[[InputRoute], float]] = None):
        self.cost_of = cost_of or (lambda r: 1.0 + 10.0 / (1 + len(r.route.as_path)))

    def split_routes(
        self, routes: Sequence[InputRoute], subtasks: int
    ) -> List[List[InputRoute]]:
        groups: Dict = {}
        for route in routes:
            groups.setdefault(route.route.prefix, []).append(route)
        weighted = sorted(
            groups.items(),
            key=lambda item: (-sum(self.cost_of(r) for r in item[1]),
                              item[0].ordering_key()),
        )
        loads = [0.0] * subtasks
        chunks: List[List[InputRoute]] = [[] for _ in range(subtasks)]
        for prefix, members in weighted:
            target = loads.index(min(loads))
            chunks[target].extend(members)
            loads[target] += sum(self.cost_of(r) for r in members)
        return chunks

    def split_flows(self, flows: Sequence[Flow], subtasks: int) -> List[List[Flow]]:
        # Flows have uniform unit cost; fall back to the ordering split.
        return OrderingPartitioner().split_flows(flows, subtasks)
