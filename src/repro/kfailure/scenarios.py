"""Failure-scenario enumeration and overlay application.

Scenarios are the ≤k combinations of failable elements (links and,
optionally, routers) in a fixed deterministic order — the same order the
old exhaustive checker used, so violation lists stay byte-comparable across
engines. Overlay application is exact: it fails precisely the requested
elements on a (shared, reused) work model and returns a restore callback
that undoes only what it added, leaving any pre-existing failure overlay on
the base model untouched.

A requested link that does not exist in the target topology raises
:class:`~repro.net.topology.TopologyError` naming the link — silently
skipping it (as the old checker did) would verify a weaker scenario than
the one requested.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.net.model import NetworkModel
from repro.net.topology import Link, Topology, TopologyError


@dataclass(frozen=True)
class FailureScenario:
    """One failure combination, identified by its enumeration index."""

    index: int
    link_endpoints: Tuple[Tuple[str, str], ...]
    failed_routers: Tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.link_endpoints) + len(self.failed_routers)

    def describe(self) -> str:
        parts = ["-".join(ends) for ends in self.link_endpoints]
        parts.extend(self.failed_routers)
        return "+".join(parts) if parts else "no-failure"


def scenario_space_size(n_elements: int, k: int) -> int:
    """Exact ≤k scenario-space size: sum of C(n, i) for i in 1..k."""
    return sum(comb(n_elements, i) for i in range(1, min(k, n_elements) + 1))


def enumerate_scenarios(
    model: NetworkModel,
    k: int,
    fail_links: bool = True,
    fail_routers: bool = False,
    links: Optional[Sequence[Link]] = None,
    routers: Optional[Sequence[str]] = None,
) -> Tuple[Iterator[FailureScenario], int]:
    """Scenario iterator plus the exact total scenario-space size.

    ``links`` / ``routers`` restrict the failure universe (benchmark sweeps
    bound it to keep cold enumeration tractable); by default every topology
    link and router is failable.
    """
    chosen_links: List[Link] = (
        list(links)
        if links is not None
        else (list(model.topology.links) if fail_links else [])
    )
    chosen_routers: List[str] = (
        list(routers)
        if routers is not None
        else (list(model.topology.router_names) if fail_routers else [])
    )
    elements: List[Tuple[str, object]] = [("link", l) for l in chosen_links] + [
        ("router", r) for r in chosen_routers
    ]
    total = scenario_space_size(len(elements), k)

    def generate() -> Iterator[FailureScenario]:
        index = 0
        for size in range(1, k + 1):
            for combo in itertools.combinations(elements, size):
                yield FailureScenario(
                    index=index,
                    link_endpoints=tuple(
                        item.endpoints for kind, item in combo if kind == "link"
                    ),
                    failed_routers=tuple(
                        item for kind, item in combo if kind == "router"
                    ),
                )
                index += 1

    return generate(), total


def apply_scenario(
    topology: Topology, scenario: FailureScenario
) -> Callable[[], None]:
    """Overlay a scenario's failures; returns the exact-undo callback.

    Elements already failed on the target (a base model may carry its own
    overlay) are left alone and *not* restored by the callback. Raises
    :class:`TopologyError` for a link absent from the topology.
    """
    failed_links: List[Link] = []
    failed_routers: List[str] = []
    try:
        for a, b in scenario.link_endpoints:
            link = topology.find_link(a, b)
            if link is None:
                raise TopologyError(
                    f"k-failure scenario names link {a}-{b}, which does not "
                    "exist in the topology"
                )
            if topology.link_is_failed(link):
                continue
            topology.fail_link(link)
            failed_links.append(link)
        for name in scenario.failed_routers:
            if not topology.router_is_up(name):
                continue
            topology.fail_router(name)
            failed_routers.append(name)
    except TopologyError:
        for link in failed_links:
            topology.restore_link(link)
        for name in failed_routers:
            topology.restore_router(name)
        raise

    def restore() -> None:
        for link in failed_links:
            topology.restore_link(link)
        for name in failed_routers:
            topology.restore_router(name)

    return restore
